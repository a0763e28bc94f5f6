"""Closed-form test fields, cutoff and mollifier profiles, and field algebra.

All evaluators are vectorized over every axis but the last.  A scalar
field takes points of shape (..., n) and returns values of shape (...).  A
pair field takes points x and y whose shapes broadcast against each other
and returns values of their broadcast leading shape, so a point shared by
many pairs is passed, and read, once; it also takes their separation
|x - y| when the caller knows it (PairField).  Besides its evaluator a field
carries only what the program reads: its support radius, which sets the
sampling and quadrature radii and the convolution short-circuit, and for a
scalar field its smoothness class, which the finiteness check requires and
the approximation records report.  Both are analytic, never inferred
numerically.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterOutOfRange, UnknownCatalogId
from .params import SpaceParams, row_norm

# smoothness classes from best to worst; an operation's result is as rough
# as its roughest operand
_SMOOTHNESS_ORDER = ("smooth", "continuous", "measurable")


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n."""
    return 2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int) -> float:
    return sphere_area(n) / n


@dataclass(frozen=True)
class ScalarField:
    """A field on R^n, evaluated at points of shape (..., n) with values of
    shape (...), each point's value computed from that point alone.

    Every scalar field is radial, u(Qx) == u(x) for
    every rotation Q (in n = 1, every field is even, u(-x) == u(x)): the
    catalog fields are radial, hat_1d is defined in n = 1 only, where it is
    even, and dilation, subtraction, the radial cutoff and convolution with
    the radial mollifier keep it.  ``smoothing.convolve`` relies on it to
    convolve at |x| e_1 on nodes aligned with that axis, and the 1-d oracle
    to sum over x > 0 only.

    A field is exactly 0 beyond ``support_radius``: u(x) == 0 whenever
    row_norm(x) > support_radius, save within rounding of a radius that is
    itself rounded (a dilation's support_radius / lam, such as the 1/3 of
    dilate(hat_1d, 3)).  ``smoothing.convolve`` relies on it to skip points
    farther than support_radius + eps, and ``smoothing.truncate`` to return
    u itself when support_radius <= j."""

    label: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    support_radius: float  # np.inf for global support, 0.0 for the zero field
    smoothness: str  # "smooth" | "continuous" | "measurable"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class PairField:
    """A field on R^n x R^n, evaluated as v(x, y, d=None) at points x and y
    whose shapes broadcast against each other, with values of the broadcast
    leading shape: x of shape (m, 1, n) against y of shape (m, k, n) gives
    (m, k), bit for bit the values of the (m k, n) call on x repeated.  The
    estimators rely on it to pass a point shared by many pairs once, so a
    lift reads u there once.

    Separation contract: ``d``, when given, is the separation |x - y| of
    every pair, of a shape that broadcasts against the leading shape, and
    the field may read it instead of computing row_norm(x - y) itself; with
    d = row_norm(x - y) the values are bit for bit those of the call
    without it.  The lift computes its kernel on d's own shape, so the 1-d
    oracle, which passes each z node's separation as shape (1, k), has it
    computed k times per row group, not once per (u, z) point.  Pair
    subtraction and clipping pass d on.

    Every pair field is antisymmetric bit for bit:
    v(y, x) == -v(x, y).  The norms rely on it to score each unordered
    pair once.  The lift has it because IEEE subtraction rounds a - b and
    b - a to exact negatives, and pair subtraction and clipping keep it,
    since each commutes with exact negation.

    In n = 1 every pair field is also even, v(-x, -y) == v(x, y), since the
    lift of an even field is and the pair operations keep it.  The 1-d
    oracle relies on it to sum over x > 0 only."""

    label: str
    evaluator: Callable[[np.ndarray, np.ndarray, Optional[np.ndarray]], np.ndarray]
    # radius such that the field vanishes when both blocks are outside it;
    # used to pick sampling truncation radii
    x_support_radius: float

    def __call__(self, x: np.ndarray, y: np.ndarray, d: Optional[np.ndarray] = None) -> np.ndarray:
        d = None if d is None else np.asarray(d, dtype=float)
        return self.evaluator(np.asarray(x, dtype=float), np.asarray(y, dtype=float), d)


def _bump_profile(t: np.ndarray) -> np.ndarray:
    """exp(-1/(1-t^2)) for |t| < 1, 0 beyond; exp runs on |t| < 1 only."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros(t.shape)
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


def _rougher(a: str, b: str) -> str:
    return max(a, b, key=_SMOOTHNESS_ORDER.index)


# ---------------------------------------------------------------------------
# catalog


def zero_field() -> ScalarField:
    return ScalarField(
        label="zero",
        evaluator=lambda x: np.zeros(x.shape[:-1]),
        support_radius=0.0,
        smoothness="smooth",
    )


def gaussian_field() -> ScalarField:
    return ScalarField(
        label="gaussian",
        evaluator=lambda x: np.exp(-np.sum(x * x, axis=-1)),
        support_radius=np.inf,
        smoothness="smooth",
    )


def smooth_bump_field(R: float = 1.0) -> ScalarField:
    if R <= 0:
        raise ParameterOutOfRange(f"smooth_bump radius must be positive, got {R}")
    return ScalarField(
        label=f"smooth_bump(R={R})",
        evaluator=lambda x: _bump_profile(row_norm(x) / R),
        support_radius=float(R),
        smoothness="smooth",
    )


def hat_1d_field(space: Optional[SpaceParams] = None) -> ScalarField:
    """max(0, 1 - |x|) in n = 1; ``space``, when given, must have n = 1."""
    if space is not None and space.n != 1:
        raise ParameterOutOfRange(f"hat_1d is only defined in dimension 1, got n={space.n}")

    def ev(x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != 1:
            raise ParameterOutOfRange("hat_1d is only defined in dimension 1")
        return np.maximum(0.0, 1.0 - np.abs(x[..., 0]))

    return ScalarField(
        label="hat_1d",
        evaluator=ev,
        support_radius=1.0,
        smoothness="continuous",
    )


def polynomial_tail_field(gamma: float) -> ScalarField:
    if gamma <= 0:
        raise ParameterOutOfRange(f"polynomial_tail needs gamma > 0, got {gamma}")
    return ScalarField(
        label=f"polynomial_tail(gamma={gamma})",
        evaluator=lambda x: (1.0 + np.sum(x * x, axis=-1)) ** (-gamma / 2.0),
        support_radius=np.inf,
        smoothness="smooth",
    )


def singular_spike_field(gamma: float, R: float, space: Optional[SpaceParams]) -> ScalarField:
    """|x|^(-gamma) * bump(x/R): unbounded at the origin, compactly supported.

    gamma is capped at (n + b) / p_star so the weighted critical norm of the
    field stays finite and the field is a genuine member of the space.
    """
    if space is None:
        raise ParameterOutOfRange("singular_spike needs space parameters for its exponent cap")
    if gamma <= 0:
        raise ParameterOutOfRange(f"singular_spike needs gamma > 0, got {gamma}")
    if R <= 0:
        raise ParameterOutOfRange(f"singular_spike needs R > 0, got {R}")
    cap = (space.n + space.b) / space.p_star
    if gamma >= cap:
        raise ParameterOutOfRange(
            f"singular_spike exponent gamma={gamma} must be below (n + b)/p_star = {cap}"
        )

    def ev(x: np.ndarray) -> np.ndarray:
        r = row_norm(x)
        bump = _bump_profile(r / R)
        with np.errstate(divide="ignore", over="ignore"):
            spike = np.where(r > 0.0, r, 1.0) ** (-gamma)
        return np.where(r > 0.0, spike * bump, np.inf) * (bump > 0.0)

    return ScalarField(
        label=f"singular_spike(gamma={gamma},R={R})",
        evaluator=ev,
        support_radius=float(R),
        smoothness="measurable",
    )


# each catalog id: its constructor, called with the space parameters and the
# field parameters, and those parameters with their defaults (None: required)
_CATALOG = {
    "zero": (lambda space: zero_field(), {}),
    "gaussian": (lambda space: gaussian_field(), {}),
    "smooth_bump": (lambda space, R: smooth_bump_field(R), {"R": 1.0}),
    "hat_1d": (hat_1d_field, {}),
    "polynomial_tail": (lambda space, gamma: polynomial_tail_field(gamma), {"gamma": None}),
    "singular_spike": (singular_spike_field, {"gamma": None, "R": 1.0}),
}
_CATALOG_IDS = tuple(_CATALOG)

_FIELD_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$")


def parse_field_spec(text: str) -> tuple[str, dict]:
    """Parse 'name' or 'name(key=1.0, key2=2)' into (name, {key: float})."""
    m = _FIELD_SPEC_RE.match(text)
    if not m:
        raise UnknownCatalogId(f"cannot parse field spec {text!r}")
    name, args = m.group(1), m.group(2)
    kwargs: dict = {}
    if args and args.strip():
        for part in args.split(","):
            if "=" not in part:
                raise UnknownCatalogId(f"malformed parameter {part!r} in {text!r}")
            key, val = part.split("=", 1)
            try:
                kwargs[key.strip()] = float(val)
            except ValueError as exc:
                raise UnknownCatalogId(f"non-numeric parameter in {text!r}") from exc
    return name, kwargs


def make_field(name: str, space: Optional[SpaceParams] = None, **kwargs) -> ScalarField:
    """Construct a catalog field by id.  ``space`` is required for
    singular_spike, and hat_1d refuses one with n != 1."""
    if name not in _CATALOG:
        raise UnknownCatalogId(f"unknown catalog id {name!r} (known: {', '.join(_CATALOG_IDS)})")
    build, known = _CATALOG[name]
    args = {**known, **kwargs}
    if set(args) != set(known) or None in args.values():
        takes = ", ".join(k if v is None else f"{k}={v}" for k, v in known.items())
        given = ", ".join(f"{k}={v}" for k, v in kwargs.items())
        raise UnknownCatalogId(f"field {name} takes the parameters ({takes}), got ({given})")
    return build(space=space, **args)


def field_from_spec(text: str, space: Optional[SpaceParams] = None) -> ScalarField:
    name, kwargs = parse_field_spec(text)
    return make_field(name, space=space, **kwargs)


# ---------------------------------------------------------------------------
# field algebra


def dilate(u: ScalarField, lam: float) -> ScalarField:
    """x -> u(lam * x)."""
    if lam <= 0:
        raise ParameterOutOfRange(f"dilation factor must be positive, got {lam}")
    return ScalarField(
        label=f"dilate({lam},{u.label})",
        evaluator=lambda x, _u=u, _l=lam: _u(_l * x),
        support_radius=u.support_radius / lam,
        smoothness=u.smoothness,
    )


def subtract(u: ScalarField, w: ScalarField) -> ScalarField:
    return ScalarField(
        label=f"sub({u.label},{w.label})",
        evaluator=lambda x, _u=u, _w=w: _u(x) - _w(x),
        support_radius=max(u.support_radius, w.support_radius),
        smoothness=_rougher(u.smoothness, w.smoothness),
    )


def pair_subtract(v: PairField, w: PairField) -> PairField:
    return PairField(
        label=f"sub({v.label},{w.label})",
        evaluator=lambda x, y, d=None, _v=v, _w=w: _v(x, y, d) - _w(x, y, d),
        x_support_radius=max(v.x_support_radius, w.x_support_radius),
    )


def lift_difference_quotient(u: ScalarField, params: SpaceParams) -> PairField:
    """(u(x) - u(y)) / |x-y|^(n/p + s), with value 0 on the exact diagonal.

    The kernel is computed on the separation d's own shape: on the given d,
    else on d = row_norm(x - y).  The diagonal convention is for totality
    only: the samplers never emit z = 0, and the diagonal has measure zero.
    """
    exponent = params.n / params.p + params.s

    def ev(x: np.ndarray, y: np.ndarray, d: Optional[np.ndarray] = None) -> np.ndarray:
        if d is None:
            d = row_norm(x - y)
        off = d > 0.0
        dd = np.where(off, d, 1.0)
        vals = (u(x) - u(y)) * dd ** (-exponent)
        return np.where(off, vals, 0.0)

    return PairField(
        label=f"lift({u.label};n/p+s={exponent})",
        evaluator=ev,
        x_support_radius=u.support_radius,
    )


def clip_to_level(v: PairField, M: float) -> PairField:
    if M <= 0:
        raise ParameterOutOfRange(f"clip level must be positive, got {M}")
    return PairField(
        label=f"clip({M},{v.label})",
        evaluator=lambda x, y, d=None, _v=v, _m=float(M): np.clip(_v(x, y, d), -_m, _m),
        x_support_radius=v.x_support_radius,
    )


# ---------------------------------------------------------------------------
# cutoff and mollifier profiles


@dataclass(frozen=True)
class CutoffProfile:
    """Smooth radial profile, exactly 1.0 on B_1 (r <= 1), exactly 0 outside
    B_2 and in [0, 1] between.  ``smoothing.truncate`` relies on the exact
    1.0 to return u itself when supp u lies in B_j."""

    radial: Callable[[np.ndarray], np.ndarray]


def default_cutoff() -> CutoffProfile:
    def radial(r: np.ndarray) -> np.ndarray:
        # exp runs on the shell 1 < r < 2 only; NaN falls in the shell and stays NaN.
        # Just past r = 1, hb is below an ulp of ha, so the value is still exactly 1.0
        r = np.asarray(r, dtype=float)
        lo = r <= 1.0
        mid = ~(lo | (r >= 2.0))
        out = np.where(lo, 1.0, 0.0)
        rm = r[mid]
        ha = np.exp(-1.0 / (2.0 - rm))
        hb = np.exp(-1.0 / (rm - 1.0))
        out[mid] = ha / (ha + hb)
        return out

    return CutoffProfile(radial=radial)


def cutoff_tau_j(profile: CutoffProfile, j: float) -> ScalarField:
    """Rescaled cutoff: 1 on B_j, 0 outside B_{2j}, values in [0,1]."""
    if not (0 < j < np.inf):
        raise ParameterOutOfRange(f"cutoff scale j must be positive and finite, got {j}")
    return ScalarField(
        label=f"tau_j(j={j})",
        evaluator=lambda x, _p=profile, _j=float(j): _p.radial(row_norm(x) / _j),
        support_radius=2.0 * float(j),
        smoothness="smooth",
    )


def multiply_cutoff(u: ScalarField, tau: ScalarField) -> ScalarField:
    """Pointwise product tau * u (the truncation operator)."""
    return ScalarField(
        label=f"mul({tau.label},{u.label})",
        evaluator=lambda x, _u=u, _t=tau: _u(x) * _t(x),
        support_radius=min(u.support_radius, tau.support_radius),
        smoothness=_rougher(u.smoothness, tau.smoothness),
    )


@dataclass(frozen=True)
class MollifierProfile:
    """Radial mollifier profile supported in B_1, for a fixed dimension n.

    ``radial_profile`` is the unnormalized shape g of eta(x) = C g(|x|).
    ``smoothing.conv_nodes`` divides its discrete weights by their sum,
    which supplies C: the mass on the nodes is exactly 1.
    """

    n: int
    radial_profile: Callable[[np.ndarray], np.ndarray]


def default_mollifier(n: int) -> MollifierProfile:
    """Smooth radially decreasing bump exp(-1/(1-r^2)) on R^n, as an
    unnormalized shape; ``conv_nodes`` gives it unit mass."""
    return MollifierProfile(n=n, radial_profile=_bump_profile)
