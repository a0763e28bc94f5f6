"""Approximation operators: truncation, mollification, diagonal-shift
convolution, and the cutoff-then-mollify pipeline.

Convolutions are deterministic quadrature, not Monte Carlo: their output is
re-integrated by the norm estimators, so pointwise noise must be negligible.
The radial rule is Gauss-Legendre: ``conv_grid`` nodes t on (0, eps),
weighted by t^(n-1) eta(t/eps).  The discrete mollifier weights are
normalized to total mass exactly 1, which makes reproduction of constants
exact and keeps the unit-mass contract independent of the grid resolution.

Every scalar field is radial, u(Qx) = u(x) for every rotation Q (the
``ScalarField`` contract), so ``convolve`` evaluates u * eta_eps at |x| e_1
on nodes aligned with that axis: the shifts t (mu, sqrt(1 - mu^2), 0, ...)
with mu = +-1 in n = 1, 16 Gauss-Chebyshev nodes in n = 2 and 16
Gauss-Legendre nodes in n = 3.  That makes 2, 16 and 16 directions per
radial node: K = 256, 2,048 and 2,048 nodes at ``conv_grid`` 128, exact for
radial fields up to the radial rule.  A pair field is not radial in one
argument, so ``star_convolve`` keeps fixed direction tables on the same
radial nodes: +-1 in n = 1 (the aligned nodes), 64 angles in n = 2 and
8 x 16 (mu, phi) directions in n = 3.

A diagonal shift keeps |x - y|, so the diagonal-shift convolution of a
lift is the lift of the convolution, (Du) star eta_eps = D(u * eta_eps),
exactly.  The convolution bound of the pair weight (prop-4.4) smooths u
with ``convolve_field`` on that account, and ``star_convolve`` evaluates
only the left side of the identity, which eq-6.4 checks pointwise.

A convolved field of a smooth u of bounded support is radial and smooth in
r, so ``convolve_field`` tabulates it once: a piecewise Chebyshev table in
r on [0, supp u + eps], built on the first call from ``convolve`` at fixed
radii, within about 1e-14 of max|rho| of ``convolve``.  A point then costs
one Clenshaw sum instead of K reads of u.  A kinked or measurable u, whose
discrete convolution is not smooth in r, and a u of unbounded support are
convolved at every point.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import quadrature
from .errors import ParameterOutOfRange, QuadratureFailure
from .fields import (
    CutoffProfile,
    MollifierProfile,
    PairField,
    ScalarField,
    cutoff_tau_j,
    multiply_cutoff,
)
from .params import row_norm

# most (point, node) pairs evaluated at once by all the worker threads
# together (quadrature.WORKERS): a budget they share, so each call of the
# convolved field takes at most CONV_BLOCK // quadrature.WORKERS of them
CONV_BLOCK = 1 << 20

# the radial table of a convolved field (_tabulated): uniform panels of
# degree TABLE_DEGREE, from TABLE_PANELS up to TABLE_MAX_PANELS, refined
# until each panel's series ends below TABLE_TAIL of the largest value; the
# build convolves TABLE_BATCH radii at a time, which bounds its memory
TABLE_DEGREE = 16
TABLE_PANELS = 64
TABLE_MAX_PANELS = 1024
TABLE_TAIL = 1e-14
TABLE_BATCH = 64


def _aligned_directions(n: int) -> tuple:
    """Directions (mu, sqrt(1 - mu^2), 0, ...) in R^n and their weights:
    mu = +-1 in n = 1, 16 Gauss-Chebyshev nodes in n = 2, 16 Gauss-Legendre
    nodes in n = 3."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.ones(2)
    mu, wmu = (np.cos(np.pi * (np.arange(16) + 0.5) / 16.0), np.ones(16)) if n == 2 else leggauss(16)
    dirs = np.zeros((16, n))
    dirs[:, 0], dirs[:, 1] = mu, np.sqrt(1.0 - mu**2)
    return dirs, wmu


def _fixed_directions(n: int) -> tuple:
    """Directions in R^n and their weights, for a field of any symmetry:
    +-1 in n = 1, 64 angles in n = 2, 8 Gauss-Legendre mu times 16 angles
    phi in n = 3."""
    if n == 1:
        return _aligned_directions(1)
    if n == 2:
        angles = 2.0 * np.pi * (np.arange(64) + 0.5) / 64.0
        return np.stack([np.cos(angles), np.sin(angles)], axis=1), np.ones(64)
    mu, wmu = leggauss(8)
    phi = 2.0 * np.pi * (np.arange(16) + 0.5) / 16.0
    sin_t = np.sqrt(1.0 - mu**2)
    dirs = np.stack(
        [np.outer(sin_t, np.cos(phi)).ravel(), np.outer(sin_t, np.sin(phi)).ravel(), np.repeat(mu, 16)],
        axis=1,
    )
    return dirs, np.repeat(wmu, 16)


def truncate(u: ScalarField, j: float, profile: CutoffProfile) -> ScalarField:
    """tau_j * u: equals u on B_j, vanishes outside B_{2j}.

    When supp u lies in B_j (``u.support_radius <= j``) the product is u bit
    for bit, so the result keeps the product's label, support radius and
    smoothness but evaluates u alone.  At a point with |x|/j <= 1 the cutoff
    is exactly 1.0 (the ``CutoffProfile`` contract) and u * 1.0 == u; beyond,
    |x| > j >= support_radius, so u is exactly 0 (the ``ScalarField``
    contract) and so is the product.  The default cutoff is still exactly 1.0
    just past |x| = j, which covers a support radius rounded down by an ulp."""
    w = multiply_cutoff(u, cutoff_tau_j(profile, j))
    return replace(w, evaluator=u.evaluator) if u.support_radius <= j else w


def _check_rule(epsilon: float, m: int) -> None:
    """Refuse a mollifier width or a radial node count the rule cannot use;
    a convolved field checks both when it is built, not when first called."""
    if not (0 < epsilon < np.inf):
        raise ParameterOutOfRange(f"epsilon must be positive and finite, got {epsilon}")
    if m < 1:
        raise ParameterOutOfRange(f"convolution grid needs at least 1 radial node, got {m}")


@lru_cache(maxsize=32)
def _radial_nodes(profile: MollifierProfile, epsilon: float, n: int, m: int):
    """Gauss-Legendre nodes t on (0, epsilon) and their weights times
    t^(n-1) eta(t/epsilon), unnormalized.

    Cached on the profile itself (a frozen dataclass), which the cache keeps
    alive, so a new profile never receives the nodes of a freed one."""
    _check_rule(epsilon, m)
    if n != profile.n:
        raise ParameterOutOfRange(f"profile built for n={profile.n}, requested n={n}")
    if n not in (1, 2, 3):
        raise ParameterOutOfRange(f"deterministic convolution is implemented for n <= 3, got n={n}")
    s, ws = leggauss(m)
    t = 0.5 * epsilon * (s + 1.0)
    return t, 0.5 * epsilon * ws * t ** (n - 1) * profile.radial_profile(t / epsilon)


def _nodes(directions: tuple, t: np.ndarray, wt: np.ndarray):
    """Nodes Z (d m, n), direction-major, and weights W with sum(W) == 1."""
    dirs, wdir = directions
    z = (dirs[:, None, :] * t[None, :, None]).reshape(-1, dirs.shape[1])
    w = np.outer(wdir, wt).ravel()
    w = w / np.sum(w)  # exact unit mass
    z.flags.writeable = w.flags.writeable = False  # shared by every caller
    return z, w


@lru_cache(maxsize=32)
def conv_nodes(profile: MollifierProfile, epsilon: float, n: int, m: int):
    """Quadrature nodes Z (K, n) and weights W (K,) for integrating a radial
    field against eta_eps around a point on the e_1 axis, with sum(W) == 1
    exactly: the m radial nodes along each direction aligned with e_1."""
    t, wt = _radial_nodes(profile, epsilon, n, m)
    return _nodes(_aligned_directions(n), t, wt)


@lru_cache(maxsize=32)
def _star_nodes(profile: MollifierProfile, epsilon: float, n: int, m: int):
    """The same radial nodes along the fixed direction tables, for any field."""
    t, wt = _radial_nodes(profile, epsilon, n, m)
    return _nodes(_fixed_directions(n), t, wt)


def _mollify(f, points: tuple, nodes: tuple) -> np.ndarray:
    """sum_k W_k f(p - Z_k, ...) at each row p of the arrays in ``points``,
    all of shape (m, n): ``(x,)`` for a scalar field, ``(x, y)`` for a pair
    field shifted along the diagonal.  Points are taken in blocks of at most
    CONV_BLOCK // quadrature.WORKERS (point, node) pairs, so memory stays
    bounded however many workers convolve at once.  Outside the workers of
    a fold or of the pair oracle's row groups the blocks themselves run on
    the workers (a single-group fold convolves on every CPU), so f must be
    safe to call from several threads.

    Each point's value is ``np.vecdot`` of its own K shifted values with the
    weights, a reduction whose rounding does not depend on the other points
    of its block (a BLAS matrix-vector product's does), so a point's value is
    the same whatever block or call it is evaluated in."""
    z, w = nodes
    n = z.shape[1]
    out = np.empty(points[0].shape[0])
    block = max(1, CONV_BLOCK // quadrature.WORKERS // len(w))

    def fill(i: int) -> None:
        rows = slice(i * block, (i + 1) * block)
        shifted = ((p[rows, None, :] - z[None, :, :]).reshape(-1, n) for p in points)
        out[rows] = np.vecdot(f(*shifted).reshape(-1, len(w)), w)

    quadrature._on_workers(fill, -(-len(out) // block))
    return out


def convolve(
    u: ScalarField,
    epsilon: float,
    profile: MollifierProfile,
    x: np.ndarray,
    conv_grid: int,
) -> np.ndarray:
    """(u * eta_eps)(x) for an array of points x of shape (..., n), of shape
    (...), computed at |x| e_1 on the aligned nodes of ``conv_nodes``: u must
    be radial.

    Exact 0 whenever dist(x, supp u) > eps (short-circuited by radius)."""
    x = np.asarray(x, dtype=float)
    nodes = conv_nodes(profile, epsilon, x.shape[-1], conv_grid)
    r = row_norm(x)
    out = np.zeros(r.shape)
    active = r <= u.support_radius + epsilon
    on_axis = np.zeros((np.count_nonzero(active), x.shape[-1]))
    on_axis[:, 0] = r[active]
    out[active] = _mollify(u, (on_axis,), nodes)
    return out


def _tabulated(u: ScalarField, epsilon: float, profile: MollifierProfile, conv_grid: int):
    """An evaluator of u * eta_eps from a piecewise Chebyshev table in r on
    [0, edge], edge = supp u + eps, exactly 0 beyond edge as ``convolve``
    is.  u must be smooth, so that the table converges.

    The table is built on the first call, under a lock, from ``convolve`` at
    fixed radii on the e_1 axis, never from the caller's points, so every
    value is the same whichever points come first and however many workers
    ask.  Panels start at TABLE_PANELS and double until the tail of every
    panel's Chebyshev series is below TABLE_TAIL of the largest value; past
    TABLE_MAX_PANELS the build raises QuadratureFailure rather than return a
    table that is off.  A point then costs one Clenshaw sum on its panel."""
    n, edge = profile.n, u.support_radius + epsilon
    nodes = TABLE_DEGREE + 1
    theta = np.pi * (np.arange(nodes) + 0.5) / nodes
    dct = 2.0 / nodes * np.cos(np.outer(np.arange(nodes), theta))  # values -> coefficients
    dct[0] /= 2.0
    table, lock = [], threading.Lock()

    def on_axis(r: np.ndarray) -> np.ndarray:
        x = np.zeros((len(r), n))
        x[:, 0] = r
        return convolve(u, epsilon, profile, x, conv_grid)

    def build() -> np.ndarray:
        panels = TABLE_PANELS
        while panels <= TABLE_MAX_PANELS:
            radii = (edge * (np.arange(panels)[:, None] + 0.5 * (np.cos(theta) + 1.0)) / panels).ravel()
            values = np.concatenate(
                [on_axis(radii[i : i + TABLE_BATCH]) for i in range(0, len(radii), TABLE_BATCH)]
            ).reshape(panels, nodes)
            coef = np.vecdot(dct[:, None, :], values[None, :, :])  # (nodes, panels)
            tail = np.max(np.abs(coef[-2:]))
            if tail <= TABLE_TAIL * np.max(np.abs(values)):
                return coef
            panels *= 2
        raise QuadratureFailure(
            f"the radial table of conv(eps={epsilon},{u.label}) has a Chebyshev tail of {tail:.3g}"
            f" at {TABLE_MAX_PANELS} panels: the field is not smooth enough to tabulate"
        )

    def evaluate(x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != n:
            raise ParameterOutOfRange(f"profile built for n={n}, requested n={x.shape[-1]}")
        if not table:
            with lock:
                if not table:
                    table.append(build())
        coef = table[0]
        r = row_norm(x)
        out = np.zeros(r.shape)
        active = r <= edge
        t = r[active] * (coef.shape[1] / edge)
        panel = np.minimum(t.astype(np.intp), coef.shape[1] - 1)
        s = 2.0 * (t - panel) - 1.0
        b1 = b2 = 0.0
        for c in coef[:0:-1]:  # Clenshaw, from the top coefficient down to c_1
            b1, b2 = 2.0 * s * b1 - b2 + c[panel], b1
        out[active] = s * b1 - b2 + coef[0][panel]
        return out

    return evaluate


def convolve_field(
    u: ScalarField,
    epsilon: float,
    profile: MollifierProfile,
    conv_grid: int,
) -> ScalarField:
    """u * eta_eps as a ScalarField (smooth, support enlarged by eps).

    When u is smooth with bounded support its convolution is tabulated in r
    once (``_tabulated``), within rounding of ``convolve``; any other u (a
    kinked or measurable field, or one of unbounded support) is convolved
    at every point."""
    _check_rule(epsilon, conv_grid)
    if u.smoothness == "smooth" and np.isfinite(u.support_radius):
        evaluator = _tabulated(u, float(epsilon), profile, conv_grid)
    else:
        evaluator = lambda x, _u=u, _e=float(epsilon), _p=profile, _m=conv_grid: convolve(  # noqa: E731
            _u, _e, _p, x, _m
        )
    return ScalarField(
        label=f"conv(eps={epsilon},{u.label})",
        evaluator=evaluator,
        support_radius=u.support_radius + epsilon,
        smoothness="smooth",
    )


def star_convolve(
    v: PairField,
    profile: MollifierProfile,
    epsilon: float,
    x: np.ndarray,
    y: np.ndarray,
    conv_grid: int,
) -> np.ndarray:
    """Diagonal-shift convolution: int v(x - z, y - z) eta_eps(z) dz, for
    points x and y whose shapes broadcast to (..., n), of shape (...)."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    n = x.shape[-1]
    nodes = _star_nodes(profile, epsilon, n, conv_grid)
    return _mollify(v, (x.reshape(-1, n), y.reshape(-1, n)), nodes).reshape(x.shape[:-1])


def pipeline_rho(
    u: ScalarField,
    j: float,
    epsilon: float,
    cutoff: CutoffProfile,
    mollifier: MollifierProfile,
    conv_grid: int,
) -> ScalarField:
    """rho_eps = (tau_j u) * eta_eps: smooth with compact support.

    Points outside min(2j, supp u) + eps return exactly 0.  The truncation
    has bounded support, so when u is smooth ``convolve_field`` tabulates
    rho in r on its first call; each of the table's convolution nodes reads
    tau_j u, and when supp u lies in B_j, ``truncate`` hands back u's own
    evaluator, so it reads u alone, not the cutoff as well."""
    rho = convolve_field(truncate(u, j, cutoff), epsilon, mollifier, conv_grid)
    return replace(rho, label=f"rho(j={j},eps={epsilon},{u.label})")
