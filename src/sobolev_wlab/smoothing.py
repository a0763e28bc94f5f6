"""Approximation operators: truncation, mollification, diagonal-shift
convolution, and the cutoff-then-mollify pipeline.

Convolutions are deterministic quadrature (graded radial grid times an
angular rule), not Monte Carlo: their output is re-integrated by the norm
estimators, so pointwise noise must be negligible.  The discrete mollifier
weights are normalized to total mass exactly 1, which makes reproduction
of constants exact and keeps the unit-mass contract independent of the
grid resolution.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ParameterOutOfRange
from .fields import (
    CutoffProfile,
    MollifierProfile,
    PairField,
    ScalarField,
    cutoff_tau_j,
    multiply_cutoff,
)
from .params import row_norm
from .quadrature import _graded_half_grid

# most (point, node) pairs evaluated in one call of the convolved field
CONV_BLOCK = 1 << 20


def truncate(u: ScalarField, j: float, profile: CutoffProfile) -> ScalarField:
    """tau_j * u: equals u on B_j, vanishes outside B_{2j}."""
    return multiply_cutoff(u, cutoff_tau_j(profile, j))


@lru_cache(maxsize=32)
def conv_nodes(profile: MollifierProfile, epsilon: float, n: int, m: int):
    """Quadrature nodes Z (K, n) and weights W (K,) for integration against
    eta_eps over B_eps, with sum(W) == 1 exactly.

    Cached on the profile itself (a frozen dataclass), which the cache keeps
    alive, so a new profile never receives the nodes of a freed one."""
    if n != profile.n:
        raise ParameterOutOfRange(f"profile built for n={profile.n}, requested n={n}")
    if m < 1:
        raise ParameterOutOfRange(f"convolution grid needs at least 1 radial cell, got {m}")
    # mildly graded radial cells on (0, epsilon], finer toward 0
    r, wr = _graded_half_grid(epsilon, m, floor=1e-6 * epsilon)
    eta_vals = profile.radial_profile(r / epsilon)  # C eps^-n absorbed by normalization below
    if n == 1:
        z = np.concatenate([r, -r])[:, None]
        w = np.concatenate([wr * eta_vals, wr * eta_vals])
    elif n == 2:
        angles = 2.0 * np.pi * (np.arange(64) + 0.5) / 64.0
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)  # (64, 2)
        z = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
        w = (wr * r * eta_vals)[:, None].repeat(64, axis=1).reshape(-1)
    elif n == 3:
        mu, wmu = leggauss(8)
        phi = 2.0 * np.pi * (np.arange(16) + 0.5) / 16.0
        sin_t = np.sqrt(1.0 - mu**2)
        dirs = np.stack(
            [
                np.outer(sin_t, np.cos(phi)).ravel(),
                np.outer(sin_t, np.sin(phi)).ravel(),
                np.repeat(mu, 16),
            ],
            axis=1,
        )  # (128, 3)
        wdir = np.repeat(wmu, 16) / 16.0  # angular weights, total 2 over mu x full phi
        z = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
        w = ((wr * r**2 * eta_vals)[:, None] * wdir[None, :]).reshape(-1)
    else:
        raise ParameterOutOfRange(
            f"deterministic convolution is implemented for n <= 3, got n={n}"
        )
    w = w / np.sum(w)  # exact unit mass
    z.flags.writeable = w.flags.writeable = False  # shared by every caller
    return z, w


def _mollify(f, points: tuple, epsilon: float, profile: MollifierProfile, conv_grid: int) -> np.ndarray:
    """int f(p - z, ...) eta_eps(z) dz at each row p of the arrays in
    ``points``, all of shape (m, n): ``(x,)`` for a scalar field, ``(x, y)``
    for a pair field shifted along the diagonal.  Points are taken in blocks
    of at most CONV_BLOCK (point, node) pairs, so memory stays bounded.

    Each point's value is ``np.vecdot`` of its own K shifted values with the
    weights, a reduction whose rounding does not depend on the other points
    of its block (a BLAS matrix-vector product's does), so a point's value is
    the same whatever block or call it is evaluated in."""
    if epsilon <= 0:
        raise ParameterOutOfRange(f"epsilon must be positive, got {epsilon}")
    points = [np.atleast_2d(np.asarray(p, dtype=float)) for p in points]
    n = points[0].shape[-1]
    z, w = conv_nodes(profile, epsilon, n, conv_grid)
    out = np.empty(points[0].shape[0])
    block = max(1, CONV_BLOCK // len(w))
    for start in range(0, len(out), block):
        shifted = ((p[start : start + block, None, :] - z[None, :, :]).reshape(-1, n) for p in points)
        out[start : start + block] = np.vecdot(f(*shifted).reshape(-1, len(w)), w)
    return out


def convolve(
    u: ScalarField,
    epsilon: float,
    profile: MollifierProfile,
    x: np.ndarray,
    conv_grid: int,
) -> np.ndarray:
    """(u * eta_eps)(x) for an array of points x of shape (m, n).

    Exact 0 whenever dist(x, supp u) > eps (short-circuited by radius)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.zeros(x.shape[0])
    active = row_norm(x) <= u.support_radius + epsilon
    out[active] = _mollify(u, (x[active],), epsilon, profile, conv_grid)
    return out


def convolve_field(
    u: ScalarField,
    epsilon: float,
    profile: MollifierProfile,
    conv_grid: int,
) -> ScalarField:
    """u * eta_eps as a ScalarField (smooth, support enlarged by eps)."""
    return ScalarField(
        label=f"conv(eps={epsilon},{u.label})",
        evaluator=lambda x, _u=u, _e=float(epsilon), _p=profile, _m=conv_grid: convolve(
            _u, _e, _p, x, _m
        ),
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
    """Diagonal-shift convolution: int v(x - z, y - z) eta_eps(z) dz."""
    return _mollify(v, (x, y), epsilon, profile, conv_grid)


def star_convolve_field(
    v: PairField,
    profile: MollifierProfile,
    epsilon: float,
    conv_grid: int,
) -> PairField:
    return PairField(
        label=f"star(eps={epsilon},{v.label})",
        evaluator=lambda x, y, _v=v, _p=profile, _e=float(epsilon), _m=conv_grid: star_convolve(
            _v, _p, _e, x, y, _m
        ),
        x_support_radius=v.x_support_radius + epsilon,
    )


def pipeline_rho(
    u: ScalarField,
    j: float,
    epsilon: float,
    cutoff: CutoffProfile,
    mollifier: MollifierProfile,
    conv_grid: int,
) -> ScalarField:
    """rho_eps = (tau_j u) * eta_eps: smooth with compact support.

    Evaluation short-circuits by a distance check, so points outside
    min(2j, supp u) + eps return exactly 0."""
    rho = convolve_field(truncate(u, j, cutoff), epsilon, mollifier, conv_grid)
    return replace(rho, label=f"rho(j={j},eps={epsilon},{u.label})")
