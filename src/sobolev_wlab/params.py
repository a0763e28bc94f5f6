"""Space parameters, admissibility checks and the power weights.

The admissible parameter tuple is (n, s, p, a) with s in (0,1), p in
(1,inf), s*p < n and 0 <= a < (n - s*p)/2.  The derived exponents

    p_star = n*p / (n - s*p)        (critical integrability exponent)
    b      = 2*a*p_star / p         (weight exponent on the point norm)

are computed once at validation time and carried around, so every
downstream formula reads them from a single source.

Range checks are strict: boundary inputs are rejected with no epsilon
slack, because the estimates degenerate exactly at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import RangeViolation


@dataclass(frozen=True)
class SpaceParams:
    n: int
    s: float
    p: float
    a: float
    p_star: float
    b: float

    @property
    def sp(self) -> float:
        return self.s * self.p


@dataclass(frozen=True)
class GeneralWeightParams:
    alpha: float
    beta: float


class WeightKind(Enum):
    """The two concrete instantiations of the abstract weight Theta.

    PAIR acts on R^{2n} with Theta(x, y) = |x|^a |y|^a and diagonal shift
    map z -> (z, z); POINT acts on R^n with Theta(x) = |x|^b and identity
    shift map.
    """

    PAIR = "pair"
    POINT = "point"


def validate_params(n: int, s: float, p: float, a: float) -> SpaceParams:
    """Check (n, s, p, a) and return them with derived exponents attached."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise RangeViolation("n >= 1", f"dimension must be a positive integer, got {n!r}")
    if not (0.0 < s < 1.0):
        raise RangeViolation("0 < s < 1", f"fractional order s={s}")
    if not (p > 1.0):
        raise RangeViolation("p > 1", f"integrability exponent p={p}")
    if not (s * p < n):
        raise RangeViolation("s*p < n", f"s*p = {s * p} must be strictly below n = {n}")
    half_gap = (n - s * p) / 2.0
    if not (0.0 <= a < half_gap):
        raise RangeViolation(
            "0 <= a < (n - s*p)/2",
            f"a={a} outside [0, {half_gap})",
        )
    p_star = n * p / (n - s * p)
    b = 2.0 * a * p_star / p
    return SpaceParams(n=int(n), s=float(s), p=float(p), a=float(a), p_star=p_star, b=b)


def validate_general_weights(params: SpaceParams, alpha: float, beta: float) -> GeneralWeightParams:
    """Check the two-weight exponents: -s*p < alpha, beta < n and alpha + beta < n."""
    sp = params.sp
    if not (-sp < alpha < params.n):
        raise RangeViolation("-s*p < alpha < n", f"alpha={alpha} outside ({-sp}, {params.n})")
    if not (-sp < beta < params.n):
        raise RangeViolation("-s*p < beta < n", f"beta={beta} outside ({-sp}, {params.n})")
    if not (alpha + beta < params.n):
        raise RangeViolation("alpha + beta < n", f"alpha+beta={alpha + beta} >= n={params.n}")
    return GeneralWeightParams(alpha=float(alpha), beta=float(beta))


def row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis: the square root of the squared
    coordinates summed in order.

    For 1 to 7 coordinates this is numpy's own summation order, so the
    result equals ``np.linalg.norm(x, axis=-1)`` bit for bit for any memory
    layout; from 8 coordinates on numpy sums in blocks and the two differ at
    rounding level.  It avoids the temporary squared array and the generic
    reduction, which dominate the cost for few coordinates.
    """
    x = np.asarray(x, dtype=float)
    sq = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        col = x[..., i]
        sq += col * col
    return np.sqrt(sq)


def _pow_weight(r: np.ndarray, exponent: float) -> np.ndarray:
    """r^exponent, extended to r = 0 by +inf for a positive exponent (so its
    reciprocal is 0 there); a zero exponent gives identically 1."""
    if exponent == 0.0:
        return np.ones_like(r)
    with np.errstate(divide="ignore"):
        out = np.where(r > 0.0, r, 1.0) ** exponent
    return np.where(r > 0.0, out, np.inf)
