"""Every norm and seminorm of the space, as compositions of field + quadrature.

The seminorm is computed literally as the weighted pair norm of the
difference-quotient lift, so the bridge identity between the two holds
bit-exactly under common random numbers (same spec, same seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterOutOfRange
from .fields import PairField, ScalarField, lift_difference_quotient
from .params import GeneralWeightParams, SpaceParams
from .quadrature import (
    Estimate,
    FLAG_UNRELIABLE,
    METHOD_TENSOR_ORACLE,
    QuadratureSpec,
    _merge_flags,
    estimate_pair_integral_singular,
    estimate_weighted_integral_Rn,
    oracle_pair_integral_1d,
    oracle_weighted_integral_1d,
    pin_outer_radius,
    resolve_outer_radius,
    tensor_oracle_1d_available,
)


@dataclass(frozen=True)
class NormReport:
    seminorm: Estimate
    lpstar: Estimate
    full: float
    params: SpaceParams
    field_id: str


def _root(est: Estimate, power: float) -> Estimate:
    """x -> x^(1/power) with first-order delta-method error propagation."""
    inv = 1.0 / power
    raw = max(est.value, 0.0)
    value = raw**inv
    flags = est.flags
    if raw == 0.0:
        stderr = est.stderr**inv
    else:
        stderr = est.stderr * inv * raw ** (inv - 1.0)
        if est.stderr > 0.5 * raw:
            flags = _merge_flags(flags, (FLAG_UNRELIABLE,))
    return Estimate(
        value=float(value),
        stderr=float(stderr),
        samples_used=est.samples_used,
        spec_digest=est.spec_digest,
        tail_truncation_bound=est.tail_truncation_bound,
        flags=flags,
    )


def _oracle_x_max(spec: QuadratureSpec, support_radius: float, label: str) -> float:
    """The oracle's x range [-x_max, x_max], which must hold the field's
    finite support: the oracle integrates nothing beyond it."""
    R = spec.outer_radius
    if R is not None and np.isfinite(support_radius) and R < support_radius:
        raise ParameterOutOfRange(
            f"outer radius {R} is below the support radius {support_radius} of {label}; "
            "the tensor oracle would cut the field off"
        )
    return resolve_outer_radius(spec, support_radius)


def _pair_power_integral(v: PairField, params: SpaceParams, alpha: float, beta: float,
                         spec: QuadratureSpec, label: Optional[str] = None) -> Estimate:
    """Raw integral iint |v|^p |x|^(-alpha) |y|^(-beta) dx dy, by the tensor
    oracle or by Monte Carlo as the spec says; ``label`` keys the digest."""
    p = params.p
    label = label or f"|{v.label}|^{p}"

    def g(x, y, d=None):
        return np.abs(v(x, y, d)) ** p

    # every pair field is antisymmetric, v(y, x) == -v(x, y), so g is the
    # symmetric integrand both estimators require
    if spec.method == METHOD_TENSOR_ORACLE:
        tensor_oracle_1d_available(params.n)
        x_max = _oracle_x_max(spec, v.x_support_radius, v.label)
        return oracle_pair_integral_1d(
            g, alpha, beta, x_max=x_max, z_max=2.0 * x_max, spec=spec, label=label
        )
    return estimate_pair_integral_singular(
        g, n=params.n, alpha=alpha, beta=beta, sp=params.sp, spec=spec,
        x_support_radius=v.x_support_radius, kappa=params.p * (1.0 - params.s), label=label,
    )


def _power_integral(u: ScalarField, params: SpaceParams, spec: QuadratureSpec,
                    label: str) -> Estimate:
    """Raw integral int |u|^{p_star} |x|^(-b) dx, by the tensor oracle or by
    Monte Carlo as the spec says; ``label`` keys the digest."""
    pstar, b, n = params.p_star, params.b, params.n

    def f(x):
        return np.abs(u(x)) ** pstar

    if spec.method == METHOD_TENSOR_ORACLE:
        tensor_oracle_1d_available(n)
        x_max = _oracle_x_max(spec, u.support_radius, u.label)
        return oracle_weighted_integral_1d(f, b, x_max=x_max, spec=spec, label=label)
    rspec = pin_outer_radius(spec, u.support_radius)
    return estimate_weighted_integral_Rn(f, n=n, weight_exponent=b, spec=rspec, label=label)


def norm_lpaa_2n(v: PairField, params: SpaceParams, spec: QuadratureSpec) -> Estimate:
    """(iint |v|^p |x|^(-a) |y|^(-a) dx dy)^(1/p).

    v must be antisymmetric bit for bit, v(y, x) == -v(x, y), as every
    PairField the package builds is: the estimators score each unordered
    pair once."""
    raw = _pair_power_integral(v, params, params.a, params.a, spec)
    return _root(raw, params.p)


def seminorm_wspa(u: ScalarField, params: SpaceParams, spec: QuadratureSpec) -> Estimate:
    """The weighted Gagliardo seminorm, to the power 1/p."""
    return norm_lpaa_2n(lift_difference_quotient(u, params), params, spec)


def seminorm_general(
    u: ScalarField,
    params: SpaceParams,
    gw: GeneralWeightParams,
    spec: QuadratureSpec,
) -> Estimate:
    """Two-weight seminorm energy (the raw double integral, no 1/p root)."""
    return _pair_power_integral(
        lift_difference_quotient(u, params), params, gw.alpha, gw.beta, spec,
        label=f"general[{u.label}]",
    )


def norm_lpstar_a(u: ScalarField, params: SpaceParams, spec: QuadratureSpec) -> Estimate:
    """(int |u|^{p_star} |x|^(-b) dx)^(1/p_star)."""
    return _root(_power_integral(u, params, spec, f"lpstar[{u.label}]"), params.p_star)


def norm_full(u: ScalarField, params: SpaceParams, spec: QuadratureSpec) -> NormReport:
    semi = seminorm_wspa(u, params, spec)
    lp = norm_lpstar_a(u, params, spec)
    return NormReport(
        seminorm=semi,
        lpstar=lp,
        full=semi.value + lp.value,
        params=params,
        field_id=u.label,
    )
