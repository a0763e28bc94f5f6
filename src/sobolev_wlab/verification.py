"""One experiment per quantitative statement: averaged weight bounds,
maximal bounds, convolution bounds, the commutation identity, and the
convergence ladders for truncation, mollification, clipping and the full
density pipeline.

Pass thresholds (stderr < 25% of value, final <= 0.1 * initial,
stabilization window = last half of trials with 5% slack) are artifact
choices recorded in every report.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from .errors import DegenerateDenominator, OracleUnavailable, ParameterOutOfRange
from .fields import (
    CutoffProfile,
    MollifierProfile,
    PairField,
    ScalarField,
    ball_volume,
    clip_to_level,
    dilate,
    lift_difference_quotient,
    pair_subtract,
    subtract,
)
from .norms import (
    _pair_power_integral,
    _power_integral,
    norm_full,
    norm_lpaa_2n,
    norm_lpstar_a,
    seminorm_general,
    seminorm_wspa,
)
from .params import GeneralWeightParams, SpaceParams, WeightKind, _pow_weight, row_norm
from .quadrature import (
    Estimate,
    FLAG_UNSTABLE,
    METHOD_TENSOR_ORACLE,
    N_CHUNKS,
    QuadratureSpec,
    _RadialMixture,
    _ball_points,
    _chunk_rng,
    _directions,
    _fold_chunks,
    _merge_flags,
    ball_average,
    pin_outer_radius,
    resolve_outer_radius,
)
from .smoothing import convolve_field, pipeline_rho, star_convolve_field, truncate

STABILIZATION_SLACK = 0.05
FINAL_OVER_INITIAL = 0.1
# log10 range of the radii drawn by the averaged weight bound
DECADES = (-3.0, 3.0)
# ball points per chunk in each witness's first average of the weight bound
WEIGHT_INNER_SAMPLES = 64
# unit-ball offsets shared by the outer points of a chunk in the maximal bound
MAXIMAL_INNER_SAMPLES = 512
# averaging radii over which the maximal bound takes its largest ratio
MAXIMAL_RADII = (0.1, 1.0, 10.0)
# mollifier widths at which the convolution bounds compare energies
CONVOLUTION_EPSILONS = (1.0, 0.5, 0.1)
# random off-diagonal pairs at which the commutation identity is checked
COMMUTATION_POINTS = 100
COMMUTATION_REL_TOL = 1e-4
# rungs each search of the density experiment tries before it gives up
DENSITY_MAX_STEPS = 12
# dilations under which the Sobolev ratio must stay put
SOBOLEV_SCALES = (0.5, 2.0)


def _if_sampled(spec: QuadratureSpec, value):
    """``value`` (a Monte Carlo budget or seed) as a record states it: none
    under the tensor oracle, which draws no samples."""
    return None if spec.method == METHOD_TENSOR_ORACLE else value


def _full_norm_estimate(u: ScalarField, params: SpaceParams, spec: QuadratureSpec) -> Estimate:
    rep = norm_full(u, params, spec)
    return Estimate(
        value=rep.full,
        stderr=rep.seminorm.stderr + rep.lpstar.stderr,
        samples_used=rep.seminorm.samples_used + rep.lpstar.samples_used,
        spec_digest=rep.seminorm.spec_digest,
        flags=_merge_flags(rep.seminorm.flags, rep.lpstar.flags),
    )


def _truncation_error(u, j, cutoff, params, spec) -> Estimate:
    return _full_norm_estimate(subtract(u, truncate(u, j, cutoff)), params, spec)


def _mollification_error(u, eps, mollifier, conv_grid, params, spec) -> Estimate:
    return _full_norm_estimate(subtract(u, convolve_field(u, eps, mollifier, conv_grid)), params, spec)


def _ladder_report(statement_id: str, knob: str, ladder: Sequence[float],
                   error_at: Callable[[float], Estimate], params: SpaceParams, details: dict) -> dict:
    """The errors along the ladder; "Decreasing" when each step stays within
    two stderrs of the one before and the last error is at most
    FINAL_OVER_INITIAL of the first (a single rung passes vacuously)."""
    errors = [error_at(k) for k in ladder]
    vals = [e.value for e in errors]
    monotone = all(
        vals[i + 1] <= vals[i] + 2.0 * (errors[i].stderr + errors[i + 1].stderr)
        for i in range(len(vals) - 1)
    )
    if vals[0] == 0.0:
        ratio = 0.0
        shrunk = True
    else:
        ratio = vals[-1] / vals[0]
        shrunk = ratio <= FINAL_OVER_INITIAL
    passed = len(vals) == 1 or (monotone and shrunk)
    return {
        "statement_id": statement_id,
        "knob": knob,
        "ladder": list(map(float, ladder)),
        "errors": errors,
        "verdict": "Decreasing" if passed else "NonMonotone",
        "final_over_initial": ratio,
        "params": params,
        "details": details,
    }


# ---------------------------------------------------------------------------
# averaged weight bound (the one-sided A1-type condition)


def reciprocal_weight_integrand(c: float, X: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """z -> |X + z|^(-c), vectorized over z of shape (m, n); 0 where X + z = 0
    and c > 0, the power weight's convention of +inf at a zero point."""

    def f(z: np.ndarray) -> np.ndarray:
        w = _pow_weight(row_norm(X + z), c)
        return np.where(np.isfinite(w), 1.0 / np.where(w > 0, w, 1.0), 0.0)

    return f


def check_averaged_weight_bound(
    kind: WeightKind,
    params: SpaceParams,
    trials: int,
    seed: int,
) -> dict:
    """Sample (x, r) log-uniformly over the DECADES and measure the sup of
    |x|^c * (ball average of |x + z|^(-c)).

    The point weight |x|^b (prop-4.2) has c = b.  The pair weight
    |x|^a |y|^a (prop-4.1) has c = 2a: by Cauchy-Schwarz its product at
    (x, y) is at most the geometric mean of the point products at x and y,
    with equality on the diagonal y = x, so its sup is the point one and
    its witness is recorded as (x, x).
    """
    if trials < 1:
        raise ParameterOutOfRange(f"the averaged weight bound needs at least 1 trial, got {trials}")
    n = params.n
    if kind is WeightKind.PAIR:
        sid, c, copies = "prop-4.1", 2.0 * params.a, 2
    else:
        sid, c, copies = "prop-4.2", params.b, 1
    rng = _chunk_rng(seed, 1_000_003)
    lo, hi = DECADES
    witnesses = []
    for _ in range(trials):
        rx = 10.0 ** rng.uniform(lo, hi)
        r = 10.0 ** rng.uniform(lo, hi)
        witnesses.append((_directions(rng, 1, n)[0] * rx, r))

    def product(j: int, samples: int, stream: int) -> float:
        """|x|^c * (ball average) at witness j, from the given stream."""
        x, r = witnesses[j]
        f = reciprocal_weight_integrand(c, x)
        est = ball_average(f, n, r, QuadratureSpec(samples=samples, seed=stream), label=sid)
        return float(_pow_weight(row_norm(x), c)) * est.value

    inner = WEIGHT_INNER_SAMPLES * N_CHUNKS
    products = np.array([product(j, inner, seed + j) for j in range(trials)])
    # the heavy right tail of the singular ball averages makes single-trial
    # maxima overshoot; re-estimate the top candidates of all trials and of
    # the first half with a much larger inner budget, each candidate once, so
    # the verdict compares the landscape, not the per-trial noise
    refine = inner * 32
    top_k = min(16, trials)
    top_all = [int(j) for j in np.argsort(products)[::-1][:top_k]]
    top_first = [int(j) for j in np.argsort(products[: trials // 2])[::-1][:top_k]]
    refined = {j: product(j, refine, seed + trials + j) for j in dict.fromkeys(top_all + top_first)}
    # max keeps the first of equal values, so the earliest candidate in
    # descending-product order wins a tie
    idx = max(top_all, key=refined.__getitem__)
    max_all = refined[idx]
    max_first = max(refined[j] for j in top_first) if top_first else max_all
    stable = max_all <= (1.0 + STABILIZATION_SLACK) * max_first
    wx, wr = witnesses[idx]
    return {
        "statement_id": sid,
        "measured_constant": max_all,
        "witness": {"X": list(map(float, wx)) * copies, "r": float(wr), "trial": idx},
        "trials": trials,
        "verdict": "BoundedStable" if stable else "Unstable",
        "params": params,
        "seed": seed,
        "details": {
            "kind": kind.value,
            "max_first_half": max_first,
            "unit_ball_volume": ball_volume(n),
            "inner_samples": inner,
            "refined_inner_samples": refine,
            "top_candidates_refined": top_k,
            "decades": list(DECADES),
            "stabilization_slack": STABILIZATION_SLACK,
        },
    }


# ---------------------------------------------------------------------------
# maximal bound


def check_maximal_bound(V: PairField, params: SpaceParams, spec: QuadratureSpec) -> dict:
    """Ratio of the averaged-function energy to the plain energy under the
    pair weight, both in L^p, maximized over MAXIMAL_RADII.  Monte Carlo
    only."""
    if spec.method == METHOD_TENSOR_ORACLE:
        raise OracleUnavailable("lemma-4.3 is Monte Carlo only; it has no tensor-oracle path")
    n, a, q = params.n, params.a, params.p
    mix = _RadialMixture(n=n, c=a, R=resolve_outer_radius(spec, V.x_support_radius), t=params.sp)

    # common random numbers: one fixed batch of outer points for every
    # radius, and per chunk one batch of unit-ball offsets shared by its points
    def draw(rng, m):
        x = _directions(rng, m, n) * mix.sample_radii(rng, m)[:, None]
        y = _directions(rng, m, n) * mix.sample_radii(rng, m)[:, None]
        g = rng.standard_normal((MAXIMAL_INNER_SAMPLES, n))  # normals before uniforms
        zu = _ball_points(rng.random(MAXIMAL_INNER_SAMPLES), g, 1.0)
        return x, y, np.broadcast_to(zu, (m, MAXIMAL_INNER_SAMPLES, n))

    def evaluate(x, y, zu):
        # rows: the plain energy density, then the averaged one per radius
        rx = row_norm(x)
        ry = row_norm(y)
        qdens = mix.density(rx) * mix.density(ry)
        theta_inv = rx ** (-a) * ry ** (-a)
        rows = [np.abs(V(x, y)) ** q * theta_inv / qdens]
        for r in MAXIMAL_RADII:
            pz = zu * r
            px = (x[:, None, :] - pz).reshape(-1, n)
            py = (y[:, None, :] - pz).reshape(-1, n)
            avgs = np.abs(V(px, py)).reshape(len(x), -1).mean(axis=1) * ball_volume(n)
            rows.append(avgs**q * theta_inv / qdens)
        return np.stack(rows)

    energies = _fold_chunks(spec, draw, evaluate).mean(axis=1)
    rhs = float(energies[0])
    ratios = {float(r): float(e) / rhs if rhs > 0 else 0.0 for r, e in zip(MAXIMAL_RADII, energies[1:])}
    measured = max(ratios.values()) if rhs > 0 else 0.0
    finite = all(np.isfinite(v) for v in ratios.values())
    return {
        "statement_id": "lemma-4.3",
        "measured_constant": float(measured),
        "witness": {"r": max(ratios, key=ratios.get) if ratios else None},
        "trials": spec.samples,
        "verdict": "BoundedStable" if finite else "Unstable",
        "params": params,
        "seed": spec.seed,
        "details": {
            "q": q,
            "ratios": {str(k): v for k, v in ratios.items()},
            "rhs_energy": rhs,
            "field": V.label,
        },
    }


# ---------------------------------------------------------------------------
# convolution bounds


def check_star_convolution_bound(
    entry: Union[PairField, ScalarField],
    params: SpaceParams,
    profile: MollifierProfile,
    spec: QuadratureSpec,
    conv_grid: int,
) -> dict:
    """Ratio of the weighted energy of the mollified field to the energy of
    the field itself, with common random numbers, at each of
    CONVOLUTION_EPSILONS."""
    is_pair = isinstance(entry, PairField)
    spec = pin_outer_radius(spec, entry.x_support_radius if is_pair else entry.support_radius)

    def energy(field):
        if is_pair:
            return _pair_power_integral(field, params, params.a, params.a, spec)
        return _power_integral(field, params, spec, field.label)

    den = energy(entry)
    if den.value <= 0.0:
        raise DegenerateDenominator(f"zero denominator energy for {entry.label}")
    ratios = {}
    for eps in CONVOLUTION_EPSILONS:
        if is_pair:
            smoothed = star_convolve_field(entry, profile, eps, conv_grid)
        else:
            smoothed = convolve_field(entry, eps, profile, conv_grid)
        ratios[float(eps)] = energy(smoothed).value / den.value
    vals = list(ratios.values())
    # the claim is a uniform-in-eps energy bound; for a unit-mass mollifier
    # Jensen gives constant 1 up to the weight constant, so the cap is 1.25
    cap = 1.25
    variation = max(abs(v - 1.0) for v in vals)
    stable = all(np.isfinite(v) for v in vals) and max(vals) <= cap
    return {
        "statement_id": "prop-4.4" if is_pair else "prop-4.5",
        "measured_constant": float(max(vals)),
        "witness": {"epsilon": max(ratios, key=ratios.get)},
        "trials": _if_sampled(spec, spec.samples),
        "verdict": "BoundedStable" if stable else "Unstable",
        "params": params,
        "seed": _if_sampled(spec, spec.seed),
        "details": {
            "ratios": {str(k): v for k, v in ratios.items()},
            "variation_from_unity": float(variation),
            "ratio_cap": cap,
            "denominator_energy": den.value,
            "field": entry.label,
        },
    }


# ---------------------------------------------------------------------------
# commutation identity


def check_commutation_identity(
    u: ScalarField,
    params: SpaceParams,
    epsilon: float,
    seed: int,
    mollifier: MollifierProfile,
    conv_grid: int,
) -> dict:
    """Max residual between the diagonal-shift convolution of the lift and the
    lift of the convolution, at COMMUTATION_POINTS random off-diagonal pairs."""
    n, points = params.n, COMMUTATION_POINTS
    rng = _chunk_rng(seed, 424242)
    scale = min(u.support_radius if np.isfinite(u.support_radius) else 2.0, 5.0) + epsilon
    x = rng.standard_normal((points, n)) * scale
    gap = 0.05 * scale + np.abs(rng.standard_normal(points)) * scale
    y = x + _directions(rng, points, n) * gap[:, None]

    v = lift_difference_quotient(u, params)
    lhs = star_convolve_field(v, mollifier, epsilon, conv_grid)(x, y)
    u_eps = convolve_field(u, epsilon, mollifier, conv_grid)
    rhs = lift_difference_quotient(u_eps, params)(x, y)
    residual = float(np.max(np.abs(lhs - rhs)))
    ref = max(float(np.max(np.abs(rhs))), 1e-12)
    tolerance = 2.0 * COMMUTATION_REL_TOL * ref
    return {
        "statement_id": "eq-6.4",
        "field": u.label,
        "epsilon": epsilon,
        "points": points,
        "seed": seed,
        "max_residual": residual,
        "reference_scale": ref,
        "tolerance": tolerance,
        "verdict": "Pass" if residual <= tolerance else "Fail",
    }


# ---------------------------------------------------------------------------
# convergence ladders


def run_truncation_convergence(
    u: ScalarField,
    params: SpaceParams,
    j_ladder: Sequence[float],
    spec: QuadratureSpec,
    cutoff: CutoffProfile,
) -> dict:
    spec = pin_outer_radius(spec, u.support_radius)
    return _ladder_report(
        "lemma-3.1", "j", j_ladder,
        lambda j: _truncation_error(u, j, cutoff, params, spec), params, {"field": u.label},
    )


def run_mollification_convergence(
    u: ScalarField,
    params: SpaceParams,
    eps_ladder: Sequence[float],
    spec: QuadratureSpec,
    mollifier: MollifierProfile,
    conv_grid: int,
) -> dict:
    spec = pin_outer_radius(spec, u.support_radius)
    return _ladder_report(
        "lemma-6.1", "epsilon", eps_ladder,
        lambda eps: _mollification_error(u, eps, mollifier, conv_grid, params, spec),
        params, {"field": u.label, "conv_grid": conv_grid},
    )


def run_clipping_convergence(
    v: PairField,
    params: SpaceParams,
    M_ladder: Sequence[float],
    spec: QuadratureSpec,
) -> dict:
    # the ladder increases in M, so "decreasing" means errors shrink as M grows
    spec = pin_outer_radius(spec, v.x_support_radius)
    return _ladder_report(
        "lemma-5.1", "M", M_ladder,
        lambda M: norm_lpaa_2n(pair_subtract(v, clip_to_level(v, M)), params, spec),
        params, {"field": v.label},
    )


def run_density_experiment(
    u: ScalarField,
    params: SpaceParams,
    delta: float,
    spec: QuadratureSpec,
    cutoff: CutoffProfile,
    mollifier: MollifierProfile,
    conv_grid: int,
) -> dict:
    """The end-to-end schedule: find j with truncation error below delta/2 by
    doubling, then epsilon with mollification error below delta/2 by halving."""
    if delta <= 0:
        raise ParameterOutOfRange("delta must be positive")
    spec = pin_outer_radius(spec, u.support_radius)
    head = {"statement_id": "theorem-1.1", "field": u.label, "delta": delta}

    def search(error_at, knob, step):
        """The first of knob, knob * step, ... (DENSITY_MAX_STEPS of them)
        whose error is below delta/2, with that error; (None, None) if none
        is."""
        for _ in range(DENSITY_MAX_STEPS):
            est = error_at(knob)
            if est.value < delta / 2.0:
                return knob, est
            knob *= step
        return None, None

    def failure(stage, **found):
        return {**head, "verdict": "FailureAtBudget", "stage": stage, **found, "max_steps": DENSITY_MAX_STEPS}

    j, trunc_err = search(lambda j: _truncation_error(u, j, cutoff, params, spec), 1.0, 2.0)
    if j is None:
        return failure("truncation")
    w = truncate(u, j, cutoff)
    eps, moll_err = search(
        lambda eps: _mollification_error(w, eps, mollifier, conv_grid, params, spec), 1.0, 0.5
    )
    if eps is None:
        return failure("mollification", j=j)
    rho = pipeline_rho(u, j, eps, cutoff, mollifier, conv_grid)
    return {
        **head,
        "verdict": "Success",
        "j": j,
        "epsilon": eps,
        "truncation_error": trunc_err,
        "mollification_error": moll_err,
        "achieved_error_bound": trunc_err.value + moll_err.value,
        "rho_support_radius": rho.support_radius,
        "rho_smoothness": rho.smoothness,
    }


# ---------------------------------------------------------------------------
# finiteness grid and the Sobolev inequality


def estimate_unstable(est: Estimate) -> bool:
    """Whether an estimate cannot back a passing verdict: it is non-finite
    or its chunk stderr exceeds a quarter of its value."""
    return (not np.isfinite(est.value)) or (FLAG_UNSTABLE in est.flags)


def check_finiteness_smooth(
    u: ScalarField,
    params: SpaceParams,
    gw_grid: Sequence[GeneralWeightParams],
    spec: QuadratureSpec,
) -> dict:
    if u.smoothness != "smooth" or not np.isfinite(u.support_radius):
        raise ParameterOutOfRange("finiteness check needs a smooth compactly supported field")
    spec = pin_outer_radius(spec, u.support_radius)
    entries = []
    unstable = 0
    for gw in gw_grid:
        est = seminorm_general(u, params, gw, spec)
        flagged = estimate_unstable(est)
        unstable += int(flagged)
        entries.append(
            {
                "alpha": gw.alpha,
                "beta": gw.beta,
                "value": est.value,
                "stderr": est.stderr,
                "unstable": flagged,
            }
        )
    return {
        "statement_id": "lemma-2.1",
        "field": u.label,
        "grid": entries,
        "unstable_count": unstable,
        "verdict": "AllStable" if unstable == 0 else "Unstable",
        "seed": _if_sampled(spec, spec.seed),
    }


def check_sobolev_inequality(
    fields: Sequence[ScalarField],
    params: SpaceParams,
    spec: QuadratureSpec,
) -> dict:
    ratios = []
    scale_checks = []

    def ratio_of(field: ScalarField):
        sp_ = pin_outer_radius(spec, field.support_radius)
        semi = seminorm_wspa(field, params, sp_)
        lp = norm_lpstar_a(field, params, sp_)
        if semi.value <= 0.0:
            raise DegenerateDenominator(f"zero seminorm for {field.label}")
        r = lp.value / semi.value
        sigma = r * np.sqrt(
            (lp.stderr / lp.value) ** 2 + (semi.stderr / semi.value) ** 2
            if lp.value > 0
            else (semi.stderr / semi.value) ** 2
        )
        return r, float(sigma)

    for u in fields:
        r0, s0 = ratio_of(u)
        ratios.append({"field": u.label, "ratio": r0, "stderr": s0})
        for lam in SOBOLEV_SCALES:
            rl, sl = ratio_of(dilate(u, lam))
            tol = 3.0 * (s0 + sl) + 0.02 * r0
            scale_checks.append(
                {
                    "field": u.label,
                    "lambda": lam,
                    "ratio": rl,
                    "deviation": abs(rl - r0),
                    "tolerance": tol,
                    "ok": bool(abs(rl - r0) <= tol),
                }
            )
            ratios.append({"field": f"dilate({lam},{u.label})", "ratio": rl, "stderr": sl})
    measured = max(r["ratio"] for r in ratios)
    stable = all(c["ok"] for c in scale_checks) and np.isfinite(measured)
    best = max(ratios, key=lambda r: r["ratio"])
    return {
        "statement_id": "sobolev-ineq",
        "measured_constant": float(measured),
        "witness": {"field": best["field"]},
        "trials": len(ratios),
        "verdict": "BoundedStable" if stable else "Unstable",
        "params": params,
        "seed": _if_sampled(spec, spec.seed),
        "details": {"ratios": ratios, "scale_checks": scale_checks},
    }
