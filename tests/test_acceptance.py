"""Acceptance gate: one test per release criterion, each printing a
single pass/fail line with its pinned tolerance.

Fixture parameter note: several criteria were originally stated with
(s, p) = (0.5, 2) in dimension 1, where s*p = n makes the critical
exponent undefined and the admissible range for `a` empty.  Those
combinations must be rejected by validation (criterion tests assert
exactly that) and the quantitative substance of each criterion runs on
nearby admissible combinations in the same dimension.
"""

import json

import numpy as np
import pytest

from sobolev_wlab import (
    QuadratureSpec,
    RangeViolation,
    WeightKind,
    check_averaged_weight_bound,
    check_commutation_identity,
    check_convolution_bound,
    check_finiteness_smooth,
    check_sobolev_inequality,
    gaussian_field,
    hat_1d_field,
    lift_difference_quotient,
    norm_full,
    norm_lpaa_2n,
    norm_lpstar_a,
    polynomial_tail_field,
    run_density_experiment,
    run_mollification_convergence,
    run_truncation_convergence,
    seminorm_wspa,
    smooth_bump_field,
    validate_general_weights,
    validate_params,
    zero_field,
)
from sobolev_wlab.cli import main
from sobolev_wlab.fields import default_cutoff, default_mollifier
from sobolev_wlab.quadrature import METHOD_TENSOR_ORACLE

FIELDS_1D = {
    "hat_1d": hat_1d_field,
    "smooth_bump(1)": lambda: smooth_bump_field(1.0),
    "gaussian": gaussian_field,
}

# admissible stand-ins for the inadmissible (0.5, 2, *) combinations in n=1
INADMISSIBLE_COMBOS = [(0.5, 2.0, 0.0), (0.5, 2.0, 0.2)]
VALID_COMBOS = [(0.3, 2.0, 0.1), (0.3, 2.0, 0.0), (0.4, 2.0, 0.05)]

MC_BUDGET = 1_000_000
ORACLE_GRID = 2048
SEED = 101


def test_criterion_01_oracle_agreement(acceptance_line):
    """MC estimates agree with the 1-d tensor oracle within 3*(stderr sum)."""
    for s, p, a in INADMISSIBLE_COMBOS:
        with pytest.raises(RangeViolation):
            validate_params(1, s, p, a)
    worst = 0.0
    ok = True
    mc_spec = QuadratureSpec(samples=MC_BUDGET, seed=SEED)
    or_spec = QuadratureSpec(method=METHOD_TENSOR_ORACLE, grid_points=ORACLE_GRID)
    for s, p, a in VALID_COMBOS:
        params = validate_params(1, s, p, a)
        for name, make in FIELDS_1D.items():
            u = make()
            for fn in (seminorm_wspa, norm_lpstar_a):
                em = fn(u, params, mc_spec)
                eo = fn(u, params, or_spec)
                tol = 3.0 * (em.stderr + eo.stderr)
                gap = abs(em.value - eo.value)
                worst = max(worst, gap / max(tol, 1e-300))
                ok = ok and gap <= tol
    acceptance_line(
        f"[criterion-01] oracle agreement (9 fixtures, tol 3*(stderr_mc+stderr_oracle), "
        f"worst gap/tol {worst:.2f}): {'PASS' if ok else 'FAIL'}"
    )
    assert ok


def test_criterion_02_bridge_identity(acceptance_line):
    """Pair norm of the lift equals the seminorm bit-exactly under CRN."""
    ok = True
    spec = QuadratureSpec(samples=64000, seed=SEED)
    for s, p, a in VALID_COMBOS:
        params = validate_params(1, s, p, a)
        for make in FIELDS_1D.values():
            u = make()
            semi = seminorm_wspa(u, params, spec)
            pair = norm_lpaa_2n(lift_difference_quotient(u, params), params, spec)
            ok = ok and semi.value == pair.value and semi.stderr == pair.stderr
    acceptance_line(f"[criterion-02] bridge identity (bit-exact under CRN): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_03_commutation_identity(acceptance_line):
    """Residual over 100 random pairs <= 2e-4 relative, every bounded field."""
    params = validate_params(1, 0.3, 2.0, 0.1)
    fields = [zero_field(), gaussian_field(), smooth_bump_field(1.0), hat_1d_field(),
              polynomial_tail_field(3.0)]
    worst = 0.0
    ok = True
    for u in fields:
        rep = check_commutation_identity(u, params, 0.2, SEED, 128)
        ok = ok and rep["verdict"] == "Pass"
        worst = max(worst, rep["max_residual"] / max(rep["reference_scale"], 1e-300))
    acceptance_line(
        f"[criterion-03] commutation identity (100 pairs, tol 2e-4 relative, "
        f"worst {worst:.2e}): {'PASS' if ok else 'FAIL'}"
    )
    assert ok


def _exact_averaged_weight_constant_n2(c: float) -> float:
    """sup over rho of F_c(rho) = rho^c * int_{B_1(rho e1)} |w|^(-c) dw in
    n = 2, by circles |w| = t: the whole circle for t < 1 - rho, and the
    arc 2 arccos((t^2 + rho^2 - 1) / (2 t rho)) for |1 - rho| < t < 1 + rho."""
    from scipy.integrate import quad
    from scipy.optimize import minimize_scalar

    def F(rho):
        def arc(t):
            return 2.0 * np.arccos(np.clip((t * t + rho * rho - 1.0) / (2.0 * t * rho), -1.0, 1.0))

        inner = 2.0 * np.pi * (1.0 - rho) ** (2.0 - c) / (2.0 - c) if rho < 1.0 else 0.0
        outer, _ = quad(lambda t: t ** (1.0 - c) * arc(t), abs(1.0 - rho), 1.0 + rho,
                        epsabs=0.0, epsrel=1e-12, limit=200)
        return rho ** c * (inner + outer)

    res = minimize_scalar(lambda rho: -F(rho), bounds=(0.25, 2.0), method="bounded",
                          options={"xatol": 1e-10})
    return -res.fun


def test_criterion_04_averaged_weight_bound(acceptance_line):
    """(n,s,p,a)=(2,0.5,2,0.3), 1e4 trials over 6 decades -> BoundedStable,
    near the exact sup of the point product at c = 2a (pair) and c = b
    (point); a=0 gives exactly the unit-ball volume pi for both weight kinds."""
    params = validate_params(2, 0.5, 2.0, 0.3)
    params0 = validate_params(2, 0.5, 2.0, 0.0)
    # POINT has c = b = 1.2 > n/2, so |x + z|^(-c) has infinite variance on
    # the ball: the refined ball averages are heavy-tailed, and their max
    # overshoots the exact sup (5.1652 against 5.10778, +1.1%); PAIR's
    # c = 2a = 0.6 < n/2 has finite variance
    tolerance = {WeightKind.PAIR: 0.005, WeightKind.POINT: 0.015}
    exponent = {WeightKind.PAIR: 2.0 * params.a, WeightKind.POINT: params.b}
    ok = True
    consts = {}
    exact = {}
    for kind in (WeightKind.PAIR, WeightKind.POINT):
        rep = check_averaged_weight_bound(kind, params, trials=10_000, seed=SEED)
        consts[kind.value] = rep["measured_constant"]
        exact[kind.value] = _exact_averaged_weight_constant_n2(exponent[kind])
        ok = ok and rep["verdict"] == "BoundedStable"
        ok = ok and abs(consts[kind.value] / exact[kind.value] - 1.0) <= tolerance[kind]
        rep0 = check_averaged_weight_bound(kind, params0, trials=1000, seed=SEED)
        ok = ok and abs(rep0["measured_constant"] - np.pi) <= 1e-12
    acceptance_line(
        f"[criterion-04] averaged weight bound (1e4 trials, constants "
        f"pair {consts['pair']:.4f} (exact {exact['pair']:.5f}, tol 0.5%) "
        f"point {consts['point']:.4f} (exact {exact['point']:.5f}, tol 1.5%), a=0 == pi): "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert ok


def test_criterion_05_convolution_bounds(acceptance_line):
    """Energy ratios finite and within 25% of the unit bound across eps."""
    params = validate_params(1, 0.3, 2.0, 0.1)
    spec = QuadratureSpec(samples=64000, seed=SEED)
    ok = True
    maxima = {}
    for label, kind in (("lift(gaussian)", WeightKind.PAIR), ("gaussian", WeightKind.POINT)):
        rep = check_convolution_bound(kind, gaussian_field(), params, spec, 96)
        vals = list(rep["details"]["ratios"].values())
        ok = ok and rep["verdict"] == "BoundedStable" and max(vals) <= 1.25
        maxima[label] = max(vals)
    acceptance_line(
        f"[criterion-05] convolution bounds (ratio cap 1.25, max pair "
        f"{maxima['lift(gaussian)']:.3f} point {maxima['gaussian']:.3f}): "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert ok


def test_criterion_06_truncation_convergence(acceptance_line):
    """polynomial_tail(3) ladder {1..16} decreasing with final <= 0.1*initial;
    exact zero for compact support once the cutoff plateau covers it."""
    for s, p, a in INADMISSIBLE_COMBOS[1:]:
        with pytest.raises(RangeViolation):
            validate_params(1, s, p, a)
    params = validate_params(1, 0.3, 2.0, 0.1)
    spec = QuadratureSpec(samples=128000, seed=SEED)
    rep = run_truncation_convergence(polynomial_tail_field(3.0), params, [1, 2, 4, 8, 16], spec)
    vals = [e.value for e in rep["errors"]]
    ok = rep["verdict"] == "Decreasing" and vals[-1] <= 0.1 * vals[0]
    compact = run_truncation_convergence(smooth_bump_field(1.0), params, [1, 2], spec)
    ok = ok and all(e.value == 0.0 for e in compact["errors"])
    acceptance_line(
        f"[criterion-06] truncation convergence (final/initial "
        f"{vals[-1] / vals[0]:.4f} <= 0.1, compact-support zeros exact): "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert ok


def test_criterion_07_mollification_convergence(acceptance_line):
    params = validate_params(1, 0.3, 2.0, 0.1)
    spec = QuadratureSpec(samples=64000, seed=SEED)
    ok = True
    ratios = {}
    for name, u in (("smooth_bump", smooth_bump_field(1.0)), ("hat_1d", hat_1d_field())):
        rep = run_mollification_convergence(u, params, [1, 0.5, 0.25, 0.1, 0.05], spec, 96)
        vals = [e.value for e in rep["errors"]]
        ok = ok and rep["verdict"] == "Decreasing" and vals[-1] <= 0.1 * vals[0]
        ratios[name] = vals[-1] / vals[0]
    acceptance_line(
        f"[criterion-07] mollification convergence (final/initial "
        f"bump {ratios['smooth_bump']:.4f} hat {ratios['hat_1d']:.4f} <= 0.1): "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert ok


def test_criterion_08_density_end_to_end(acceptance_line):
    params = validate_params(1, 0.3, 2.0, 0.1)
    spec = QuadratureSpec(samples=64000, seed=SEED)
    u = polynomial_tail_field(3.0)
    delta = 0.2 * norm_full(u, params, spec).full
    rep = run_density_experiment(u, params, delta, spec, 96)
    ok = rep["verdict"] == "Success"
    if ok:
        from sobolev_wlab import pipeline_rho

        rho = pipeline_rho(u, rep["j"], rep["epsilon"], default_cutoff(), default_mollifier(1), 96)
        bound = 2.0 * rep["j"] + rep["epsilon"]
        ok = ok and rho.smoothness == "smooth" and rho.support_radius <= bound + 1e-12
        rng = np.random.default_rng(SEED)
        pts = (bound + 1e-9 + rng.exponential(10.0, size=100_000))[:, None]
        pts *= np.sign(rng.standard_normal((100_000, 1)))
        ok = ok and bool(np.all(rho(pts) == 0.0))
    acceptance_line(
        f"[criterion-08] density end-to-end (delta 0.2*norm, j={rep.get('j')}, "
        f"eps={rep.get('epsilon')}, exact support on 1e5 points): {'PASS' if ok else 'FAIL'}"
    )
    assert ok


def test_criterion_09_finiteness_grid(acceptance_line):
    params = validate_params(1, 0.3, 2.0, 0.1)
    spec = QuadratureSpec(samples=MC_BUDGET, seed=SEED)
    axis = np.linspace(-0.54, 0.44, 5)
    grid = [validate_general_weights(params, float(al), float(be)) for al in axis for be in axis]
    rep = check_finiteness_smooth(smooth_bump_field(1.0), params, grid, spec)
    ok = rep["verdict"] == "AllStable" and rep["unstable_count"] == 0
    acceptance_line(
        f"[criterion-09] finiteness grid (5x5 admissible weights at 1e6 samples, "
        f"{rep['unstable_count']} unstable): {'PASS' if ok else 'FAIL'}"
    )
    assert ok


def test_criterion_10_reproducibility(acceptance_line, tmp_path):
    base = ["--n", "1", "--s", "0.3", "--p", "2", "--a", "0.1",
            "--samples", "32000", "--seed", "17"]
    ok = True
    for cmd in (["norm", *base], ["verify", "lemma-3.1", *base, "--ladder", "1,2,4"]):
        texts = []
        for run in ("a", "b"):
            out = tmp_path / f"{cmd[0]}_{cmd[1] if cmd[0] == 'verify' else ''}{run}"
            assert main([*cmd, "--out", str(out)]) == 0
            (path,) = list(out.glob("*.json"))
            data = json.loads(path.read_text())
            data.pop("timestamp")
            data["config"].pop("out")
            texts.append(json.dumps(data, sort_keys=True))
        ok = ok and texts[0] == texts[1]
    acceptance_line(
        f"[criterion-10] reproducibility (rerun from config byte-identical "
        f"minus timestamp): {'PASS' if ok else 'FAIL'}"
    )
    assert ok
