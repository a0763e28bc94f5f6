from dataclasses import replace

import numpy as np
import pytest

from sobolev_wlab import (
    DegenerateDenominator,
    OracleUnavailable,
    ParameterOutOfRange,
    QuadratureSpec,
    WeightKind,
    check_averaged_weight_bound,
    check_commutation_identity,
    check_convolution_bound,
    check_finiteness_smooth,
    check_maximal_bound,
    check_sobolev_inequality,
    gaussian_field,
    hat_1d_field,
    lift_difference_quotient,
    norm_lpstar_a,
    polynomial_tail_field,
    run_clipping_convergence,
    run_density_experiment,
    run_mollification_convergence,
    run_truncation_convergence,
    singular_spike_field,
    smooth_bump_field,
    validate_general_weights,
    validate_params,
    zero_field,
)
from sobolev_wlab import smoothing, verification
from sobolev_wlab.fields import PairField, default_mollifier
from sobolev_wlab.norms import _pair_power_integral
from sobolev_wlab.quadrature import METHOD_TENSOR_ORACLE, _ball_points, ball_average, pin_outer_radius
from sobolev_wlab.verification import reciprocal_weight_integrand


def pair_constant(c: float) -> PairField:
    """Constant on all of R^{2n}."""
    return PairField(
        label=f"pair_constant(c={c})",
        evaluator=lambda x, y, d=None: np.full(x.shape[:-1], float(c)),
        x_support_radius=np.inf,
    )


def test_averaged_bound_a_zero_is_ball_volume():
    params = validate_params(2, 0.5, 2.0, 0.0)
    rep = check_averaged_weight_bound(WeightKind.PAIR, params, trials=40, seed=3)
    assert rep["measured_constant"] == pytest.approx(np.pi)
    assert rep["verdict"] == "BoundedStable"


def test_averaged_bound_reproducible():
    params = validate_params(2, 0.5, 2.0, 0.3)
    a = check_averaged_weight_bound(WeightKind.PAIR, params, trials=60, seed=5)
    b = check_averaged_weight_bound(WeightKind.PAIR, params, trials=60, seed=5)
    assert a["measured_constant"] == b["measured_constant"]
    assert a["witness"] == b["witness"]


@pytest.mark.parametrize("kind,constant,first_half,trial", [
    (WeightKind.PAIR, "0x1.93b53ce5ad363p+1", "0x1.9270d8e84c0dbp+1", 43),
    (WeightKind.POINT, "0x1.98b6da6f21b29p+1", "0x1.96ab2d7fe8932p+1", 43),
])
def test_averaged_bound_refines_each_candidate_once(kind, constant, first_half, trial, monkeypatch):
    """One ball average per trial and one per distinct refined candidate,
    with the record that refining each top-16 list on its own gave."""
    calls = []
    original = verification.ball_average

    def counting(f, n, r, spec, label=""):
        calls.append(spec)
        return original(f, n, r, spec, label=label)

    monkeypatch.setattr(verification, "ball_average", counting)
    trials, seed = 60, 5
    params = validate_params(2, 0.5, 2.0, 0.1)
    rep = check_averaged_weight_bound(kind, params, trials=trials, seed=seed)
    refined = [spec.seed for spec in calls if spec.samples > verification.WEIGHT_INNER_SAMPLES * 64]
    assert len(refined) == len(set(refined))
    assert len(calls) == trials + len(set(refined))
    # the two top-16 lists overlap here, so refining each list apart would
    # have made 32 refinement calls
    assert len(refined) < 32
    assert rep["measured_constant"] == float.fromhex(constant)
    assert rep["details"]["max_first_half"] == float.fromhex(first_half)
    assert rep["witness"]["trial"] == trial


def test_averaged_bound_scale_covariance():
    """|x|^c * ball-average of |x + z|^(-c) is invariant under
    (x, r) -> (lx, lr), for the pair exponent 2a and the point exponent b."""
    params = validate_params(2, 0.5, 2.0, 0.3)
    x = np.array([0.7, -0.2])
    for c in (2.0 * params.a, params.b):
        for lam in (0.5, 2.0):
            prods = []
            for scale, r in ((1.0, 0.8), (lam, lam * 0.8)):
                X = scale * x
                f = reciprocal_weight_integrand(c, X)
                # common random numbers via shared seed; the z-samples rescale
                # exactly with r, so only MC noise differs
                est = ball_average(f, 2, r, QuadratureSpec(samples=64000, seed=11))
                prods.append(float(np.linalg.norm(X)) ** c * est.value)
            assert abs(prods[0] - prods[1]) <= 0.05 * prods[0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_product_is_at_most_the_point_products_geometric_mean(n):
    """The reduction of the pair weight to the point weight at c = 2a: on one
    shared batch of ball points z, Cauchy-Schwarz bounds the empirical pair
    product |x|^a |y|^a mean(|x+z|^(-a) |y+z|^(-a)) by sqrt(P(x) P(y)), with
    P the point product at c = 2a, and the two agree on the diagonal."""
    a = 0.3
    rng = np.random.default_rng(n)

    def point_product(x, z):
        return np.linalg.norm(x) ** (2 * a) * reciprocal_weight_integrand(2 * a, x)(z).mean()

    for _ in range(200):
        x, y = (rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2) for _ in range(2))
        z = _ball_points(rng.random(256), rng.standard_normal((256, n)), 10.0 ** rng.uniform(-2, 2))
        f_x, f_y = (reciprocal_weight_integrand(a, w)(z) for w in (x, y))
        pair = (np.linalg.norm(x) * np.linalg.norm(y)) ** a * (f_x * f_y).mean()
        assert pair <= np.sqrt(point_product(x, z) * point_product(y, z)) * (1 + 1e-12)
        diagonal = np.linalg.norm(x) ** (2 * a) * (f_x * f_x).mean()
        assert diagonal == pytest.approx(point_product(x, z), rel=1e-12)


def test_reciprocal_weight_integrand_zero_point_convention():
    """At z = -x the integrand is 0 for c > 0 (the weight is +inf there) and
    1 for c = 0."""
    x = np.array([0.5, -1.0])
    z = np.array([[-0.5, 1.0], [0.0, 0.0]])
    zero, away = reciprocal_weight_integrand(0.4, x)(z)
    assert zero == 0.0 and away == pytest.approx(1.25 ** -0.2)
    assert reciprocal_weight_integrand(0.0, x)(z).tolist() == [1.0, 1.0]


def test_maximal_bound_zero_field(params1d, fast_spec, monkeypatch):
    monkeypatch.setattr(verification, "MAXIMAL_RADII", (1.0,))
    rep = check_maximal_bound(pair_constant(0.0), params1d, fast_spec)
    assert rep["measured_constant"] == 0.0


def test_maximal_bound_finite(params1d, fast_spec):
    V = lift_difference_quotient(hat_1d_field(), params1d)
    rep = check_maximal_bound(V, params1d, fast_spec)
    assert rep["verdict"] == "BoundedStable"
    assert np.isfinite(rep["measured_constant"])


def test_maximal_bound_refuses_the_oracle(params1d, oracle_spec, monkeypatch):
    """An oracle spec is refused before any sample is drawn, not answered by
    Monte Carlo."""
    monkeypatch.setattr(verification, "_fold_chunks", lambda *args: pytest.fail("drew samples"))
    V = lift_difference_quotient(hat_1d_field(), params1d)
    with pytest.raises(OracleUnavailable, match="tensor-oracle"):
        check_maximal_bound(V, params1d, replace(oracle_spec, samples=6400))


def test_star_bound_degenerate_denominator(params1d, fast_spec):
    for kind in WeightKind:
        with pytest.raises(DegenerateDenominator):
            check_convolution_bound(kind, zero_field(), params1d, fast_spec, 128)


def test_star_bound_point_case(params1d, fast_spec, monkeypatch):
    monkeypatch.setattr(verification, "CONVOLUTION_EPSILONS", (0.5, 0.1))
    rep = check_convolution_bound(WeightKind.POINT, gaussian_field(), params1d, fast_spec, 96)
    assert rep["verdict"] == "BoundedStable"
    assert all(v <= 1.25 for v in rep["details"]["ratios"].values())


def _star_route_ratios(u, params, spec, conv_grid):
    """prop-4.4's ratios with the smoothed entry taken as the diagonal-shift
    convolution of the lift, (Du) star eta_eps by ``star_convolve``, instead
    of the lift of the convolution: the reference route of the identity."""
    spec = pin_outer_radius(spec, u.support_radius)
    v = lift_difference_quotient(u, params)
    eta = default_mollifier(params.n)

    def energy(w):
        return _pair_power_integral(w, params, params.a, params.a, spec).value

    def star(eps):
        return PairField(
            label=f"star(eps={eps},{v.label})",
            evaluator=lambda x, y, d=None: smoothing.star_convolve(v, eta, eps, x, y, conv_grid),
            x_support_radius=v.x_support_radius + eps,
        )

    den = energy(v)
    return {str(float(eps)): energy(star(eps)) / den for eps in verification.CONVOLUTION_EPSILONS}


@pytest.mark.parametrize("n,spec,conv_grid,rel", [
    (1, QuadratureSpec(samples=6400, seed=7), 32, 1e-12),
    (1, QuadratureSpec(method=METHOD_TENSOR_ORACLE, grid_points=64), 32, 1e-12),
    (2, QuadratureSpec(samples=6400, seed=7), 16, 1e-5),
], ids=["n1", "n1-oracle", "n2"])
def test_pair_bound_matches_the_star_route(n, spec, conv_grid, rel):
    """prop-4.4 smooths u and lifts it, D(u * eta_eps); the star route
    convolves the lift, (Du) star eta_eps, on the same radial nodes.  The
    two agree up to the angular rules of the two convolutions, which in
    n = 2 differ by up to about 5e-5 of a value at eps = 1 (16 aligned
    nodes against 64 angles): these ratios differ by 1.3e-6 at eps = 1
    here, and by 2.2e-5 on the 1,024 samples of the same seed."""
    params = validate_params(n, 0.3, 2.0, 0.1)
    u = smooth_bump_field(1.0)
    rep = check_convolution_bound(WeightKind.PAIR, u, params, spec, conv_grid)
    star = _star_route_ratios(u, params, spec, conv_grid)
    assert rep["details"]["field"] == lift_difference_quotient(u, params).label
    assert rep["details"]["ratios"] == pytest.approx(star, rel=rel, abs=0.0)


@pytest.mark.parametrize("kind", list(WeightKind))
def test_convolution_bound_negative_control(kind, params1d, monkeypatch):
    """A mollifier of mass 1.3 scales the smoothed field by 1.3 and its
    energy by 1.3^p (pair) or 1.3^p* (point), so the bound must fail: the
    ratio at eps = 0.1, which is about 1 at unit mass, rises far past the
    1.25 cap.  The module-level conv_nodes is patched, so no unit-mass node
    set of its cache is read."""
    spec = QuadratureSpec(samples=6400, seed=7)
    u = smooth_bump_field(1.0)
    assert check_convolution_bound(kind, u, params1d, spec, 32)["verdict"] == "BoundedStable"
    unit_mass = smoothing.conv_nodes

    def heavy(*args):
        z, w = unit_mass(*args)
        return z, 1.3 * w

    monkeypatch.setattr(smoothing, "conv_nodes", heavy)
    rep = check_convolution_bound(kind, u, params1d, spec, 32)
    assert rep["verdict"] == "Unstable"
    assert rep["details"]["ratios"]["0.1"] > 1.5


def test_commutation_identity_all_catalog(params1d):
    for u in (smooth_bump_field(1.0), gaussian_field(), hat_1d_field()):
        rep = check_commutation_identity(u, params1d, 0.2, 7, 96)
        assert rep["verdict"] == "Pass"
        assert rep["max_residual"] < 1e-10


def test_truncation_ladder_and_negative_control(params1d, fast_spec):
    u = polynomial_tail_field(3.0)
    fwd = run_truncation_convergence(u, params1d, [1, 2, 4, 8], fast_spec)
    assert fwd["verdict"] == "Decreasing"
    assert fwd["errors"][-1].value <= 0.1 * fwd["errors"][0].value
    rev = run_truncation_convergence(u, params1d, [8, 4, 2, 1], fast_spec)
    assert rev["verdict"] == "NonMonotone"


def test_truncation_exact_zero_for_compact_support(params1d, fast_spec):
    u = smooth_bump_field(1.0)
    rep = run_truncation_convergence(u, params1d, [1, 2], fast_spec)
    assert rep["errors"][0].value == 0.0  # tau_1 == 1 on supp u
    assert rep["verdict"] == "Decreasing"


def test_mollification_ladder(params1d, fast_spec):
    rep = run_mollification_convergence(hat_1d_field(), params1d, [1, 0.5, 0.25, 0.1, 0.05], fast_spec, 96)
    assert rep["verdict"] == "Decreasing"


def test_mollification_zero_field(params1d, fast_spec):
    rep = run_mollification_convergence(zero_field(), params1d, [0.5, 0.25], fast_spec, 64)
    assert all(e.value == 0.0 for e in rep["errors"])
    assert rep["verdict"] == "Decreasing"


def test_clipping_ladder(params1d, fast_spec):
    spike = singular_spike_field(0.2, 1.0, params1d)
    v = lift_difference_quotient(spike, params1d)
    rep = run_clipping_convergence(v, params1d, [1, 4, 16, 64], fast_spec)
    assert rep["verdict"] == "Decreasing"
    single = run_clipping_convergence(v, params1d, [4], fast_spec)
    assert single["verdict"] == "Decreasing"  # vacuously


def test_clipping_bounded_field_zero_error(params1d, fast_spec):
    v = pair_constant(0.5)
    rep = run_clipping_convergence(v, params1d, [1.0], fast_spec)
    assert rep["errors"][0].value == 0.0


def test_density_experiment_success(params1d, fast_spec):
    from sobolev_wlab import norm_full

    u = polynomial_tail_field(3.0)
    delta = 0.2 * norm_full(u, params1d, fast_spec).full
    rep = run_density_experiment(u, params1d, delta, fast_spec, 96)
    assert rep["verdict"] == "Success"
    assert rep["rho_support_radius"] <= 2 * rep["j"] + rep["epsilon"] + 1e-12
    assert rep["achieved_error_bound"] < delta


def test_density_experiment_budget_failure(params1d, fast_spec, monkeypatch):
    monkeypatch.setattr(verification, "DENSITY_MAX_STEPS", 2)
    u = polynomial_tail_field(3.0)
    rep = run_density_experiment(u, params1d, 1e-12, fast_spec, 64)
    assert rep["verdict"] == "FailureAtBudget"
    assert rep["max_steps"] == 2


def test_finiteness_grid(params1d, fast_spec):
    grid = [validate_general_weights(params1d, al, be)
            for al in (-0.3, 0.0, 0.4) for be in (-0.3, 0.0, 0.4)]
    rep = check_finiteness_smooth(smooth_bump_field(1.0), params1d, grid, fast_spec)
    assert rep["verdict"] == "AllStable"
    with pytest.raises(ParameterOutOfRange):
        check_finiteness_smooth(hat_1d_field(), params1d, grid, fast_spec)


def test_sobolev_inequality(params1d, fast_spec):
    rep = check_sobolev_inequality([smooth_bump_field(1.0)], params1d, fast_spec)
    assert rep["verdict"] == "BoundedStable"
    assert np.isfinite(rep["measured_constant"]) and rep["measured_constant"] > 0
    with pytest.raises(DegenerateDenominator):
        check_sobolev_inequality([zero_field()], params1d, fast_spec)


def test_prop_4_5_energies_use_the_oracle(params1d, oracle_spec, monkeypatch):
    """Under the oracle the scalar energies are the oracle's, whatever the
    Monte Carlo budget and seed say."""
    monkeypatch.setattr(verification, "CONVOLUTION_EPSILONS", (0.5,))
    u = smooth_bump_field(1.0)
    reps = [
        check_convolution_bound(WeightKind.POINT, u, params1d, replace(oracle_spec, samples=samples, seed=seed), 32)
        for samples, seed in ((6400, 1), (64000, 2))
    ]
    assert reps[0]["details"] == reps[1]["details"]
    den = reps[0]["details"]["denominator_energy"]
    assert den == pytest.approx(norm_lpstar_a(u, params1d, oracle_spec).value ** params1d.p_star, rel=1e-12)
