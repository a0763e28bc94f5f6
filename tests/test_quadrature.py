import json
import threading
from dataclasses import asdict

import numpy as np
import pytest

from sobolev_wlab import (
    Estimate,
    NonNormalizableDensity,
    OracleUnavailable,
    ParameterOutOfRange,
    QuadratureSpec,
    ScalarField,
    ball_average,
    estimate_pair_integral_singular,
    estimate_weighted_integral_Rn,
    gaussian_field,
    hat_1d_field,
    lift_difference_quotient,
    norm_full,
    oracle_pair_integral_1d,
    oracle_weighted_integral_1d,
    pipeline_rho,
    polynomial_tail_field,
    quadrature,
    seminorm_general,
    seminorm_wspa,
    smooth_bump_field,
    validate_general_weights,
    validate_params,
)
from sobolev_wlab import norms
from sobolev_wlab.fields import PairField, default_cutoff, default_mollifier, subtract
from sobolev_wlab.quadrature import (
    METHOD_TENSOR_ORACLE,
    _RadialMixture,
    _chunk_rng,
    _switch_stream,
    resolve_outer_radius,
    tensor_oracle_1d_available,
)
from sobolev_wlab.reporting import canonical_json


def indicator_ball(x):
    return (np.linalg.norm(x, axis=1) <= 1.0).astype(float)


def test_spec_validation():
    with pytest.raises(ParameterOutOfRange):
        QuadratureSpec(samples=10)
    with pytest.raises(ParameterOutOfRange):  # not a multiple of the 64 chunks
        QuadratureSpec(samples=1000)
    with pytest.raises(ParameterOutOfRange):
        QuadratureSpec(grid_points=8)
    with pytest.raises(ParameterOutOfRange):
        QuadratureSpec(method="simpson")
    # the proposal covers R^n only for a finite outer radius of at least 1
    for radius in (0.0, -2.0, 0.5, np.nan, np.inf):
        with pytest.raises(ParameterOutOfRange, match="covers R\\^n"):
            QuadratureSpec(outer_radius=radius)
    assert QuadratureSpec(outer_radius=1.0).outer_radius == 1.0


def test_digest_distinguishes():
    a = QuadratureSpec(seed=1).digest("f")
    assert a != QuadratureSpec(seed=2).digest("f")
    assert a != QuadratureSpec(seed=1).digest("g")
    assert a == QuadratureSpec(seed=1).digest("f")


def test_oracle_closed_form_singular():
    # int_{-1}^{1} |x|^(-1/2) dx = 4
    est = oracle_weighted_integral_1d(
        lambda x: (np.abs(x[..., 0]) <= 1).astype(float), 0.5, x_max=1.0,
        spec=QuadratureSpec(method=METHOD_TENSOR_ORACLE, grid_points=2048),
    )
    assert est.value == pytest.approx(4.0, abs=1e-3)
    assert abs(est.value - 4.0) <= 5 * max(est.stderr, 1e-4)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
def test_oracle_critical_integral_unbiased():
    """The n = 1 critical integral of polynomial_tail(3) at c = b = 0.6
    (s = 0.3, p = 2, a = 0.12) lies within 3 refinement stderrs of an
    adaptive reference.  It reads about 4e-4 low, some 50 stderrs: the
    innermost sliver [0, 1e-8] takes the midpoint of x^(-c), which every
    uncapped grid reaches alike, so the bias cancels out of |fine - mid|."""
    from scipy.integrate import quad

    params = validate_params(1, 0.3, 2.0, 0.12)
    u = polynomial_tail_field(3.0)
    est = oracle_weighted_integral_1d(
        lambda x: np.abs(u(x)) ** params.p_star, params.b, 50.0,
        QuadratureSpec(method=METHOD_TENSOR_ORACLE, grid_points=4096),
    )
    radial = lambda r: abs(float(u(np.array([r])))) ** params.p_star
    half, _ = quad(radial, 0.0, 50.0, weight="alg", wvar=(-params.b, 0.0), epsabs=0.0, epsrel=1e-13,
                   limit=200)
    assert abs(est.value - 2.0 * half) <= 3.0 * est.stderr


def test_oracle_pair_closed_form():
    # iint (exp(-x^2) + exp(-y^2))/2 |z|^(-1/2) 1_{|z|<=1} dx dz = 2 * 2 * sqrt(pi)
    def g(x, y, d=None):
        z = np.abs((y - x)[..., 0])
        inside = (z <= 1.0) & (z > 0)
        bump = 0.5 * (np.exp(-x[..., 0] ** 2) + np.exp(-y[..., 0] ** 2))
        return bump * np.where(inside, np.where(z > 0, z, 1.0) ** -0.5, 0.0)

    exact = 4 * np.sqrt(np.pi)
    spec = QuadratureSpec(method=METHOD_TENSOR_ORACLE, grid_points=1024)
    est = oracle_pair_integral_1d(g, 0.0, 0.0, x_max=12.0, z_max=1.0, spec=spec)
    assert est.value == pytest.approx(exact, rel=2e-3)


def test_oracle_availability():
    tensor_oracle_1d_available(1)
    with pytest.raises(OracleUnavailable):
        tensor_oracle_1d_available(2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mc_ball_volume(n):
    from sobolev_wlab.fields import ball_volume

    spec = QuadratureSpec(samples=64000, seed=4, outer_radius=2.0)
    est = estimate_weighted_integral_Rn(indicator_ball, n, 0.0, spec)
    assert abs(est.value - ball_volume(n)) <= 4 * est.stderr


def test_mc_weighted_singular():
    spec = QuadratureSpec(samples=64000, seed=5, outer_radius=2.0)
    est = estimate_weighted_integral_Rn(indicator_ball, 1, 0.5, spec)
    assert abs(est.value - 4.0) <= 4 * est.stderr


def test_mc_determinism():
    spec = QuadratureSpec(samples=32000, seed=9, outer_radius=2.0)
    a = estimate_weighted_integral_Rn(indicator_ball, 2, 0.3, spec)
    b = estimate_weighted_integral_Rn(indicator_ball, 2, 0.3, spec)
    assert a == b  # bit-identical rerun


def test_mc_seed_sensitivity_and_spread():
    spec = lambda seed: QuadratureSpec(samples=32000, seed=seed, outer_radius=2.0)
    vals = [estimate_weighted_integral_Rn(indicator_ball, 2, 0.3, spec(s)).value for s in range(5)]
    assert len(set(vals)) == 5
    est = estimate_weighted_integral_Rn(indicator_ball, 2, 0.3, spec(0))
    assert np.std(vals) < 10 * est.stderr


def test_mc_budget_scaling():
    small = estimate_weighted_integral_Rn(
        indicator_ball, 2, 0.3, QuadratureSpec(samples=16000, seed=3, outer_radius=2.0)
    )
    big = estimate_weighted_integral_Rn(
        indicator_ball, 2, 0.3, QuadratureSpec(samples=256000, seed=3, outer_radius=2.0)
    )
    assert big.stderr < small.stderr


def test_pair_mc_matches_oracle():
    def g(x, y):
        z = np.abs((y - x)[..., 0])
        inside = (z <= 1.0) & (z > 0)
        bump = 0.5 * (np.exp(-x[..., 0] ** 2) + np.exp(-y[..., 0] ** 2))
        return bump * np.where(inside, np.where(z > 0, z, 1.0) ** -0.5, 0.0)

    exact = 4 * np.sqrt(np.pi)
    est = estimate_pair_integral_singular(
        g, n=1, alpha=0.0, beta=0.0, sp=0.6,
        spec=QuadratureSpec(samples=256000, seed=3), x_support_radius=np.inf, kappa=0.5,
    )
    assert abs(est.value - exact) <= 4 * est.stderr


def test_pair_mc_no_truncation_bound():
    def g(x, y):
        return np.exp(-np.sum(x * x, axis=-1) - np.sum((y - x) ** 2, axis=-1))

    est = estimate_pair_integral_singular(
        g, n=1, alpha=0.1, beta=0.1, sp=0.6,
        spec=QuadratureSpec(samples=16000, seed=1), x_support_radius=np.inf, kappa=0.8,
    )
    assert est.tail_truncation_bound == 0.0


def test_pair_mc_negative_weights_need_positive_tail():
    with pytest.raises(NonNormalizableDensity):
        estimate_pair_integral_singular(
            lambda x, y: np.zeros(x.shape[0]), n=1, alpha=-0.7, beta=0.0, sp=0.6,
            spec=QuadratureSpec(samples=16000, seed=1), kappa=0.5,
        )


def test_ball_average_constant():
    est = ball_average(lambda z: np.ones(z.shape[0]), 2, 3.0, QuadratureSpec(samples=16000, seed=8))
    assert est.value == pytest.approx(np.pi)
    assert est.stderr == 0.0


def test_ball_average_golden():
    """64 samples per chunk, all chunks in one group: the value and stderr
    are pinned to the bit, so a change of the chunk engine must keep them."""
    est = ball_average(
        lambda z: np.exp(-np.sum(z * z, axis=1)), 2, 1.5, QuadratureSpec(samples=4096, seed=7)
    )
    assert (est.value.hex(), est.stderr.hex()) == ("0x1.3b9f99960a14ap+0", "0x1.89ba145c8810ep-7")


@pytest.mark.parametrize("group_points", [1 << 11, 1 << 16])
def test_ball_average_independent_of_grouping(monkeypatch, group_points):
    """2,048 samples per chunk: one, two (the default) or all 32 chunks of a
    half in one group give the same estimate to the bit."""

    def run():
        f = lambda z: 1.0 / (0.1 + np.sum(z * z, axis=1))  # noqa: E731
        return ball_average(f, 2, 0.7, QuadratureSpec(samples=1 << 17, seed=11))

    default = run()
    monkeypatch.setattr(quadrature, "GROUP_POINTS", group_points)
    assert run() == default


@pytest.mark.parametrize("group_points", [1 << 11, 1 << 16])
def test_convolved_norm_independent_of_grouping(monkeypatch, group_points):
    """1,024 samples per chunk: two, four (the default) or all 64 chunks in
    one group give the same norm of u - rho, a convolved field, to the bit."""
    params = validate_params(1, 0.3, 2.0, 0.1)
    u = polynomial_tail_field(3.0)
    rho = pipeline_rho(u, 2.0, 0.1, default_cutoff(), default_mollifier(1), 32)

    def run():
        return norm_full(subtract(u, rho), params, QuadratureSpec(samples=1 << 16, seed=3))

    default = run()
    monkeypatch.setattr(quadrature, "GROUP_POINTS", group_points)
    assert run() == default


def test_resolve_outer_radius():
    spec = QuadratureSpec()
    assert resolve_outer_radius(spec, 1.0) == 11.0
    assert resolve_outer_radius(spec, np.inf) == 50.0
    assert resolve_outer_radius(QuadratureSpec(outer_radius=7.0), 1.0) == 7.0


def test_chunk_rng_independent_streams():
    a = _chunk_rng(1, 0).random(4)
    b = _chunk_rng(1, 1).random(4)
    c = _chunk_rng(1, 0).random(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, c)


def test_switch_stream_matches_fresh_philox():
    """A generator moved to stream (seed, chunk) draws exactly what a fresh
    Philox keyed [seed mod 2^64, chunk] draws, whatever it drew before."""
    rng = np.random.Generator(np.random.Philox(key=[11, 12]))
    for seed, chunk in ((0, 0), (7, 63), (2**64 + 5, 1_000_003), (3, 424242)):
        # leave a half-used 32-bit word and a partly used buffer behind
        rng.integers(0, 2**32, size=3, dtype=np.uint32)
        rng.standard_normal()
        _switch_stream(rng, seed, chunk)
        fresh = np.random.Generator(np.random.Philox(key=[seed % 2**64, chunk]))
        for draw in (
            lambda g: g.integers(0, 2**32, size=5, dtype=np.uint32),
            lambda g: g.random(7),
            lambda g: g.standard_normal((3, 2)),
            lambda g: g.integers(0, 2**32, size=1, dtype=np.uint32),
            lambda g: g.random(65),
        ):
            assert np.array_equal(draw(rng), draw(fresh))


def test_mixture_densities_normalized():
    from scipy.integrate import quad
    from sobolev_wlab.fields import sphere_area

    for mix, n in ((_RadialMixture(n=2, c=0.3, R=5.0, t=1.2), 2),
                   (_RadialMixture(n=1, c=0.2, R=1.0, t=0.6), 1)):
        omega = sphere_area(n)
        total, _ = quad(lambda r: omega * r ** (n - 1) * mix.density(np.array([r]))[0], 0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)


def _near_far_radii(rng, m, kappa, t):
    """The pair estimator's z radii written in their radial index kappa:
    u^(1/kappa) on B_1 or the Pareto tail u^(-1/t), by a fair coin."""
    take_near = rng.random(m) < 0.5
    u = np.maximum(rng.random(m), 1e-300)
    return np.where(take_near, u ** (1.0 / kappa), u ** (-1.0 / t))


def _near_far_density(r, n, kappa, t):
    """Their density: kappa/omega r^(kappa - n) on B_1, half and half with
    the tail's t/omega r^(-t - n) on r >= 1."""
    from sobolev_wlab.fields import sphere_area

    omega = sphere_area(n)
    q_near = np.where(r <= 1.0, kappa / omega * r ** (kappa - n), 0.0)
    q_far = np.where(r >= 1.0, t / omega * r ** (-t - n), 0.0)
    return 0.5 * q_near + 0.5 * q_far


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kappa", [1.4, 2.25, 1.0])
def test_z_proposal_matches_its_radial_index_form_to_the_bit(kappa, n):
    """The z proposal is the ball mixture at c = n - kappa, R = 1, and
    wherever n - (n - kappa) == kappa in binary, as for every kappa = p(1 - s)
    of the goldens and the benchmark, it draws and weighs to the bit what
    the kappa form does."""
    t = 0.6
    assert n - (n - kappa) == kappa
    mix = _RadialMixture(n=n, c=n - kappa, R=1.0, t=t)
    r = mix.sample_radii(_chunk_rng(11, 3), 4096)
    assert np.array_equal(r, _near_far_radii(_chunk_rng(11, 3), 4096, kappa, t))
    r = np.concatenate([r, [1.0, 1e-12]])
    assert np.array_equal(mix.density(r), _near_far_density(r, n, kappa, t))


def test_z_proposal_matches_its_radial_index_form_at_rounding_level():
    """Where n - (n - kappa) != kappa (n = 2, s = 0.1, p = 1.1) the two forms
    take exponents an ulp apart, so radii and densities agree to rounding."""
    n, kappa, t = 2, 1.1 * (1.0 - 0.1), 0.6
    assert n - (n - kappa) != kappa
    mix = _RadialMixture(n=n, c=n - kappa, R=1.0, t=t)
    r = mix.sample_radii(_chunk_rng(11, 3), 4096)
    ref = _near_far_radii(_chunk_rng(11, 3), 4096, kappa, t)
    np.testing.assert_allclose(r, ref, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(mix.density(ref), _near_far_density(ref, n, kappa, t), rtol=1e-12, atol=0.0)


def test_estimate_roundtrip_dict():
    est = Estimate(value=1.0, stderr=0.1, samples_used=100, spec_digest="ab", flags=("x",))
    d = json.loads(canonical_json(asdict(est)))
    assert d["value"] == 1.0 and d["flags"] == ["x"]


def test_one_instability_rule_for_every_estimate(monkeypatch):
    """EstimateUnstable marks a nonzero value whose error bar exceeds a
    quarter of |value|; the chunk fold and both oracles take their flags
    from that one rule, each with its own error bar."""
    flags = lambda value, stderr: quadrature._estimate(value, stderr, 64, "d").flags
    assert flags(1.0, 0.25) == flags(0.0, 1.0) == ()
    assert flags(1.0, 0.26) == flags(-1.0, 0.26) == (quadrature.FLAG_UNSTABLE,)
    rule, seen = quadrature._estimate, []

    def spy(value, stderr, samples_used, digest):
        seen.append((value, stderr))
        return rule(value, stderr, samples_used, digest)

    monkeypatch.setattr(quadrature, "_estimate", spy)
    oracle = QuadratureSpec(method=METHOD_TENSOR_ORACLE, grid_points=64)
    ests = [
        ball_average(lambda z: np.ones(len(z)), 1, 1.0, QuadratureSpec(samples=6400)),
        oracle_weighted_integral_1d(lambda x: np.exp(-x[..., 0] ** 2), 0.5, 4.0, oracle),
        oracle_pair_integral_1d(lambda x, y, d=None: np.exp(-x[..., 0] ** 2 - y[..., 0] ** 2),
                                0.0, 0.0, 4.0, 8.0, oracle),
    ]
    assert seen == [(e.value, e.stderr) for e in ests]


# ---------------------------------------------------------------------------
# the pair estimators score each unordered pair of a symmetric g once


def _lift_power(u, params):
    v = lift_difference_quotient(u, params)
    return lambda x, y, d=None: np.abs(v(x, y, d)) ** params.p


def _pair_mc(g, params, alpha, beta, samples):
    return estimate_pair_integral_singular(
        g, n=params.n, alpha=alpha, beta=beta, sp=params.sp,
        spec=QuadratureSpec(samples=samples, seed=5), kappa=params.p * (1.0 - params.s),
        x_support_radius=1.0,
    )


@pytest.mark.parametrize("n,alpha,beta,value,stderr", [
    (1, 0.1, 0.1, 1.3399963224909541, 0.05460475719253998),
    (1, 0.2, 0.0, 1.3842436019172029, 0.05662641021194443),
    (2, 0.1, 0.1, 3.5722412111203488, 0.5266698088034318),
    (2, 0.2, 0.0, 3.560013308414362, 0.4713782428653533),
])
def test_pair_mc_golden(n, alpha, beta, value, stderr):
    """The estimates that evaluating g(x, y) and g(y, x) apart gave, to the
    bit: reusing g(x, y) for the swapped order changes no estimate."""
    params = validate_params(n, 0.3, 2.0, 0.1)
    est = _pair_mc(_lift_power(smooth_bump_field(1.0), params), params, alpha, beta, 6400)
    assert (est.value, est.stderr) == (value, stderr)


def _two_part_tensor_sum(g, alpha, beta, x_max, cells):
    """The oracle's tensor sum with both parts on the full z grid, part 2
    evaluating g(u - z, u) itself: the reference for the half-grid sum."""
    zm, zw = quadrature._graded_half_grid(2.0 * x_max, cells)
    wm, ww = quadrature._graded_half_grid(0.5 / x_max, cells // 2)
    z = np.concatenate([zm, 1.0 / wm, -zm, -1.0 / wm])
    wz = np.tile(np.concatenate([zw, ww / (wm * wm)]), 2)
    um, uw = quadrature._graded_half_grid(x_max, cells, floor=1e-6)
    u, uw = np.concatenate([um, -um])[:, None], np.concatenate([uw, uw])[:, None]
    y = u + z
    x = u - z
    ub = np.broadcast_to(u, y.shape).reshape(-1, 1)
    part1 = g(ub, y.reshape(-1, 1)).reshape(y.shape) * np.abs(u) ** -alpha * np.abs(y) ** -beta
    part2 = g(x.reshape(-1, 1), ub).reshape(x.shape) * np.abs(x) ** -alpha * np.abs(u) ** -beta
    part2 = np.where(np.abs(x) > x_max, part2, 0.0)
    return float(np.sum((part1 + part2) * uw * wz))


@pytest.mark.parametrize("s,p,a", [(0.3, 2.0, 0.1), (0.3, 2.0, 0.0), (0.4, 2.0, 0.05)])
def test_pair_oracle_half_grid_agrees(s, p, a):
    """The criterion-01 fixtures, at their own weight and at alpha != beta:
    on one grid (the oracle's value is that of its finest) the half-grid
    sum has the terms of the two-part sum, in another order."""
    params = validate_params(1, s, p, a)
    for u in (hat_1d_field(), smooth_bump_field(1.0), gaussian_field()):
        g = _lift_power(u, params)
        x_max = resolve_outer_radius(QuadratureSpec(), u.support_radius)
        for alpha, beta in ((a, a), (a + 0.1, 0.0)):
            half = quadrature._oracle_pair_1d_once(g, alpha, beta, x_max, 2.0 * x_max, 256)
            assert half == pytest.approx(_two_part_tensor_sum(g, alpha, beta, x_max, 256), rel=1e-12)


def _without_separation(v):
    """v with an evaluator that drops the separation it is given, so that
    it computes |x - y| from the rounded points themselves."""
    return PairField(v.label, lambda x, y, d=None: v(x, y), v.x_support_radius)


@pytest.mark.parametrize("s,p", [(0.3, 2.0), (0.25, 3.0)])
@pytest.mark.parametrize("frac", [0.0, 0.6])
def test_pair_oracle_node_separation_moves_only_rounding(s, p, frac):
    """The oracle hands the lift each z node as the separation of its
    points: on 256 cells the seminorm's sum moves from that of a lift
    computing |u - t| itself by rounding only, on the oracle-1d fixtures
    (a a share of the gap (1 - s p)/2).  The single-grid sum, since at
    grid 256 the refinement guard trips on the gaussian at a = 0."""
    params = validate_params(1, s, p, frac * (1.0 - s * p) / 2.0)
    for u in (hat_1d_field(), smooth_bump_field(1.0), gaussian_field()):
        v = lift_difference_quotient(u, params)
        x_max = resolve_outer_radius(QuadratureSpec(), u.support_radius)
        given, dropped = (
            quadrature._oracle_pair_1d_once(
                lambda x, y, d=None: np.abs(w(x, y, d)) ** p, params.a, params.a, x_max, 2.0 * x_max, 256
            )
            for w in (v, _without_separation(v))
        )
        assert given == pytest.approx(dropped, rel=1e-13, abs=0.0), u.label


def test_pair_oracle_node_separation_with_two_weights():
    """The same through seminorm_general at alpha != beta, where part 2
    weighs its terms apart."""
    params = validate_params(1, 0.3, 2.0, 0.1)
    gw = validate_general_weights(params, 0.2, 0.0)
    u = smooth_bump_field(1.0)
    spec = QuadratureSpec(method=METHOD_TENSOR_ORACLE, grid_points=256)
    dropped = norms._pair_power_integral(
        _without_separation(lift_difference_quotient(u, params)), params, gw.alpha, gw.beta, spec
    )
    assert seminorm_general(u, params, gw, spec).value == pytest.approx(dropped.value, rel=1e-13, abs=0.0)


def _whole_block_tensor_sum(g, alpha, beta, x_max, z_max, cells):
    """The half-grid tensor sum with each sign of a z block filled by one
    call of g over all m rows, the reference for the row groups."""
    zm, zw = quadrature._graded_half_grid(z_max, cells)
    wm, ww = quadrature._graded_half_grid(1.0 / z_max, cells // 2)
    z = np.concatenate([zm, 1.0 / wm])
    wz = np.concatenate([zw, ww / (wm * wm)])
    u, uw = quadrature._graded_half_grid(x_max, cells, floor=1e-6)
    m = len(u)
    w1 = 2.0 * u ** (-alpha) * uw
    w2 = 2.0 * u ** (-beta) * uw

    def weighted(vals, abs_t, exponent):
        return vals * np.maximum(abs_t, 1e-300) ** (-exponent)

    total = 0.0
    block = max(1, (1 << 22) // m)
    for start in range(0, len(z), block):
        zb = z[start : start + block]
        wzb = wz[start : start + block]
        for sgn in (1.0, -1.0):
            t = u[:, None] + sgn * zb[None, :]
            abs_t = np.abs(t)
            vals = g(u[:, None, None], t[:, :, None], zb[None, :])
            part1 = weighted(vals, abs_t, beta)
            total += float(w1 @ part1 @ wzb)
            part2 = part1 if alpha == beta else weighted(vals, abs_t, alpha)
            total += float(w2 @ np.where(abs_t > x_max, part2, 0.0) @ wzb)
    return total


@pytest.mark.parametrize("cells", [2048, 300])
def test_pair_oracle_row_groups_match_whole_blocks(cells):
    """Filling a z block's terms a row group at a time gives the sum of one
    whole-block pass to the bit: at 2,048 cells the z axis spans two blocks,
    and at 300 cells the last row group is a partial one."""
    m, k = cells + 1, cells + 1 + cells // 2 + 1
    block = (1 << 22) // m
    rows = quadrature.ORACLE_GROUP_POINTS // min(block, k)
    assert (block < k) == (cells == 2048) and m % rows
    params = validate_params(1, 0.3, 2.0, 0.1)
    for u in (hat_1d_field(), smooth_bump_field(1.0), gaussian_field()):
        g = _lift_power(u, params)
        x_max = resolve_outer_radius(QuadratureSpec(), u.support_radius)
        for alpha, beta in ((0.1, 0.1), (0.2, 0.0)):
            grouped = quadrature._oracle_pair_1d_once(g, alpha, beta, x_max, 2.0 * x_max, cells)
            assert grouped == _whole_block_tensor_sum(g, alpha, beta, x_max, 2.0 * x_max, cells)


@pytest.mark.parametrize("workers", [1, 3])
def test_pair_oracle_calls_stay_within_the_row_group(workers, monkeypatch):
    """No call of g in the pair oracle takes more than ORACLE_GROUP_POINTS
    (u, z) points, at any worker count, while the calls together still
    cover the whole (x > 0, z > 0) grid once per sign."""
    monkeypatch.setattr(quadrature, "WORKERS", workers)
    for grid in (1024, 2048):
        sizes, lock = [], threading.Lock()

        def counted(x, y, d=None):
            with lock:
                sizes.append(int(np.prod(np.broadcast_shapes(x.shape, y.shape)[:-1])))
            return np.exp(-(x * x + y * y)[..., 0])

        spec = QuadratureSpec(method=METHOD_TENSOR_ORACLE, grid_points=grid)
        oracle_pair_integral_1d(counted, 0.1, 0.1, 1.0, 2.0, spec)
        assert max(sizes) <= quadrature.ORACLE_GROUP_POINTS
        cells = (grid // 4, grid // 2, grid)
        assert sum(sizes) == sum(2 * (c + 1) * (c + 1 + c // 2 + 1) for c in cells)


def _two_sided_sum(f, c, x_max, cells):
    """The scalar oracle's midpoint sum over both halves of the x grid: the
    reference for the mirrored half-grid sum."""
    mids, widths = quadrature._graded_half_grid(x_max, cells)
    return sum(float(np.sum(f((sgn * mids)[:, None]) * mids ** -c * widths)) for sgn in (1.0, -1.0))


@pytest.mark.parametrize("s,p,a", [(0.3, 2.0, 0.1), (0.3, 2.0, 0.0), (0.4, 2.0, 0.05)])
def test_scalar_oracle_half_grid_agrees(s, p, a):
    """The criterion-01 fixtures: summing x > 0 and doubling gives the sum
    over both halves of the grid, since every field is even in n = 1."""
    params = validate_params(1, s, p, a)
    for u in (hat_1d_field(), smooth_bump_field(1.0), gaussian_field()):
        def f(x):
            return np.abs(u(x)) ** params.p_star

        x_max = resolve_outer_radius(QuadratureSpec(), u.support_radius)
        half = quadrature._oracle_weighted_1d_once(f, params.b, x_max, 256)
        assert half == pytest.approx(_two_sided_sum(f, params.b, x_max, 256), rel=1e-14)


def test_pair_estimators_evaluate_each_pair_once():
    """Monte Carlo reads g once per sample and sign; the oracle once per
    point of the (x > 0, z > 0) grid and sign.  g broadcasts its
    arguments, so a call scores as many pairs as their broadcast shape
    holds points."""
    params = validate_params(1, 0.3, 2.0, 0.1)
    g = _lift_power(smooth_bump_field(1.0), params)
    scored = _PointCount()

    def counted(x, y, d=None):
        scored.add(np.broadcast_shapes(x.shape, y.shape)[:-1])
        return g(x, y, d)

    _pair_mc(counted, params, 0.1, 0.1, 6400)
    assert scored.points == 2 * 6400
    scored.points = 0
    spec = QuadratureSpec(method=METHOD_TENSOR_ORACLE, grid_points=64)
    oracle_pair_integral_1d(counted, 0.2, 0.0, 11.0, 22.0, spec)
    # grids of 16, 32 and 64 cells: c+1 points in x > 0, c+1 + c//2+1 in z > 0
    assert scored.points == sum(2 * (c + 1) * (c + 1 + c // 2 + 1) for c in (16, 32, 64))


class _PointCount:
    """Points an integrand is given.  The fold may evaluate groups on
    several threads at once, so the count is updated under a lock."""

    def __init__(self):
        self.points = 0
        self._lock = threading.Lock()

    def add(self, leading_shape) -> None:
        with self._lock:
            self.points += int(np.prod(leading_shape))


def _counting(u):
    """u with an evaluator that counts the points it is given."""
    reads = _PointCount()

    def evaluate(x):
        reads.add(x.shape[:-1])
        return u(x)

    return ScalarField(u.label, evaluate, u.support_radius, u.smoothness), reads


def test_pair_estimators_read_each_distinct_point_once():
    """Under the lift, a Monte Carlo sample reads u at its 3 distinct points
    x, x + z and x - z, and the oracle reads each bounded point u once per
    sign and z block besides its k partners u +- z."""
    params = validate_params(1, 0.3, 2.0, 0.1)
    u, reads = _counting(smooth_bump_field(1.0))
    seminorm_wspa(u, params, QuadratureSpec(samples=6400, seed=5))
    assert reads.points == 3 * 6400
    reads.points = 0
    seminorm_wspa(u, params, QuadratureSpec(method=METHOD_TENSOR_ORACLE, grid_points=64))
    # grids of 16, 32 and 64 cells, each one z block of k = c+1 + c//2+1 nodes
    assert reads.points == sum(2 * (c + 1) * (1 + c + 1 + c // 2 + 1) for c in (16, 32, 64))


def test_scalar_oracle_evaluates_half_the_grid():
    """The scalar oracle reads f once per point of the x > 0 grid: c+1
    points on a grid of c cells."""
    reads = _PointCount()

    def counted(x):
        reads.add(x.shape[:1])
        return np.exp(-x[..., 0] ** 2)

    spec = QuadratureSpec(method=METHOD_TENSOR_ORACLE, grid_points=64)
    oracle_weighted_integral_1d(counted, 0.2, 11.0, spec)
    assert reads.points == sum(c + 1 for c in (16, 32, 64))
