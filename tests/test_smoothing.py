from functools import lru_cache

import numpy as np
import pytest

from sobolev_wlab import (
    MollifierProfile,
    ParameterOutOfRange,
    QuadratureFailure,
    ScalarField,
    convolve,
    convolve_field,
    gaussian_field,
    hat_1d_field,
    lift_difference_quotient,
    pipeline_rho,
    polynomial_tail_field,
    smooth_bump_field,
    smoothing,
    star_convolve,
    truncate,
    validate_params,
)
from sobolev_wlab.fields import (
    cutoff_tau_j,
    default_cutoff,
    default_mollifier,
    dilate,
    multiply_cutoff,
    singular_spike_field,
    zero_field,
)
from sobolev_wlab.smoothing import conv_nodes


def constant_field(c: float) -> ScalarField:
    """Constant on all of R^n (not a member of the space)."""
    return ScalarField(
        label=f"constant(c={c})",
        evaluator=lambda x: np.full(x.shape[:-1], float(c)),
        support_radius=np.inf,
        smoothness="smooth",
    )


def wiggle_mollifier(n: int) -> MollifierProfile:
    """A non-monotone profile built afresh on every call."""
    bump = default_mollifier(n)

    def g(r):
        return bump.radial_profile(r) * (1.0 + 0.5 * np.sin(6.0 * np.pi * np.asarray(r, float)))

    return MollifierProfile(n=n, radial_profile=g)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conv_nodes_unit_mass(n):
    z, w = conv_nodes(default_mollifier(n), 0.5, n, 128)
    assert z.shape[1] == n
    assert np.sum(w) == pytest.approx(1.0, abs=1e-15)  # unit mass to rounding
    assert np.all(np.linalg.norm(z, axis=1) <= 0.5)


def test_conv_nodes_never_stale_after_free():
    """A profile built after another was freed (CPython may give it the
    freed object's id) must get its own nodes, not the freed one's."""
    ref = {kind: conv_nodes(kind(1), 0.5, 1, 64)[1] for kind in (default_mollifier, wiggle_mollifier)}
    assert not np.array_equal(ref[default_mollifier], ref[wiggle_mollifier])
    for i in range(200):
        kind = (default_mollifier, wiggle_mollifier)[i % 2]
        profile = kind(1)
        w = conv_nodes(profile, 0.5, 1, 64)[1]
        assert np.array_equal(w, ref[kind]), f"round {i}: {kind.__name__} got stale weights"
        del profile, w  # freed here, by reference counting


def test_conv_nodes_dimension_guard():
    with pytest.raises(ParameterOutOfRange):
        conv_nodes(default_mollifier(1), 0.5, 4, 128)
    with pytest.raises(ParameterOutOfRange):
        conv_nodes(default_mollifier(2), 0.5, 1, 128)
    # at eps = nan every convolution would short-circuit to 0
    for epsilon in (0.0, np.nan, np.inf):
        with pytest.raises(ParameterOutOfRange, match="epsilon"):
            conv_nodes(default_mollifier(1), epsilon, 1, 128)


def _reference_convolution(u: ScalarField, n: int, epsilon: float, r: np.ndarray) -> np.ndarray:
    """(u * eta_eps)(r e_1) by adaptive scipy quadrature of the radial
    reduction: the mean of u over each sphere of radius t around r e_1 (an
    integral over the angle theta in n = 2, over mu = cos(theta) in n = 3),
    integrated against t^(n-1) eta(t/eps) dt and divided by the mass."""
    from scipy.integrate import quad_vec

    def on_axis(rho):
        x = np.zeros((len(rho), n))
        x[:, 0] = rho
        return u(x)

    def dist(t, mu):
        return np.sqrt(np.maximum(r * r + t * t - 2.0 * r * t * mu, 0.0))

    tol = {"epsabs": 0.0, "epsrel": 1e-12}

    def sphere_mean(t):
        if n == 1:
            return (on_axis(np.abs(r - t)) + on_axis(r + t)) / 2.0
        if n == 2:
            return quad_vec(lambda th: on_axis(dist(t, np.cos(th))), 0.0, np.pi, **tol)[0] / np.pi
        return quad_vec(lambda mu: on_axis(dist(t, mu)), -1.0, 1.0, **tol)[0] / 2.0

    eta = default_mollifier(n).radial_profile
    mass = quad_vec(lambda t: t ** (n - 1) * eta(t / epsilon), 0.0, epsilon, **tol)[0]
    return quad_vec(lambda t: t ** (n - 1) * eta(t / epsilon) * sphere_mean(t), 0.0, epsilon, **tol)[0] / mass


ACCURACY_FIELDS = [smooth_bump_field(1.0), gaussian_field(), polynomial_tail_field(3.0)]
ACCURACY_FIELDS += [truncate(u, 1.0, default_cutoff()) for u in ACCURACY_FIELDS]


ACCURACY_RADII = np.linspace(0.0, 2.3, 8)


@lru_cache(maxsize=None)
def _references(n: int) -> tuple:
    return tuple(_reference_convolution(u, n, 0.1, ACCURACY_RADII) for u in ACCURACY_FIELDS)


def _max_rel_error(n: int, nodes=None) -> float:
    """Largest error of convolve at the radii ACCURACY_RADII, in random
    directions, over the fields of ACCURACY_FIELDS, each relative to the
    field's largest reference value; ``nodes`` replaces conv_nodes."""
    dirs = np.random.default_rng(n).normal(size=(len(ACCURACY_RADII), n))
    x = ACCURACY_RADII[:, None] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    worst = 0.0
    with pytest.MonkeyPatch.context() as mp:
        if nodes is not None:
            mp.setattr(smoothing, "conv_nodes", nodes)
        for u, ref in zip(ACCURACY_FIELDS, _references(n)):
            err = np.abs(convolve(u, 0.1, default_mollifier(n), x, 128) - ref)
            worst = max(worst, float(np.max(err) / np.max(np.abs(ref))))
    return worst


@pytest.mark.parametrize("n", [1, 2, 3])
def test_convolution_matches_adaptive_reference(n):
    """At conv_grid 128 and eps = 0.1 the Gauss radial rule on the aligned
    directions convolves the smooth fields and their tau_1-truncations to
    within 1e-9 of an independent reference."""
    assert _max_rel_error(n) < 1e-9


@pytest.mark.parametrize("fault,n", [("off_centre", 1), ("off_centre", 2), ("off_centre", 3),
                                     ("no_jacobian", 2), ("no_jacobian", 3)])
def test_convolution_accuracy_check_can_fail(fault, n):
    """Negative control: nodes shifted off centre by eps/100, or weights
    without the t^(n-1) Jacobian, fail the accuracy check."""
    def faulty_nodes(profile, epsilon, n, m):
        if fault == "off_centre":
            z, w = conv_nodes(profile, epsilon, n, m)
            return z + np.eye(n)[0] * epsilon / 100.0, w
        t, wt = smoothing._radial_nodes(profile, epsilon, n, m)
        return smoothing._nodes(smoothing._aligned_directions(n), t, wt / t ** (n - 1))

    assert _max_rel_error(n, faulty_nodes) > 1e-6


def test_constant_reproduction_exact(rng):
    c = constant_field(3.25)
    x = rng.normal(size=(40, 1))
    vals = convolve(c, 0.3, default_mollifier(1), x, 128)
    assert np.max(np.abs(vals - 3.25)) < 1e-12


def test_range_preservation(rng):
    u = hat_1d_field()  # values in [0, 1]
    x = rng.uniform(-2, 2, size=(200, 1))
    vals = convolve(u, 0.2, default_mollifier(1), x, 128)
    assert np.all(vals >= -1e-15) and np.all(vals <= 1.0 + 1e-15)


def test_support_short_circuit():
    u = smooth_bump_field(1.0)
    pts = np.linspace(1.31, 100.0, 100000)[:, None]
    vals = convolve(u, 0.3, default_mollifier(1), pts, 64)
    assert np.all(vals == 0.0)


def test_convolution_approaches_identity(rng):
    u = gaussian_field()
    x = rng.normal(size=(50, 1))
    err = [np.max(np.abs(convolve(u, eps, default_mollifier(1), x, 128) - u(x)))
           for eps in (0.5, 0.1, 0.02)]
    assert err[0] > err[1] > err[2]
    assert err[2] < 1e-3


def test_commutation_residual_machine_zero(rng):
    params = validate_params(1, 0.3, 2.0, 0.1)
    u = smooth_bump_field(1.0)
    v = lift_difference_quotient(u, params)
    x = rng.normal(size=(30, 1))
    y = x + rng.normal(size=(30, 1)) + 0.1
    lhs = star_convolve(v, default_mollifier(1), 0.2, x, y, 128)
    u_eps = convolve_field(u, 0.2, default_mollifier(1), 128)
    rhs = lift_difference_quotient(u_eps, params)(x, y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_truncation_identity_inside(rng):
    u = gaussian_field()
    w = truncate(u, 2.0, default_cutoff())
    inside = rng.uniform(-2, 2, size=(100, 1))
    assert w(inside) == pytest.approx(u(inside))
    outside = rng.uniform(4.01, 10, size=(50, 1))
    assert np.all(w(outside) == 0.0)


def _truncation_cases(n: int) -> list:
    """(u, j) with supp u in B_j, for the fields that exist in dimension n."""
    spike = singular_spike_field(0.1, 1.0, validate_params(n, 0.3, 2.0, 0.1))
    cases = [(smooth_bump_field(R), j) for R in (0.5, 1.0) for j in (1.0, 2.0)]
    cases += [(dilate(smooth_bump_field(1.0), 2.0), 1.0), (spike, 1.0), (zero_field(), 1.0)]
    if n == 1:
        cases += [(hat_1d_field(), 1.0), (dilate(hat_1d_field(), 3.0), 1.0 / 3.0)]
    return cases


def _shell_points(n: int, radii: list, rng) -> np.ndarray:
    """The origin, random points in B_3, and points in random directions at
    each radius, its 8 float neighbours on either side and a dense shell
    within 1e-3 of it."""
    r = [rng.uniform(0.0, 3.0, 2000), [0.0]]
    for rad in radii:
        near = [rad]
        for d in (-np.inf, np.inf):
            step = rad
            for _ in range(8):
                step = np.nextafter(step, d)
                near.append(step)
        r += [near, rad + np.linspace(-1e-3, 1e-3, 401)]
    r = np.concatenate(r)
    dirs = rng.normal(size=(len(r), n))
    return r[:, None] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_truncation_inside_b_j_is_u_bit_for_bit(n, rng):
    """When supp u lies in B_j, truncate returns u's own evaluator, and the
    product tau_j * u it stands for has u's values as bit patterns (the
    spike's inf at the origin included) on shells around |x| = support
    radius and |x| = j; the label, support radius and smoothness are the
    product's."""
    cutoff = default_cutoff()
    for u, j in _truncation_cases(n):
        w = truncate(u, j, cutoff)
        product = multiply_cutoff(u, cutoff_tau_j(cutoff, j))
        assert w.evaluator is u.evaluator, u.label
        assert (w.label, w.support_radius, w.smoothness) == (
            product.label, product.support_radius, product.smoothness)
        x = _shell_points(n, [u.support_radius, j], rng)
        assert np.array_equal(_bits(w(x)), _bits(product(x))), (u.label, j)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_truncation_beyond_b_j_keeps_the_cutoff(n, rng):
    """Negative control: smooth_bump(R=2) at j = 1 is not supported in B_j,
    so truncate keeps the product, which equals u on B_1 and lies below it
    on the shell 1 < |x| < 2 (from where the cutoff first drops below 1.0)."""
    u = smooth_bump_field(2.0)
    w = truncate(u, 1.0, default_cutoff())
    assert w.evaluator is not u.evaluator
    x = _shell_points(n, [1.0, 1.5], rng)
    r = np.linalg.norm(x, axis=1)
    shell = (r > 1.05) & (r < 1.95)
    assert np.array_equal(w(x)[r <= 1.0], u(x)[r <= 1.0])
    assert np.count_nonzero(shell) > 400 and np.all(w(x)[shell] < u(x)[shell])


CONVOLVED_FIELDS = {
    "convolve_field": lambda eps, m: convolve_field(smooth_bump_field(1.0), eps, default_mollifier(1), m),
    "pipeline_rho": lambda eps, m: pipeline_rho(
        smooth_bump_field(1.0), 1.0, eps, default_cutoff(), default_mollifier(1), m
    ),
}


@pytest.mark.parametrize("build", sorted(CONVOLVED_FIELDS))
def test_convolved_field_refuses_a_bad_rule_when_built(build):
    """A width that is not positive and finite, or an empty radial rule, is
    refused when the field is built, not at its first evaluation."""
    make = CONVOLVED_FIELDS[build]
    for epsilon in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ParameterOutOfRange, match="epsilon must be positive and finite"):
            make(epsilon, 128)
    with pytest.raises(ParameterOutOfRange, match="convolution grid needs at least 1 radial node"):
        make(0.1, 0)


def test_pipeline_rho_support_and_smoothness():
    u = polynomial_tail_field(3.0)
    rho = pipeline_rho(u, 2.0, 0.25, default_cutoff(), default_mollifier(1), 96)
    assert rho.smoothness == "smooth"
    assert rho.support_radius == pytest.approx(4.25)
    far = np.linspace(4.26, 50.0, 100000)[:, None]
    assert np.all(rho(far) == 0.0)


@pytest.mark.parametrize("kind", ["convolve", "star_convolve"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_convolved_point_independent_of_its_block(n, kind, monkeypatch):
    """A point's convolved value is the same to the bit alone, in a block of
    257 points, in that block shifted by one point, and in blocks of a single
    point (CONV_BLOCK below the node count)."""
    u = smooth_bump_field(1.0)
    eta = default_mollifier(n)
    if kind == "convolve":
        conv = lambda x, y: convolve(u, 0.3, eta, x, 32)  # noqa: E731
    else:
        v = lift_difference_quotient(u, validate_params(n, 0.3, 2.0, 0.1))
        conv = lambda x, y: star_convolve(v, eta, 0.3, x, y, 32)  # noqa: E731
    x, y = np.random.default_rng(n).uniform(-1.0, 1.0, (2, 258, n))
    block = conv(x[:257], y[:257])
    alone = [conv(x[i : i + 1], y[i : i + 1])[0] for i in range(257)]
    assert block.tolist() == alone
    assert block[1:].tolist() == conv(x[1:], y[1:])[:-1].tolist()
    monkeypatch.setattr(smoothing, "CONV_BLOCK", 3)
    assert conv(x[:257], y[:257]).tolist() == alone


def _edge_radii(edge: float) -> np.ndarray:
    """Dense radii over [0, 1.05 edge], and edge with its 8 float
    neighbours on either side."""
    near = [edge]
    for d in (-np.inf, np.inf):
        step = edge
        for _ in range(8):
            step = np.nextafter(step, d)
            near.append(step)
    return np.concatenate([np.linspace(0.0, 1.05 * edge, 1000), near])


# the smooth catalog fields, each with the scale j of its pipeline_rho
# (None: the field is convolved as it is)
TABLED_FIELDS = {
    "smooth_bump": (smooth_bump_field(1.0), None),
    "polynomial_tail": (polynomial_tail_field(3.0), 2.0),
    "gaussian": (gaussian_field(), 1.0),
}


def _table_error(inner: ScalarField, rho: ScalarField, eps: float, n: int, rng) -> float:
    """Largest gap between rho's table and direct convolve over the radii
    of ``_edge_radii``, in random directions, relative to max|rho|; rho must
    be exactly 0 beyond its support."""
    r = _edge_radii(rho.support_radius)
    dirs = rng.normal(size=(len(r), n))
    x = r[:, None] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    direct, tabled = convolve(inner, eps, default_mollifier(n), x, 64), rho(x)
    assert np.all(tabled[np.linalg.norm(x, axis=1) > rho.support_radius] == 0.0), rho.label
    return float(np.max(np.abs(tabled - direct)) / np.max(np.abs(direct)))


@pytest.mark.parametrize("eps", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(TABLED_FIELDS))
def test_table_matches_convolve(name, n, eps, rng):
    """A smooth field of bounded support convolves through its radial
    table, within 1e-14 of max|rho| of direct convolution up to and around
    support + eps, and exactly 0 beyond."""
    u, j = TABLED_FIELDS[name]
    eta, cutoff = default_mollifier(n), default_cutoff()
    if j is None:
        inner, rho = u, convolve_field(u, eps, eta, 64)
    else:
        inner, rho = truncate(u, j, cutoff), pipeline_rho(u, j, eps, cutoff, eta, 64)
    assert _table_error(inner, rho, eps, n, rng) <= 1e-14


def test_table_refines_where_64_panels_fall_short(monkeypatch, rng):
    """A bump narrow against eps needs more than TABLE_PANELS panels: the
    table refines to the same accuracy, and without refinement (negative
    control) it misses by more."""
    u, eta = smooth_bump_field(0.3), default_mollifier(1)
    assert _table_error(u, convolve_field(u, 1.0, eta, 64), 1.0, 1, rng) <= 1e-14
    monkeypatch.setattr(smoothing, "TABLE_TAIL", np.inf)
    assert _table_error(u, convolve_field(u, 1.0, eta, 64), 1.0, 1, rng) > 1e-14


def test_kinked_field_labelled_smooth_is_refused(monkeypatch):
    """A kinked field labelled smooth never gets a table: refinement cannot
    bring the Chebyshev tail down, so the first call raises after the
    largest table, and raises again on the next."""
    hat = hat_1d_field()
    kinked = ScalarField("kinked", hat.evaluator, hat.support_radius, "smooth")
    radii, direct = [], smoothing.convolve

    def counted(u, epsilon, profile, x, conv_grid):
        radii.append(len(x))
        return direct(u, epsilon, profile, x, conv_grid)

    monkeypatch.setattr(smoothing, "convolve", counted)
    rho = convolve_field(kinked, 0.1, default_mollifier(1), 16)
    for _ in range(2):
        with pytest.raises(QuadratureFailure, match="not smooth enough to tabulate"):
            rho(np.zeros((3, 1)))
    panels = [smoothing.TABLE_PANELS << k for k in range(5)]
    assert panels[-1] == smoothing.TABLE_MAX_PANELS
    assert max(radii) <= smoothing.TABLE_BATCH
    assert sum(radii) == 2 * (smoothing.TABLE_DEGREE + 1) * sum(panels)


@pytest.mark.parametrize("make", ["hat_1d", "dilate_hat_1d", "gaussian"])
def test_fields_without_a_table_convolve_directly(make, rng):
    """A kinked field (hat_1d, dilated or not) and a field of unbounded
    support keep direct convolution: the convolved field is convolve, bit
    for bit."""
    u = {"hat_1d": hat_1d_field(), "dilate_hat_1d": dilate(hat_1d_field(), 3.0), "gaussian": gaussian_field()}[make]
    x = rng.uniform(-1.6, 1.6, (500, 1))
    eta = default_mollifier(1)
    assert np.array_equal(_bits(convolve_field(u, 0.2, eta, 32)(x)), _bits(convolve(u, 0.2, eta, x, 32)))


def test_tabled_field_refuses_another_dimension():
    """Called in a dimension other than its mollifier's, a tabled field
    raises as direct convolution does."""
    rho = convolve_field(smooth_bump_field(1.0), 0.1, default_mollifier(2), 16)
    with pytest.raises(ParameterOutOfRange, match="profile built for n=2, requested n=3"):
        rho(np.zeros((4, 3)))
