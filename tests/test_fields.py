import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolev_wlab import (
    CutoffProfile,
    MollifierProfile,
    PairField,
    ParameterOutOfRange,
    ScalarField,
    UnknownCatalogId,
    clip_to_level,
    convolve_field,
    dilate,
    field_from_spec,
    gaussian_field,
    hat_1d_field,
    lift_difference_quotient,
    make_field,
    pipeline_rho,
    polynomial_tail_field,
    singular_spike_field,
    smooth_bump_field,
    star_convolve,
    truncate,
    validate_params,
    zero_field,
)
from sobolev_wlab.fields import (
    _CATALOG_IDS,
    _bump_profile,
    ball_volume,
    cutoff_tau_j,
    default_cutoff,
    default_mollifier,
    pair_subtract,
    parse_field_spec,
    sphere_area,
    subtract,
)
from sobolev_wlab.params import row_norm


def test_sphere_and_ball_constants():
    assert sphere_area(1) == 2.0
    assert sphere_area(2) == 2 * np.pi
    assert sphere_area(3) == 4 * np.pi
    assert ball_volume(2) == np.pi
    assert ball_volume(3) == 4 * np.pi / 3


def test_catalog_values(rng):
    u = smooth_bump_field(2.0)
    assert u(np.array([[0.0]]))[0] == pytest.approx(np.exp(-1.0))
    assert u(np.array([[2.0], [-3.0]])) == pytest.approx([0.0, 0.0])
    h = hat_1d_field()
    assert h(np.array([[0.5], [2.0]])) == pytest.approx([0.5, 0.0])
    g = gaussian_field()
    assert g(np.array([[1.0, 1.0]]))[0] == pytest.approx(np.exp(-2.0))
    pt = polynomial_tail_field(3.0)
    assert pt(np.array([[2.0]]))[0] == pytest.approx(5.0 ** (-1.5))


def test_singular_spike_cap():
    sp = validate_params(1, 0.3, 2.0, 0.1)
    cap = (sp.n + sp.b) / sp.p_star
    u = singular_spike_field(0.9 * cap, 1.0, sp)
    assert u(np.array([[0.5]]))[0] > 0
    with pytest.raises(ParameterOutOfRange):
        singular_spike_field(cap, 1.0, sp)


def test_parse_field_spec():
    assert parse_field_spec("gaussian") == ("gaussian", {})
    assert parse_field_spec("smooth_bump(R=2.5)") == ("smooth_bump", {"R": 2.5})
    name, kw = parse_field_spec("singular_spike(gamma=0.2, R=1)")
    assert name == "singular_spike" and kw == {"gamma": 0.2, "R": 1.0}
    with pytest.raises(UnknownCatalogId):
        parse_field_spec("bump(R=)")
    with pytest.raises(UnknownCatalogId):
        make_field("not_a_field")


def test_field_from_spec_needs_space_for_spike():
    with pytest.raises(ParameterOutOfRange):
        field_from_spec("singular_spike(gamma=0.2)")
    sp = validate_params(1, 0.3, 2.0, 0.1)
    u = field_from_spec("singular_spike(gamma=0.2)", space=sp)
    assert u.support_radius == 1.0


def test_algebra(rng):
    u = gaussian_field()
    x = rng.normal(size=(50, 1))
    assert dilate(u, 2.0)(x) == pytest.approx(u(2.0 * x))
    assert subtract(u, u)(x) == pytest.approx(np.zeros(50))
    assert dilate(smooth_bump_field(1.0), 2.0).support_radius == pytest.approx(0.5)


def test_lift_and_clip(rng, params1d):
    u = hat_1d_field()
    v = lift_difference_quotient(u, params1d)
    x = rng.normal(size=(100, 1))
    y = x + rng.normal(size=(100, 1)) * 0.5
    d = np.abs((x - y)[:, 0])
    expected = (u(x) - u(y)) * np.where(d > 0, d, 1.0) ** (-(1 / 2.0 + 0.3))
    assert v(x, y) == pytest.approx(np.where(d > 0, expected, 0.0))
    assert v(x, x) == pytest.approx(np.zeros(100))
    c = clip_to_level(v, 0.1)
    assert np.max(np.abs(c(x, y))) <= 0.1 + 1e-15


def test_cutoff_profile(rng):
    tau = cutoff_tau_j(default_cutoff(), 3.0)
    r = np.array([[0.0], [2.9], [3.0], [4.5], [6.0], [7.0]])
    vals = tau(r)
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 1.0
    assert 0.0 < vals[3] < 1.0
    assert vals[4] == 0.0 and vals[5] == 0.0
    for j in (0.0, np.nan, np.inf):
        with pytest.raises(ParameterOutOfRange):
            cutoff_tau_j(default_cutoff(), j)


def test_cutoff_is_exactly_one_on_b1_and_zero_beyond_b2():
    """The premise of smoothing.truncate's identity: the default cutoff is
    exactly 1.0 on [0, 1] and exactly 0.0 on [2, 10], at both ends too."""
    radial = default_cutoff().radial
    inside = np.append(np.linspace(0.0, 1.0, 1_000_001), np.nextafter(1.0, 0.0))
    outside = np.append(np.linspace(2.0, 10.0, 1_000_001), np.nextafter(2.0, 3.0))
    assert np.all(radial(inside) == 1.0)
    assert np.all(radial(outside) == 0.0)


@settings(max_examples=20, deadline=None)
@given(j=st.floats(0.1, 50.0))
def test_cutoff_range(j):
    tau = cutoff_tau_j(default_cutoff(), j)
    x = np.linspace(0, 3 * j, 101)[:, None]
    vals = tau(x)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_zero_field_everywhere(rng):
    z = zero_field()
    assert np.all(z(rng.normal(size=(20, 3))) == 0.0)


def test_field_classes_hold_only_what_is_read():
    names = {cls: [f.name for f in dataclasses.fields(cls)]
             for cls in (ScalarField, PairField, CutoffProfile, MollifierProfile)}
    assert names == {
        ScalarField: ["label", "evaluator", "support_radius", "smoothness"],
        PairField: ["label", "evaluator", "x_support_radius"],
        CutoffProfile: ["radial"],
        MollifierProfile: ["n", "radial_profile"],
    }


def test_smoothness_is_the_roughest_operand(params1d):
    spike = singular_spike_field(0.2, 1.0, params1d)
    assert subtract(smooth_bump_field(1.0), hat_1d_field()).smoothness == "continuous"
    assert subtract(hat_1d_field(), spike).smoothness == "measurable"
    tau = cutoff_tau_j(default_cutoff(), 2.0)
    assert subtract(gaussian_field(), tau).smoothness == "smooth"
    from sobolev_wlab.fields import multiply_cutoff

    assert multiply_cutoff(hat_1d_field(), tau).smoothness == "continuous"
    assert multiply_cutoff(spike, tau).smoothness == "measurable"


# one instance of every catalog field; hat_1d exists only in n = 1
CATALOG_SPECS = ("zero", "gaussian", "smooth_bump(R=1.5)", "hat_1d", "polynomial_tail(gamma=3)",
                 "singular_spike(gamma=0.1,R=1)")


def _pair_fields(kind, n):
    params = validate_params(n, 0.3, 2.0, 0.1)
    lift = lambda u: lift_difference_quotient(u, params)  # noqa: E731
    specs = [spec for spec in CATALOG_SPECS if n == 1 or spec != "hat_1d"]
    us = [field_from_spec(spec, params) for spec in specs]
    if kind == "lift":
        return [lift(u) for u in us]
    if kind == "lift_of_sub_rho":
        rho = pipeline_rho(gaussian_field(), 1.0, 0.5, default_cutoff(), default_mollifier(n), 16)
        return [lift(subtract(gaussian_field(), rho))]
    if kind == "clip":
        return [clip_to_level(lift(u), 0.2) for u in us]
    if kind == "pair_subtract":
        return [pair_subtract(lift(gaussian_field()), lift(smooth_bump_field(1.5)))]
    # the diagonal-shift convolution that eq-6.4 evaluates, as a pair field
    v = lift(smooth_bump_field(1.5))
    return [PairField(
        label=f"star(eps=0.5,{v.label})",
        evaluator=lambda x, y, d=None: star_convolve(v, default_mollifier(n), 0.5, x, y, 16),
        x_support_radius=v.x_support_radius + 0.5,
    )]


@pytest.mark.parametrize("kind", ["lift", "lift_of_sub_rho", "clip", "pair_subtract", "star_convolve"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_fields_are_antisymmetric(kind, n, rng):
    """The PairField contract that lets the estimators score each unordered
    pair once: v(y, x) == -v(x, y) bit for bit, for every pair field the
    package builds."""
    assert {spec.split("(")[0] for spec in CATALOG_SPECS} == set(_CATALOG_IDS)
    x = rng.normal(size=(300, n)) * 1.5
    y = x + rng.normal(size=(300, n)) * np.geomspace(1e-3, 4.0, 300)[:, None]
    y[:5] = x[:5]  # the diagonal
    for v in _pair_fields(kind, n):
        assert np.array_equal(v(y, x), -v(x, y)), v.label


@pytest.mark.parametrize("kind", ["catalog", "lift", "lift_of_sub_rho", "clip", "pair_subtract", "star_convolve"])
def test_fields_are_even_in_1d(kind, rng):
    """The contract that lets the 1-d oracle sum over x > 0 only and double
    it: in n = 1, u(-x) == u(x) and v(-x, -y) == v(x, y), for every catalog
    field and every pair field the package builds.  Closed forms hold it bit
    for bit.  A convolved field sums its +-r nodes in another order at -x,
    so it holds to rounding: 1e-12 on the difference u(x) - u(y) that the
    lift divides by |x - y|^(n/p + s) (the fields here lie in [-1, 1])."""
    params = validate_params(1, 0.3, 2.0, 0.1)
    x = rng.normal(size=(300, 1)) * 1.5
    y = x + rng.normal(size=(300, 1)) * np.geomspace(1e-3, 4.0, 300)[:, None]
    y[:5] = x[:5]  # the diagonal
    if kind == "catalog":
        for spec in CATALOG_SPECS:
            u = field_from_spec(spec, params)
            assert np.array_equal(u(-x), u(x)), u.label
        return
    for v in _pair_fields(kind, 1):
        mirrored, vals = v(-x, -y), v(x, y)
        if kind in ("lift_of_sub_rho", "star_convolve"):
            quotient = np.abs(x - y)[:, 0] ** (params.n / params.p + params.s)
            assert np.max(np.abs(mirrored - vals) * quotient) <= 1e-12, v.label
        else:
            assert np.array_equal(mirrored, vals), v.label


@pytest.mark.parametrize("kind", ["lift", "lift_of_sub_rho", "clip", "pair_subtract", "star_convolve"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_fields_take_their_separation(kind, n, rng):
    """The separation contract that lets the 1-d oracle hand the lift its
    z nodes: passing d = row_norm(x - y) gives the values of the call
    without it, bit for bit, at flat (m, n) points and at x of shape
    (m, 1, n) against y of shape (m, k, n); a d of shape (1, k) gives the
    values of its broadcast to (m, k); and antisymmetry, and in n = 1
    evenness, still hold with d."""
    m, k = 300, 5
    x = rng.normal(size=(m, n)) * 1.5
    y = x + rng.normal(size=(m, n)) * np.geomspace(1e-3, 4.0, m)[:, None]
    y[:5] = x[:5]  # the diagonal
    d = row_norm(x - y)
    xb = x[:60, None, :]
    yb = xb + rng.normal(size=(60, k, n)) * np.geomspace(1e-3, 4.0, k)[:, None]
    db = row_norm(xb - yb)
    row = rng.uniform(0.1, 2.0, (1, k))
    for v in _pair_fields(kind, n):
        vals = v(x, y, d)
        assert np.array_equal(vals, v(x, y)), v.label
        assert np.array_equal(v(xb, yb, db), v(xb, yb)), v.label
        assert np.array_equal(v(xb, yb, row), v(xb, yb, np.broadcast_to(row, db.shape))), v.label
        assert np.array_equal(v(y, x, d), -vals), v.label
        if n == 1 and kind in ("lift_of_sub_rho", "star_convolve"):
            # to rounding, as in test_fields_are_even_in_1d (n/p + s = 0.8)
            assert np.max(np.abs(v(-x, -y, d) - vals) * d ** 0.8) <= 1e-12, v.label
        elif n == 1:
            assert np.array_equal(v(-x, -y, d), vals), v.label


def _random_rotation(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _scalar_fields(n):
    """Every catalog field defined in dimension n, and every scalar field
    operation."""
    params = validate_params(n, 0.3, 2.0, 0.1)
    eta, cutoff = default_mollifier(n), default_cutoff()
    us = [field_from_spec(spec, params) for spec in CATALOG_SPECS if n == 1 or spec != "hat_1d"]
    return us + [
        dilate(gaussian_field(), 2.0),
        subtract(gaussian_field(), smooth_bump_field(1.5)),
        truncate(polynomial_tail_field(3.0), 1.0, cutoff),
        convolve_field(smooth_bump_field(1.5), 0.5, eta, 16),
        pipeline_rho(gaussian_field(), 1.0, 0.5, cutoff, eta, 16),
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fields_broadcast_their_points(n, rng):
    """The evaluation contract that lets the estimators pass a shared point
    once: a scalar field maps (..., n) to (...), and a pair field maps x of
    shape (m, 1, n) against y of shape (m, k, n), in either order, to
    (m, k).  Each gives, bit for bit, the values of the flat (m k, n) call,
    and a scalar field maps a single point of shape (n,) to a value of
    shape () equal to its 1-row value."""
    m, k = 30, 5
    x = rng.normal(size=(m, 1, n)) * 1.5
    y = x + rng.normal(size=(m, k, n)) * np.geomspace(1e-3, 4.0, k)[:, None]
    flat_x, flat_y = np.repeat(x, k, axis=1).reshape(-1, n), y.reshape(-1, n)
    for u in _scalar_fields(n):
        assert np.array_equal(u(y), u(flat_y).reshape(m, k)), u.label
        assert np.array_equal(u(x), u(x[:, 0]).reshape(m, 1)), u.label
        single = u(x[0, 0])
        assert np.shape(single) == () and single == u(x[0])[0], u.label
    for kind in ("lift", "lift_of_sub_rho", "clip", "pair_subtract", "star_convolve"):
        for v in _pair_fields(kind, n):
            assert np.array_equal(v(x, y), v(flat_x, flat_y).reshape(m, k)), v.label
            assert np.array_equal(v(y, x), v(flat_y, flat_x).reshape(m, k)), v.label


@pytest.mark.parametrize("n", [2, 3])
def test_scalar_fields_are_radial(n, rng):
    """The ScalarField contract that lets convolve work at |x| e_1:
    u(Qx) == u(x) for every rotation Q, for every catalog field and every
    scalar field operation, to rounding (the row norm of Qx rounds apart
    from that of x)."""
    with pytest.raises(ParameterOutOfRange, match="only defined in dimension 1"):
        field_from_spec("hat_1d", validate_params(n, 0.3, 2.0, 0.1))
    us = _scalar_fields(n)
    x = rng.normal(size=(300, n)) * 1.5
    for _ in range(3):
        q = _random_rotation(rng, n)
        for u in us:
            vals = u(x)
            assert np.max(np.abs(u(x @ q.T) - vals)) <= 1e-12 * np.max(np.abs(vals)), u.label


def _bump_reference(t):
    """The bump kernel as it was first written: exp on every entry."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    tt = np.where(inside, t, 0.0)
    with np.errstate(over="ignore"):
        vals = np.exp(-1.0 / (1.0 - tt * tt))
    return np.where(inside, vals, 0.0)


def _cutoff_reference(r):
    """The cutoff kernel as it was first written: both exps on every entry."""
    r = np.asarray(r, dtype=float)
    lo = r <= 1.0
    hi = r >= 2.0
    mid = ~(lo | hi)
    rr = np.where(mid, r, 1.5)
    ha = np.exp(-1.0 / (2.0 - rr))
    hb = np.exp(-1.0 / (rr - 1.0))
    return np.where(lo, 1.0, np.where(hi, 0.0, ha / (ha + hb)))


@pytest.mark.parametrize("kernel,reference", [
    (_bump_profile, _bump_reference),
    (default_cutoff().radial, _cutoff_reference),
], ids=["bump", "cutoff"])
def test_kernels_skip_constant_regions_bit_for_bit(kernel, reference, rng):
    """The bump and the cutoff run exp only where they are not constant;
    their values are those of the formulas on every entry, to the bit,
    NaN included."""
    edges = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, np.inf, -np.inf, np.nan]
    edges += [np.nextafter(e, d) for e in (1.0, -1.0, 2.0) for d in (-np.inf, np.inf)]
    t = np.concatenate([rng.uniform(-3.0, 3.0, 10_000), edges])
    for x in (t, t.reshape(-1, 5)):
        assert np.array_equal(kernel(x), reference(x), equal_nan=True)
    for e in edges:
        assert np.array_equal(kernel(e), reference(e), equal_nan=True)
        assert np.shape(kernel(e)) == ()
