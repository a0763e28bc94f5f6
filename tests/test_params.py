import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolev_wlab import (
    RangeViolation,
    validate_general_weights,
    validate_params,
)
from sobolev_wlab.params import row_norm


def test_derived_exponents():
    sp = validate_params(2, 0.5, 2.0, 0.3)
    assert sp.p_star == pytest.approx(2 * 2.0 / (2 - 1.0))
    assert sp.b == pytest.approx(2 * 0.3 * sp.p_star / 2.0)


def test_boundary_rejections():
    with pytest.raises(RangeViolation):
        validate_params(1, 0.5, 2.0, 0.0)  # s*p == n
    with pytest.raises(RangeViolation):
        validate_params(1, 0.0, 2.0, 0.0)
    with pytest.raises(RangeViolation):
        validate_params(1, 0.3, 1.0, 0.0)
    with pytest.raises(RangeViolation):
        validate_params(1, 0.3, 2.0, 0.2)  # a == (n - sp)/2 exactly
    with pytest.raises(RangeViolation):
        validate_params(0, 0.3, 2.0, 0.0)
    with pytest.raises(RangeViolation):
        validate_params(1, 0.3, 2.0, -0.01)


def test_constraint_name_in_error():
    with pytest.raises(RangeViolation) as exc:
        validate_params(1, 0.3, 2.0, 0.5)
    assert exc.value.constraint == "0 <= a < (n - s*p)/2"


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    s=st.floats(0.01, 0.99),
    p=st.floats(1.01, 6.0),
    frac=st.floats(0.0, 0.999),
)
def test_admissible_params_accepted(n, s, p, frac):
    if not (s * p < n):
        with pytest.raises(RangeViolation):
            validate_params(n, s, p, 0.0)
        return
    a = frac * (n - s * p) / 2.0
    sp = validate_params(n, s, p, a)
    assert sp.p_star > p
    assert sp.b >= 0.0
    # the point weight exponent must stay integrable near zero: b < n
    assert sp.b < n


def test_general_weights():
    sp = validate_params(1, 0.3, 2.0, 0.1)
    gw = validate_general_weights(sp, -0.5, 0.9)
    assert gw.alpha == -0.5
    for bad in ((-0.6, 0.0), (0.0, -0.6), (0.5, 0.5), (1.0, -0.5)):
        with pytest.raises(RangeViolation):
            validate_general_weights(sp, *bad)


@pytest.mark.parametrize("n", range(1, 8))
def test_row_norm_matches_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    decades = rng.uniform(-3.0, 3.0, (300, 2 * n))
    decades[:30] *= 50.0  # squares near the ends of the double range
    wide = rng.standard_normal((300, 2 * n)) * 10.0**decades
    wide[::7, : n - 1] = 0.0  # rows with zero coordinates
    wide[3] = 0.0
    layouts = {
        "contiguous": np.ascontiguousarray(wide[:, :n]),
        "sliced": wide[..., :n],
        "sliced-high": wide[..., n:],
        "fortran": np.asfortranarray(wide[:, :n]),
        "3-d": np.ascontiguousarray(wide[:, :n]).reshape(30, 10, n),
    }
    for name, x in layouts.items():
        expected = np.linalg.norm(x, axis=-1)
        got = row_norm(x)
        assert got.shape == expected.shape, name
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), name
