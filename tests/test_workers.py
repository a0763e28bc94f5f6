"""The worker threads of the chunk fold, of the convolution blocks and of
the pair oracle's row groups: estimates and convolved values do not depend
on how many there are, an error in any group surfaces with its own type
after every worker has stopped, nested folds run inline, the
convolution block is shared between the workers, and a convolved field's
table is built once, whoever calls first."""

import sys
import threading

import numpy as np
import pytest

from sobolev_wlab import (
    ParameterOutOfRange,
    QuadratureFailure,
    ScalarField,
    ball_average,
    check_maximal_bound,
    hat_1d_field,
    convolve,
    estimate_pair_integral_singular,
    estimate_weighted_integral_Rn,
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
    smoothing,
    star_convolve,
    star_convolve_field,
    validate_general_weights,
    validate_params,
)
from sobolev_wlab import cli
from sobolev_wlab.fields import default_cutoff, default_mollifier, subtract
from sobolev_wlab.quadrature import METHOD_TENSOR_ORACLE, QuadratureSpec

JOIN_TIMEOUT_S = 60


def _workers_alive():
    return [t for t in threading.enumerate() if t.name.startswith("sobolev_wlab.quadrature.worker")]


def _bounded(fn):
    """fn() on a thread of its own, joined with a timeout, so that a hung
    fold fails the test instead of hanging the suite; re-raises what fn
    raised."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except Exception as exc:  # handed to the test's thread
            out["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(JOIN_TIMEOUT_S)
    assert not thread.is_alive(), "the fold did not finish"
    if "error" in out:
        raise out["error"]
    return out["value"]


def _fresh_rho(n: int):
    """The approximation of the smooth bump, its table not yet built."""
    return pipeline_rho(smooth_bump_field(1.0), 1.0, 0.1, default_cutoff(), default_mollifier(n), 16)


def _estimators():
    params1 = validate_params(1, 0.3, 2.0, 0.1)
    v = lift_difference_quotient(smooth_bump_field(1.0), params1)
    g = lambda x, y, d=None: np.abs(v(x, y, d)) ** 2  # noqa: E731
    star = star_convolve_field(v, default_mollifier(1), 0.1, 8)
    g_star = lambda x, y, d=None: np.abs(star(x, y, d)) ** 2  # noqa: E731
    V = lift_difference_quotient(smooth_bump_field(1.0), validate_params(2, 0.3, 2.0, 0.1))
    conv = {
        n: (
            subtract(u, pipeline_rho(u, 2.0, 0.1, default_cutoff(), default_mollifier(n), 16)),
            validate_params(n, 0.3, 2.0, 0.1),
        )
        for n, u in ((1, polynomial_tail_field(3.0)), (2, smooth_bump_field(1.0)))
    }
    x, y = np.random.default_rng(0).uniform(-1.5, 1.5, (2, 3000, 2))
    eta = default_mollifier(2)
    oracle = QuadratureSpec(method=METHOD_TENSOR_ORACLE, grid_points=512)
    # budgets of 2 to 64 groups of GROUP_POINTS points, convolutions of
    # 3,000 points in 6 to 18 blocks, and pair oracles whose finest z block
    # fills in 7 row groups (2 for the star-convolved field)
    return {
        "convolve_n2": lambda: convolve(smooth_bump_field(1.0), 0.1, eta, x, 128).tolist(),
        "star_convolve_n2": lambda: star_convolve(V, eta, 0.1, x, y, 32).tolist(),
        "weighted_Rn": lambda: estimate_weighted_integral_Rn(
            lambda x: np.exp(-np.sum(x * x, axis=-1)), 2, 0.3, QuadratureSpec(samples=1 << 15, seed=1)
        ),
        "pair_singular": lambda: estimate_pair_integral_singular(
            g, 1, 0.1, 0.1, 0.6, QuadratureSpec(samples=1 << 15, seed=2), kappa=1.4, x_support_radius=1.0
        ),
        "ball_average": lambda: ball_average(
            lambda z: 1.0 / (0.1 + np.sum(z * z, axis=1)), 2, 0.7, QuadratureSpec(samples=1 << 17, seed=3)
        ),
        "maximal_bound": lambda: check_maximal_bound(
            V, validate_params(2, 0.3, 2.0, 0.1), QuadratureSpec(samples=1024, seed=4)
        ),
        "norm_full_conv_n1": lambda: norm_full(*conv[1], QuadratureSpec(samples=1 << 14, seed=5)),
        "norm_full_conv_n2": lambda: norm_full(*conv[2], QuadratureSpec(samples=1 << 14, seed=6)),
        # a fresh rho on every run, so that its table is built under each worker count
        "norm_full_fresh_table_n2": lambda: norm_full(
            subtract(conv[2][0], _fresh_rho(2)), conv[2][1], QuadratureSpec(samples=1 << 14, seed=7)
        ),
        "oracle_weighted_conv_n1": lambda: oracle_weighted_integral_1d(
            lambda x: np.abs(conv[1][0](x)) ** 2, 0.2, 12.0, oracle
        ),
        "oracle_pair": lambda: oracle_pair_integral_1d(g, 0.1, 0.1, 1.0, 2.0, oracle),
        # the lift's kernel on the oracle's z nodes, passed as the separation
        "oracle_seminorm": lambda: seminorm_wspa(hat_1d_field(), params1, oracle),
        "oracle_seminorm_general": lambda: seminorm_general(
            smooth_bump_field(1.0), params1, validate_general_weights(params1, 0.2, 0.0), oracle
        ),
        "oracle_pair_star_convolve": lambda: oracle_pair_integral_1d(
            g_star, 0.1, 0.1, 1.1, 2.2, QuadratureSpec(method=METHOD_TENSOR_ORACLE, grid_points=256)
        ),
    }


ESTIMATORS = _estimators()


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_estimates_independent_of_worker_count(name, monkeypatch):
    """One, two or three workers give the same estimate, or the same
    convolved values, to the bit."""
    run = ESTIMATORS[name]
    monkeypatch.setattr(quadrature, "WORKERS", 1)
    single = run()
    for workers in (2, 3):
        monkeypatch.setattr(quadrature, "WORKERS", workers)
        assert repr(run()) == repr(single), workers
    assert not _workers_alive()


def test_table_independent_of_call_order(rng):
    """A fresh convolved field called at points A, then B, gives the bits of
    one called at B, then A: the table is built from fixed radii, not from
    the first caller's points."""
    a, b = rng.uniform(-0.5, 0.5, (300, 2)), rng.uniform(-1.2, 1.2, (300, 2))
    first, second = _fresh_rho(2), _fresh_rho(2)
    a_then_b = [first(a).tolist(), first(b).tolist()]
    b_then_a = [second(b).tolist(), second(a).tolist()][::-1]
    assert a_then_b == b_then_a


def test_table_built_once_by_concurrent_callers(monkeypatch, rng):
    """Eight threads, more than the CPUs, calling a fresh convolved field at
    once and switching as often as the interpreter allows, build its table
    once, and each gets the values of a single caller."""
    calls, direct = _Calls(), smoothing.convolve

    def counted(u, epsilon, profile, x, conv_grid):
        for _ in range(len(x)):
            calls.next()
        return direct(u, epsilon, profile, x, conv_grid)

    x = rng.uniform(-1.2, 1.2, (500, 2))
    single = _fresh_rho(2)(x).tolist()
    monkeypatch.setattr(smoothing, "convolve", counted)
    rho, start, out = _fresh_rho(2), threading.Barrier(8), [None] * 8

    def call(i):
        start.wait()
        out[i] = rho(x).tolist()

    threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert out == [single] * 8
    assert calls.count == smoothing.TABLE_PANELS * (smoothing.TABLE_DEGREE + 1)


class _Calls:
    """Calls of an integrand, counted under a lock, since concurrent groups
    call it from several threads."""

    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            self.count += 1
            return self.count


def _failing_late(fail_at: int, exc_type):
    """The smooth bump, raising ``exc_type`` from its ``fail_at``-th call on."""
    u, calls = smooth_bump_field(1.0), _Calls()

    def evaluate(x):
        if calls.next() >= fail_at:
            raise exc_type(f"call {fail_at}")
        return u(x)

    return ScalarField(u.label, evaluate, u.support_radius, u.smoothness), calls


def test_error_in_a_late_group_propagates_after_every_worker_stops(monkeypatch):
    """A group raising after others succeeded surfaces with its own type on
    the calling thread, and no worker outlives the estimator."""
    monkeypatch.setattr(quadrature, "WORKERS", 3)
    u, calls = _failing_late(14, QuadratureFailure)
    spec = QuadratureSpec(samples=1 << 18, seed=1)  # 64 groups of one chunk
    with pytest.raises(QuadratureFailure, match="call 14"):
        _bounded(lambda: ball_average(u, 1, 1.0, spec))
    assert 14 <= calls.count < 14 + 3  # no group is taken after the failure
    assert not _workers_alive()


def test_error_in_a_late_group_keeps_its_exit_code(monkeypatch, tmp_path, capsys):
    """A range error raised by a late group of a norm exits 2, as it would
    from a single thread, and writes no record."""
    monkeypatch.setattr(quadrature, "WORKERS", 3)
    u, _ = _failing_late(30, ParameterOutOfRange)
    monkeypatch.setattr(cli, "field_from_spec", lambda spec, space: u)
    args = ["norm", "--n", "1", "--s", "0.3", "--p", "2", "--a", "0.1", "--samples", "65536",
            "--out", str(tmp_path)]
    assert cli.main(args) == 2
    assert "call 30" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert not _workers_alive()


def _failing_pair(fail_at: int):
    """A smooth pair integrand, raising QuadratureFailure from its
    ``fail_at``-th call on."""
    calls = _Calls()

    def g(x, y, d=None):
        if calls.next() >= fail_at:
            raise QuadratureFailure(f"call {fail_at}")
        return np.exp(-(x * x + y * y)[..., 0])

    return g, calls


def test_error_in_a_late_row_group_propagates_after_every_worker_stops(monkeypatch):
    """A pair oracle's row group raising after others succeeded surfaces
    with its own type on the calling thread, and no worker outlives the
    oracle."""
    monkeypatch.setattr(quadrature, "WORKERS", 3)
    # grids of 256, 512 and 1,024 cells fill each sign in 2, 7 and 25 row
    # groups: call 30 is the 12th row group of the finest grid's first sign
    g, calls = _failing_pair(30)
    spec = QuadratureSpec(method=METHOD_TENSOR_ORACLE, grid_points=1024)
    with pytest.raises(QuadratureFailure, match="call 30"):
        _bounded(lambda: oracle_pair_integral_1d(g, 0.1, 0.1, 1.0, 2.0, spec))
    assert 30 <= calls.count < 30 + 3  # no row group is taken after the failure
    assert not _workers_alive()


def test_error_in_a_late_row_group_keeps_its_exit_code(monkeypatch, tmp_path, capsys):
    """A range error raised in a late row group of an oracle verify exits 2,
    as it would from a single thread, and writes no record."""
    monkeypatch.setattr(quadrature, "WORKERS", 3)
    # the lift reads u twice per call of g: the denominator's grids of 128,
    # 256 and 512 cells make 4, 8 and 28 reads, so read 30 falls in the
    # finest grid's second sign
    u, _ = _failing_late(30, ParameterOutOfRange)
    monkeypatch.setattr(cli, "field_from_spec", lambda spec, space: u)
    args = ["verify", "prop-4.4", "--n", "1", "--s", "0.3", "--p", "2", "--a", "0.1", "--conv-grid", "8",
            "--method", "tensor_oracle_1d", "--grid-points", "512", "--out", str(tmp_path)]
    assert cli.main(args) == 2
    assert "call 30" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert not _workers_alive()


def test_fold_inside_a_worker_runs_inline(monkeypatch):
    """An integrand that runs a fold of its own completes: the inner fold
    runs on the worker that called it, and gives what it gives alone."""
    monkeypatch.setattr(quadrature, "WORKERS", 3)
    inner_spec = QuadratureSpec(samples=1 << 14, seed=9)  # 4 groups on its own
    inner_values, threads_off, lock = [], [], threading.Lock()

    def inner(z):
        return np.exp(-np.sum(z * z, axis=1))

    def outer(z):
        me = threading.get_ident()

        def watched(w):
            if threading.get_ident() != me:
                with lock:
                    threads_off.append(threading.get_ident())
            return inner(w)

        value = ball_average(watched, 2, 0.5, inner_spec).value
        with lock:
            inner_values.append(value)
        return np.full(len(z), value)

    _bounded(lambda: ball_average(outer, 2, 1.0, QuadratureSpec(samples=1 << 16, seed=8)))
    assert len(inner_values) == 16 and not threads_off
    assert set(inner_values) == {ball_average(inner, 2, 0.5, inner_spec).value}
    assert not _workers_alive()


def test_many_workers_lose_no_group(monkeypatch):
    """More workers than CPUs, switching threads as often as the interpreter
    allows: each of 64 groups is evaluated exactly once, and the estimate
    is the single worker's to the bit."""
    calls = _Calls()

    def f(z):
        calls.next()
        return 1.0 / (0.1 + np.sum(z * z, axis=1))

    spec = QuadratureSpec(samples=1 << 18, seed=12)  # one chunk per group
    monkeypatch.setattr(quadrature, "WORKERS", 1)
    single = ball_average(f, 1, 0.7, spec)
    assert calls.count == 64
    monkeypatch.setattr(quadrature, "WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = _bounded(lambda: ball_average(f, 1, 0.7, spec))
    finally:
        sys.setswitchinterval(interval)
    assert calls.count == 2 * 64
    assert many == single
    assert not _workers_alive()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mollify_shares_the_block_between_workers(workers, monkeypatch):
    """No call of the convolved field evaluates more than CONV_BLOCK //
    WORKERS (point, node) pairs, and full blocks use that budget."""
    monkeypatch.setattr(quadrature, "WORKERS", workers)
    u, sizes, lock = smooth_bump_field(1.0), [], threading.Lock()

    def evaluate(x):
        with lock:
            sizes.append(int(np.prod(x.shape[:-1])))
        return u(x)

    counted = ScalarField(u.label, evaluate, u.support_radius, u.smoothness)
    nodes = len(smoothing.conv_nodes(default_mollifier(1), 0.1, 1, 128)[1])
    x = np.linspace(-1.0, 1.0, 10_000)[:, None]
    smoothing.convolve(counted, 0.1, default_mollifier(1), x, 128)
    budget = smoothing.CONV_BLOCK // workers
    assert max(sizes) == budget // nodes * nodes <= budget
    assert sum(sizes) == len(x) * nodes
