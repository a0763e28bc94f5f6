"""The benchmark calls the package from outside: its workloads
(`perfbench/workloads.py`) through public functions, fields rebuilt with
``dataclasses.replace`` and the CLI, and its traced run
(`perfbench/run.py --trace 1`) by replacing the module attributes their
callers look up.  A rename, a changed signature or a call that bypasses
the looked-up name would break only the benchmark; this runs those calls,
from the unedited benchmark files, in the test suite."""

import importlib.util
import os
import sys

import pytest

from sobolev_wlab import WeightKind, cli, norms, smoothing, validate_params, verification

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _perfbench("tracing").Tracer()


def test_tracer_installs_restores_and_times_the_weight_bound():
    modules = (cli, norms, smoothing, verification)
    before = [dict(vars(m)) for m in modules]
    tracer = _tracer()
    tracer.install()
    try:
        patched = {(m.__name__, name) for m, old in zip(modules, before)
                   for name, value in vars(m).items() if old.get(name) is not value}
        assert ("sobolev_wlab.verification", "ball_average") in patched
        assert ("sobolev_wlab.cli", "check_averaged_weight_bound") in patched
        params = validate_params(2, 0.5, 2.0, 0.3)
        cli.check_averaged_weight_bound(WeightKind.PAIR, params, 4, 7)
    finally:
        tracer.restore()
    assert [dict(vars(m)) for m in modules] == before
    # 4 first averages and 4 refined: the top 4 of all trials hold the
    # top 2 of the first half
    bound = [i for i, s in enumerate(tracer.spans) if s.name == "verification.weight_bound"]
    balls = [s for s in tracer.spans if s.name == "quadrature.ball_average"]
    assert len(bound) == 1
    assert len(balls) == 8
    assert all(s.parent == bound[0] for s in balls)


@pytest.fixture(scope="module")
def workloads():
    return _perfbench("workloads")


@pytest.mark.parametrize("workload", ["norm-mc", "approx-conv", "oracle-1d", "verify-weights"])
def test_benchmark_op_passes_its_check_and_repeats(workload, workloads, tmp_path):
    """The first op of a workload's first cycle runs as the benchmark runs
    it, passes the benchmark's check and repeats its output to the bit."""
    ctx = workloads.setup(workload, str(tmp_path))
    op = workloads.OpStream(workload, 7).next_cycle()[0]
    first = workloads.run_op(op, ctx)
    assert workloads.check_op(op, first, ctx.references) is None
    assert workloads.run_op(op, ctx).fingerprint() == first.fingerprint()


def test_benchmark_traced_op_is_bit_identical(workloads, tmp_path):
    """The traced run times every field evaluation through a field rebuilt
    with a timed evaluator, and must change no output bit."""
    ctx = workloads.setup("norm-mc", str(tmp_path))
    op = workloads.OpStream("norm-mc", 7).next_cycle()[0]
    untraced = workloads.run_op(op, ctx)
    tracer = _tracer()
    tracer.install()
    try:
        traced = tracer.run_op(lambda: workloads.run_op(op, ctx, wrap_field=tracer.wrap_field))
    finally:
        tracer.restore()
    assert any(span.name == "fields.eval" for span in tracer.spans)
    assert traced.fingerprint() == untraced.fingerprint()


def test_benchmark_traced_first_op_builds_tables_bit_identical(workloads, tmp_path):
    """On a fresh approx-conv context the first op builds the tables of its
    rho; traced, it builds them through the tracer's patched
    ``smoothing.convolve``, and its output must still be the untraced op's
    to the bit."""
    op = workloads.OpStream("approx-conv", 7).next_cycle()[0]
    untraced = workloads.run_op(op, workloads.setup("approx-conv", str(tmp_path)))
    ctx = workloads.setup("approx-conv", str(tmp_path))
    tracer = _tracer()
    tracer.install()
    try:
        traced = tracer.run_op(lambda: workloads.run_op(op, ctx, wrap_field=tracer.wrap_field))
    finally:
        tracer.restore()
    assert any(span.name == "smoothing.convolve" for span in tracer.spans)
    assert traced.fingerprint() == untraced.fingerprint()
