"""Checks of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest -q perfbench/test_perfbench.py

run from the root of a checkout.
"""

import copy
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

W.load_package(ROOT)


def _n1_norm_mc_ops(count):
    stream = W.OpStream("norm-mc", seed=5)
    ops = []
    while len(ops) < count:
        ops += [op for op in stream.next_cycle() if op.config[1] == 1]
    return ops[:count]


def _error_rate(ctx, ops):
    log = child.OpLog()
    for op in ops:
        _, _, error = child.attempt(op, ctx)
        log.add(op, error)
    return log.failed / log.attempted


def test_corrupted_reference_raises_error_rate():
    refs = W.load_references()
    ops = _n1_norm_mc_ops(2)
    assert _error_rate(W.setup("norm-mc", None, refs), ops) == 0.0
    bad = copy.deepcopy(refs)
    for entry in bad["oracle"].values():
        entry["seminorm"][0] *= 1.10
    assert _error_rate(W.setup("norm-mc", None, bad), ops) == 1.0


def _verify_result(verdict="BoundedStable", constant=math.pi, seed=11, code=0):
    record = {"verdicts": [verdict], "config": {"seed": seed},
              "outputs": {"report": {"measured_constant": constant}}}
    return W.OpResult(estimates={}, record=record, exit_code=code)


def test_verify_check_needs_pass_verdict_seed_and_pi():
    op = W.Op("verify-weights", ("prop-4.2", 2, 0.5, 2.0), 0.0, 11)
    assert W.check_op(op, _verify_result(), {}) is None
    assert W.check_op(op, _verify_result(verdict="Unstable"), {}) is not None
    assert W.check_op(op, _verify_result(code=1), {}) is not None
    assert W.check_op(op, _verify_result(seed=12), {}) is not None
    assert W.check_op(op, _verify_result(constant=math.pi + 1e-9), {}) is not None


def test_traced_op_is_bit_identical_and_recorded():
    ctx = W.setup("norm-mc", None)
    op = _n1_norm_mc_ops(1)[0]
    plain = W.run_op(op, ctx)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = tracer.run_op(lambda: W.run_op(op, ctx, wrap_field=tracer.wrap_field))
    finally:
        tracer.restore()
    assert traced.fingerprint() == plain.fingerprint()
    layers = tracer.summarize([plain.samples], [1.0], [1.0], [plain.full_rel_stderr()])
    # 8 field points per sample for the seminorm, 1 for the critical norm
    assert layers["fields.points_per_sample"] == 9.0
    assert layers["quadrature.mc.samples"] == 2 * W.NORM_MC_SAMPLES
    assert layers["smoothing.convolve.points"] == 0
    assert W.run_op(op, ctx).fingerprint() == plain.fingerprint()


def test_child_environment_is_hermetic(monkeypatch):
    monkeypatch.setenv("SOBOLEV_WLAB_SEED", "99")
    env = run.hermetic_env("/tmp/x")
    assert "SOBOLEV_WLAB_SEED" not in env
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == str(run.BLAS_THREADS)
    assert run.BLAS_THREADS <= os.cpu_count()


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_every_fixture_has_a_reference(workload):
    if workload == "verify-weights":
        return
    refs = W.load_references()
    for config, frac in W.cycle_slots(workload):
        ref = W.reference_for(W.Op(workload, config, frac, 0), refs)
        assert set(ref) == {"seminorm", "lpstar"}
