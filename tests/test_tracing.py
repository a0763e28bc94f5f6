"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps package
functions by replacing the module attributes their callers look up.  A
rename, or a call that bypasses the looked-up name, would break only that
run; this checks the names and the call path from the test suite."""

import importlib.util
import os
import sys

from sobolev_wlab import WeightKind, cli, norms, smoothing, validate_params, verification

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "tracing.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.Tracer()


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
