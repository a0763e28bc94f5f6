"""Outside-in layer tracing for the traced run.

The program is not edited: a span is recorded around every call the
benchmark can reach from outside, by replacing a module attribute that
the calling module looks up at call time, and by giving a field a timed
evaluator with ``dataclasses.replace`` (the label, and so every spec
digest and estimate, stays the same).  Spans live in memory with their
parent and are written out once, at the end of the run.

Layer of a span = its name up to the first dot.  A span's self time is
its duration minus the durations of its child spans.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time
from typing import Callable, Optional

import numpy as np

# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "quadrature.mc.self_s": "s",
    "quadrature.mc.samples": "count",
    "quadrature.rel_stderr": "ratio",
    "quadrature.ttp_s.p50": "s",
    "quadrature.oracle.self_s": "s",
    "quadrature.ball_average.calls": "count",
    "quadrature.ball_average.s": "s",
    "quadrature.ball_average.s_per_call": "s",
    "fields.eval.calls": "count",
    "fields.eval.points": "count",
    "fields.eval.s": "s",
    "fields.points_per_sample": "count",
    "smoothing.convolve.points": "count",
    "smoothing.convolve.inner_points": "count",
    "smoothing.convolve.self_s": "s",
    "smoothing.convolve.block_mb": "MB",
    "smoothing.conv_nodes.calls": "count",
    "smoothing.conv_nodes.s": "s",
    "norms.seminorm.s": "s",
    "norms.lpstar.s": "s",
    "verification.weight_bound.s": "s",
    "verification.weight_bound.self_s": "s",
    "reporting.write.s": "s",
    "reporting.write.bytes": "B",
    "cli.main.s": "s",
    "share.quadrature": "ratio",
    "share.fields": "ratio",
    "share.smoothing": "ratio",
    "share.norms": "ratio",
    "share.verification": "ratio",
    "share.reporting": "ratio",
    "share.cli": "ratio",
    "trace.ops_per_s_ratio": "ratio",
}

LAYERS = ("quadrature", "fields", "smoothing", "norms", "verification", "reporting", "cli")

OP_SPAN = "op"
FIELD_SPAN = "fields.eval"
CONVOLVE_SPAN = "smoothing.convolve"


@dataclasses.dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for an op span
    t0: float
    t1: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)


def _points(x) -> int:
    return int(np.prod(np.shape(x)[:-1], dtype=np.int64))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter(), attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].t1 = time.perf_counter()
        self._stack.pop()

    def run_op(self, fn: Callable):
        index = self._open(OP_SPAN, {})
        try:
            return fn()
        finally:
            self._close(index)

    def timed(self, fn: Callable, name: str, before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        """fn inside a span; ``before(*args)`` and ``after(result)`` give its
        attributes and run outside the timed interval."""

        def wrapper(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            index = self._open(name, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after:
                self.spans[index].attrs.update(after(out))
            return out

        return wrapper

    def wrap_field(self, u):
        """The same field with a timed evaluator."""
        return dataclasses.replace(
            u, evaluator=self.timed(u.evaluator, FIELD_SPAN, before=lambda x: {"points": _points(x)})
        )

    # -- patching module attributes --------------------------------------

    def _patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every public function the workloads reach, through the
        attribute its caller looks up."""
        from sobolev_wlab import cli, norms, smoothing, verification

        def samples(est):
            return {"samples": est.samples_used}

        for attr in ("estimate_pair_integral_singular", "estimate_weighted_integral_Rn"):
            self._patch(norms, attr, self.timed(getattr(norms, attr), "quadrature.mc", after=samples))
        for attr in ("oracle_pair_integral_1d", "oracle_weighted_integral_1d"):
            self._patch(norms, attr, self.timed(getattr(norms, attr), "quadrature.oracle"))
        self._patch(norms, "seminorm_wspa", self.timed(norms.seminorm_wspa, "norms.seminorm"))
        self._patch(norms, "norm_lpstar_a", self.timed(norms.norm_lpstar_a, "norms.lpstar"))
        self._patch(smoothing, "conv_nodes", self.timed(smoothing.conv_nodes, "smoothing.conv_nodes"))

        timed_convolve = self.timed(
            smoothing.convolve, CONVOLVE_SPAN,
            before=lambda u, eps, profile, x, *a, **k: {"points": _points(x), "n": np.shape(x)[-1]},
        )

        def convolve(u, epsilon, profile, x, *args, **kwargs):
            # the inner field is built inside pipeline_rho; time it here
            return timed_convolve(self.wrap_field(u), epsilon, profile, x, *args, **kwargs)

        self._patch(smoothing, "convolve", convolve)
        self._patch(verification, "ball_average",
                    self.timed(verification.ball_average, "quadrature.ball_average"))
        self._patch(cli, "check_averaged_weight_bound",
                    self.timed(cli.check_averaged_weight_bound, "verification.weight_bound"))
        self._patch(cli, "write_outputs", self.timed(cli.write_outputs, "reporting.write", after=_file_bytes))
        self._patch(cli, "main", self.timed(cli.main, "cli.main"))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.parent, s.t0, s.t1, s.attrs] for s in self.spans], fh)

    # -- summary ----------------------------------------------------------

    def summarize(self, op_samples: list, untraced_walls: list, traced_walls: list, rel_stderrs: list) -> dict:
        """Per-layer metrics over the traced ops.  Times and counts are per
        op (totals over the traced ops / their number).  ``op_samples`` is
        each op's Monte Carlo budget; ``untraced_walls`` and ``rel_stderrs``
        come from an untraced run of each op just before its traced run,
        which took ``traced_walls``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.t1 - s.t0
        dur = [s.t1 - s.t0 for s in spans]
        self_time = [d - c for d, c in zip(dur, child_time)]

        def total(name, values=dur):
            return sum(v for s, v in zip(spans, values) if s.name == name)

        def count(name):
            return sum(1 for s in spans if s.name == name)

        def attr(name, key, where=lambda s: True):
            return sum(s.attrs.get(key, 0) for s in spans if s.name == name and where(s))

        def inner(s):
            return s.parent >= 0 and spans[s.parent].name == CONVOLVE_SPAN

        ops = count(OP_SPAN)
        op_time = total(OP_SPAN)
        block_bytes = [0] * len(spans)
        for s in spans:
            if s.name == FIELD_SPAN and inner(s):
                block_bytes[s.parent] += s.attrs["points"] * spans[s.parent].attrs["n"] * 8
        ball_calls = count("quadrature.ball_average")
        mc_budget = sum(op_samples)
        ttp = [w * r * r for w, r in zip(untraced_walls, rel_stderrs) if r is not None]
        rel = [r for r in rel_stderrs if r is not None]
        m = {
            "quadrature.mc.self_s": total("quadrature.mc", self_time) / ops,
            "quadrature.mc.samples": attr("quadrature.mc", "samples") / ops,
            "quadrature.rel_stderr": statistics.median(rel) if rel else 0.0,
            "quadrature.ttp_s.p50": statistics.median(ttp) if ttp else 0.0,
            "quadrature.oracle.self_s": total("quadrature.oracle", self_time) / ops,
            "quadrature.ball_average.calls": ball_calls / ops,
            "quadrature.ball_average.s": total("quadrature.ball_average") / ops,
            "quadrature.ball_average.s_per_call": (
                total("quadrature.ball_average") / ball_calls if ball_calls else 0.0
            ),
            "fields.eval.calls": count(FIELD_SPAN) / ops,
            "fields.eval.points": attr(FIELD_SPAN, "points") / ops,
            "fields.eval.s": total(FIELD_SPAN) / ops,
            "fields.points_per_sample": (
                attr(FIELD_SPAN, "points", lambda s: not inner(s)) / mc_budget if mc_budget else 0.0
            ),
            "smoothing.convolve.points": attr(CONVOLVE_SPAN, "points") / ops,
            "smoothing.convolve.inner_points": attr(FIELD_SPAN, "points", inner) / ops,
            "smoothing.convolve.self_s": total(CONVOLVE_SPAN, self_time) / ops,
            "smoothing.convolve.block_mb": max(block_bytes, default=0) / 1e6,
            "smoothing.conv_nodes.calls": count("smoothing.conv_nodes") / ops,
            "smoothing.conv_nodes.s": total("smoothing.conv_nodes") / ops,
            "norms.seminorm.s": total("norms.seminorm") / ops,
            "norms.lpstar.s": total("norms.lpstar") / ops,
            "verification.weight_bound.s": total("verification.weight_bound") / ops,
            "verification.weight_bound.self_s": total("verification.weight_bound", self_time) / ops,
            "reporting.write.s": total("reporting.write") / ops,
            "reporting.write.bytes": attr("reporting.write", "bytes") / ops,
            "cli.main.s": total("cli.main") / ops,
            "trace.ops_per_s_ratio": sum(untraced_walls) / sum(traced_walls),
        }
        for layer in LAYERS:
            layer_self = sum(v for s, v in zip(spans, self_time) if s.name.split(".", 1)[0] == layer)
            m[f"share.{layer}"] = layer_self / op_time
        return m


def _file_bytes(paths) -> dict:
    return {"bytes": sum(os.path.getsize(p) for p in paths)}
