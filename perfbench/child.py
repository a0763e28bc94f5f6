"""One workload in its own single-threaded process; started by run.py.

Prints one JSON object as its last line of output: the raw per-op data
(wall time, precision, distance from the reference), set-up time, peak
RSS, ops attempted and failed (checks and determinism), the machine block
and, for a traced run, the per-layer metrics.  run.py turns these into
the reported metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

MAX_ERRORS_KEPT = 5


class OpLog:
    """Ops attempted, ops failed, and the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def add(self, op: W.Op, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(f"{op.label()}: {error}")


def attempt(op: W.Op, ctx: W.Context, run=None):
    """Run and check one op; returns (wall seconds, result or None, error or None).
    A raising op is a failed op, so this is the boundary that keeps running."""
    run = run or (lambda: W.run_op(op, ctx))
    t0 = time.perf_counter()
    try:
        result = run()
    except Exception as exc:
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return wall, result, W.check_op(op, result, ctx.references)


def closed_loop(stream: W.OpStream, ctx: W.Context, seconds: float, log: OpLog, tracer=None):
    """One client, next op when the last returns, whole cycles only: a new
    cycle starts while its projected midpoint lies within ``seconds``, so
    the loop ends at the cycle boundary nearest to ``seconds``.

    The first op runs once untimed before the loop, as a warm-up, and its
    timed run must repeat that output bit for bit.  With a ``tracer``,
    every op runs again right after its timed run with every layer
    wrapped, and that output too must be bit-identical.

    Returns the records (op, wall seconds, result), the loop's wall time
    and, with a tracer, each op's traced wall time."""
    cycle = stream.next_cycle()
    _, warm, warm_error = attempt(cycle[0], ctx)
    records, traced_walls, cycles = [], [], 0
    t0 = time.monotonic()
    while True:
        for op in cycle:
            wall, result, error = attempt(op, ctx)
            log.add(op, error)
            records.append((op, wall, result))
            if tracer is not None:
                traced_walls.append(traced_attempt(op, ctx, result, log, tracer))
        cycles += 1
        elapsed = time.monotonic() - t0
        if elapsed + 0.5 * elapsed / cycles > seconds:
            break
        cycle = stream.next_cycle()
    phase_s = time.monotonic() - t0
    op, _, first = records[0]
    log.add(op, warm_error or (None if _same(warm, first) else "rerun at the same seed is not bit-identical"))
    return records, phase_s, traced_walls


def traced_attempt(op: W.Op, ctx: W.Context, untraced, log: OpLog, tracer) -> float:
    """Run ``op`` with every layer wrapped; its output must be bit-identical
    to the untraced run's.  Returns the traced wall time."""
    tracer.install()
    try:
        wall, traced, error = attempt(
            op, ctx, run=lambda: tracer.run_op(lambda: W.run_op(op, ctx, wrap_field=tracer.wrap_field))
        )
    finally:
        tracer.restore()
    log.add(op, error or (None if _same(traced, untraced) else "traced output differs from untraced"))
    return wall


def _same(result, first) -> bool:
    return result is not None and first is not None and result.fingerprint() == first.fingerprint()


def blas_threads():
    """Threads OpenBLAS reports, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_block(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--work-dir", required=True, help="scratch directory inside the checkout")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    W.load_package(os.getcwd())
    out_dir = tempfile.mkdtemp(prefix="cli-", dir=args.work_dir)
    try:
        ctx = W.setup(args.workload, out_dir)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        log = OpLog()
        stream = W.OpStream(args.workload, args.seed)
        tracer = Tracer() if args.trace else None
        records, phase_s, traced_walls = closed_loop(stream, ctx, args.seconds, log, tracer)
        layers = None
        if tracer is not None:
            tracer.write(os.path.join(args.work_dir, f"spans-{args.workload}-{args.seed}.json"))
            layers = tracer.summarize(
                op_samples=[r.samples if r else 0 for _, _, r in records],
                untraced_walls=[wall for _, wall, _ in records],
                traced_walls=traced_walls,
                rel_stderrs=[r.full_rel_stderr() if r else None for _, _, r in records],
            )
        out = {
            "workload": args.workload,
            "setup_s": setup_s,
            "phase_s": phase_s,
            "ops": [
                {"op": op.label(), "wall_s": wall,
                 "rel_stderr": result.full_rel_stderr() if result else None,
                 "gap_stderrs": W.gap_in_stderrs(op, result, ctx.references) if result and result.estimates else None}
                for op, wall, result in records
            ],
            "layers": layers,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "machine": machine_block(args.seed),
        }
        out.update(attempted=log.attempted, failed=log.failed, errors=log.errors)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
