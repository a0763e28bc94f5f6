"""Benchmark of sobolev-wlab: one workload per call, in a child process.

    python3 perfbench/run.py --workload norm-mc --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  ``--workload all`` runs the four workloads one after another.
Each workload runs in a fresh single-threaded child (BLAS pinned to one
thread, ``SOBOLEV_WLAB_SEED`` removed) as a closed loop with one client.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every op
a second time with every layer wrapped and reports the per-layer metrics.
The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Scratch output and a
full result file go to ``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import LAYER_METRICS  # noqa: E402
from workloads import CRITERION_STDERRS, WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_s.p50": "s", "peak_rss_mb": "MB"}
SETUP_RUNS = 5  # set-ups per untraced run: SETUP_RUNS - 1 set-up-only children plus the workload's own
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30
P90_MIN_OPS = 100  # at least 10 ops beyond the 90th percentile


class BenchError(Exception):
    pass


def hermetic_env(work_dir: str) -> dict:
    env = dict(os.environ)
    # cli.parse_config lets this override --seed
    env.pop("SOBOLEV_WLAB_SEED", None)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = work_dir
    return env


def spawn(args: list, env: dict, work_dir: str, timeout: float) -> dict:
    """Start child.py, wait for it, and return its last output line as JSON."""
    stamp = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args,
           "--spawned-at", repr(stamp), "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {' '.join(args)} timed out after {timeout} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: int, work_dir: str) -> dict:
    env = hermetic_env(work_dir)
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(spawn(base + ["--seconds", "0", "--setup-only"], env, work_dir, SETUP_TIMEOUT_S)["setup_s"])
    child = spawn(base + ["--seconds", str(seconds), "--trace", str(trace)], env, work_dir, CHILD_TIMEOUT_S)
    setups.append(child["setup_s"])
    child["setup_runs_s"] = setups
    return child


def report(child: dict, trace: int) -> dict:
    """Metrics as printed; the gated ones go into the last line."""
    if trace:
        gated = {k: (child["layers"][k], unit) for k, unit in LAYER_METRICS.items()}
        shown = {}
    else:
        walls = [o["wall_s"] for o in child["ops"]]
        values = {
            "setup_s": statistics.median(child["setup_runs_s"]),
            "ops_per_s": len(walls) / child["phase_s"],
            "op_s.p50": statistics.median(walls),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        gated = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        ttp = [o["wall_s"] * o["rel_stderr"] ** 2 for o in child["ops"] if o["rel_stderr"] is not None]
        shown = {
            "op_s.p90": (statistics.quantiles(walls, n=10)[-1], "s") if len(walls) >= P90_MIN_OPS else None,
            "ttp_s.p50": (statistics.median(ttp), "s") if ttp else None,
        }
    gaps = [o["gap_stderrs"] for o in child["ops"] if o["gap_stderrs"] is not None]
    if gaps:
        shown["ops_beyond_3_stderr_sums"] = (sum(g > CRITERION_STDERRS for g in gaps), "count")
        shown["gap_stderrs.max"] = (max(gaps), "ratio")
    shown["error_rate"] = (child["failed"] / child["attempted"], "ratio")
    return {"gated": gated, "shown": shown}


def print_report(workload: str, child: dict, metrics: dict) -> None:
    traced = " (each also traced)" if child["layers"] else ""
    print(f"== {workload}: {len(child['ops'])} timed ops{traced} in {child['phase_s']:.2f} s, "
          f"{child['attempted']} attempted, {child['failed']} failed")
    for name, val in {**metrics["gated"], **metrics["shown"]}.items():
        if val is None:
            print(f"  {name:36s} not reported on this workload")
        else:
            print(f"  {name:36s} {val[0]:.6g} {val[1]}")
    for err in child["errors"]:
        print(f"  failed: {err}")
    print("  machine: " + json.dumps(child["machine"], sort_keys=True))


def result_line(child: dict, metrics: dict) -> dict:
    return {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics["gated"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "src", "sobolev_wlab", "__init__.py")):
        print("error: run from the root of a sobolev-wlab checkout (no src/sobolev_wlab here)", file=sys.stderr)
        return 2
    work_dir = os.path.join(checkout, ".bench_build", "perfbench")
    os.makedirs(work_dir, exist_ok=True)

    lines = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            child = measure(workload, args.seed, args.seconds, args.trace, work_dir)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        metrics = report(child, args.trace)
        print_report(workload, child, metrics)
        path = os.path.join(work_dir, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"child": child, "metrics": metrics}, fh, indent=1)
        lines.append((workload, result_line(child, metrics)))

    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for _, r in lines),
            "attempted": sum(r["attempted"] for _, r in lines),
            "failed": sum(r["failed"] for _, r in lines),
            "metrics": {f"{w}.{k}": v for w, r in lines for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
