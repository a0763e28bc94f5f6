"""Recompute ``reference.json``, the values every estimator op is checked against.

    python3 perfbench/make_reference.py [--jobs 2]

run from the root of a checkout.  Three tables:

* ``oracle``: every n=1 fixture by the tensor oracle at grid 2048 (twice
  the grid of the oracle-1d ops; the grid of acceptance criterion 01).
* ``norm-mc`` (n = 2, 3) and ``approx-conv`` (n = 1, 2): the mean of
  REFERENCE_RUNS Monte Carlo runs at the op's own budget, on seeds no op
  draws, with stderr sqrt(sum stderr_i^2) / REFERENCE_RUNS.

This takes about ten minutes on one core.  Rerun it only when the
program's numbers are meant to change, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as W  # noqa: E402

REFERENCE_RUNS = 16
REFERENCE_SEED_BASE = 1 << 32


def fixtures() -> list:
    out = [("oracle", name, 1, s, p, frac)
           for name in sorted(set(W.NORM_MC_FIELDS) | set(W.ORACLE_FIELDS))
           for s, p in W.SP_SET for frac in W.A_FRACS]
    for workload in ("norm-mc", "approx-conv"):
        out += [(workload, *config, frac) for config, frac in dict.fromkeys(W.cycle_slots(workload))
                if workload == "approx-conv" or config[1] != 1]
    return out


def _init(checkout: str) -> None:
    W.load_package(checkout)


def compute(fx: tuple) -> tuple:
    from sobolev_wlab import fields, norms, params, smoothing
    from sobolev_wlab.quadrature import METHOD_TENSOR_ORACLE, QuadratureSpec

    table, name, n, s, p, frac = fx
    P = params.validate_params(n, s, p, W.a_value(n, s, p, frac))
    u = W.make_catalog_field(name)
    if table == "oracle":
        spec = QuadratureSpec(method=METHOD_TENSOR_ORACLE, grid_points=W.REFERENCE_ORACLE_GRID)
        rep = norms.norm_full(u, P, spec)
        entry = {"seminorm": [rep.seminorm.value, rep.seminorm.stderr],
                 "lpstar": [rep.lpstar.value, rep.lpstar.stderr]}
        return table, W.fixture_key(name, n, s, p, frac), entry
    if table == "approx-conv":
        rho = smoothing.pipeline_rho(u, W.APPROX_J, W.APPROX_EPS, fields.default_cutoff(),
                                     fields.default_mollifier(n), W.APPROX_CONV_GRID)
        u = fields.subtract(u, rho)
        samples = W.APPROX_SAMPLES[n]
    else:
        samples = W.NORM_MC_SAMPLES
    runs = [norms.norm_full(u, P, QuadratureSpec(samples=samples, seed=REFERENCE_SEED_BASE + i))
            for i in range(REFERENCE_RUNS)]
    entry = {}
    for half in ("seminorm", "lpstar"):
        ests = [getattr(r, half) for r in runs]
        value = sum(e.value for e in ests) / len(ests)
        stderr = math.sqrt(sum(e.stderr**2 for e in ests)) / len(ests)
        entry[half] = [value, stderr]
    return table, W.fixture_key(name, n, s, p, frac), entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()
    checkout = os.getcwd()
    todo = fixtures()
    ctx = multiprocessing.get_context("spawn")
    refs: dict = {
        "about": (
            "oracle: tensor oracle at grid %d; norm-mc, approx-conv: mean of %d Monte Carlo runs "
            "at the op budget, seeds %d + i, stderr sqrt(sum stderr_i^2)/%d"
            % (W.REFERENCE_ORACLE_GRID, REFERENCE_RUNS, REFERENCE_SEED_BASE, REFERENCE_RUNS)
        ),
        "oracle": {}, "norm-mc": {}, "approx-conv": {},
    }
    with ctx.Pool(args.jobs, initializer=_init, initargs=(checkout,)) as pool:
        for i, (table, key, entry) in enumerate(pool.imap_unordered(compute, todo), start=1):
            refs[table][key] = entry
            print(f"[{i}/{len(todo)}] {table} {key}", flush=True)
    with open(W.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
