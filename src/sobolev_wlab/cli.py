"""Command-line surface.

Commands: norm, approx, verify <statement-id>, sweep, catalog list.
Precedence: CLI flags > config file keys > built-in defaults.  The config
file is flat UTF-8 ``key = value`` lines with ``#`` comments; lists are
comma-separated.  SOBOLEV_WLAB_SEED overrides any configured seed.

Exit codes: 0 pass, 1 verdict failure, 2 usage or range error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominator,
    IoError,
    NonNormalizableDensity,
    OracleUnavailable,
    ParameterOutOfRange,
    QuadratureFailure,
    RangeViolation,
    UnknownCatalogId,
    UsageError,
)
from .fields import (
    _CATALOG_IDS,
    default_cutoff,
    default_mollifier,
    field_from_spec,
    hat_1d_field,
    lift_difference_quotient,
    make_field,
    polynomial_tail_field,
    smooth_bump_field,
    subtract,
)
from .norms import norm_full
from .params import WeightKind, validate_general_weights, validate_params
from .quadrature import METHOD_MONTE_CARLO, METHOD_TENSOR_ORACLE, QuadratureSpec
from .reporting import make_record, write_outputs
from .smoothing import pipeline_rho
from .verification import (
    check_averaged_weight_bound,
    check_commutation_identity,
    check_finiteness_smooth,
    check_maximal_bound,
    check_sobolev_inequality,
    check_star_convolution_bound,
    estimate_unstable,
    run_clipping_convergence,
    run_density_experiment,
    run_mollification_convergence,
    run_truncation_convergence,
)

STATEMENT_IDS = (
    "lemma-2.1",
    "lemma-3.1",
    "prop-4.1",
    "prop-4.2",
    "lemma-4.3",
    "prop-4.4",
    "prop-4.5",
    "lemma-5.1",
    "eq-6.4",
    "lemma-6.1",
    "theorem-1.1",
    "sobolev-ineq",
)

PASS_VERDICTS = {"BoundedStable", "Decreasing", "Success", "Pass", "AllStable"}


def _choice(*names):
    """A parser accepting only ``names``, which argparse also lists."""

    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return text

    parse.choices = names
    return parse


def _list(item):
    """A parser for a comma-separated list whose parts ``item`` accepts; the
    parts are kept as written, since records hold them."""

    def parse(text: str) -> list:
        parts = [part.strip() for part in text.split(",") if part.strip()]
        if not parts:
            raise ValueError("expected a comma-separated list")
        for part in parts:
            item(part)
        return parts

    return parse


def _finite(text: str) -> float:
    """A finite float: a range check written as a comparison (``x <= 0``)
    passes nan, and none of them refuses inf."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError("expected a finite number")
    return value


# every option: its default and the parser of its flag, config-file and
# environment text; --param and --values belong to sweep only
_OPTIONS = {
    "field": ("smooth_bump(R=1)", str),
    "n": (1, int),
    "s": (0.3, _finite),
    "p": (2.0, _finite),
    "a": (0.1, _finite),
    "method": (METHOD_MONTE_CARLO, _choice(METHOD_MONTE_CARLO, METHOD_TENSOR_ORACLE)),
    "samples": (64000, int),
    "grid_points": (4096, int),
    "seed": (0, int),
    "j": (1.0, _finite),
    "eps": (0.1, _finite),
    "conv_grid": (128, int),
    "trials": (2000, int),
    "delta_frac": (0.2, _finite),
    "ladder": (None, _list(_finite)),
    "param": (None, _choice("n", "s", "p", "a", "seed", "samples")),
    "values": (None, _list(str)),
    "out": ("results", str),
    "format": ("json", _list(_choice("json", "csv", "svg"))),
}
_SWEEP_ONLY = ("param", "values")


@dataclass(frozen=True)
class RunConfig:
    command: str
    statement_id: str
    options: dict


def _parse(key: str, text: str, source: str = ""):
    try:
        return _OPTIONS[key][1](text)
    except ValueError as exc:
        raise UsageError(f"{source}invalid {key} value {text!r}: {exc}") from exc


def read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IoError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for i, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{i}: expected 'key = value', got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{i}: unknown config key {key!r}")
        out[key] = _parse(key, value, f"{path}:{i}: ")
    return out


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    sweep_only = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=None)
    for key, (_, parse) in _OPTIONS.items():
        group = sweep_only if key in _SWEEP_ONLY else shared
        flag = "--" + key.replace("_", "-")
        group.add_argument(flag, choices=getattr(parse, "choices", None), default=None)

    parser = argparse.ArgumentParser(prog="sobolev-wlab", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("norm", parents=[shared])
    sub.add_parser("approx", parents=[shared])
    pv = sub.add_parser("verify", parents=[shared])
    pv.add_argument("statement_id", choices=STATEMENT_IDS)
    sub.add_parser("sweep", parents=[shared, sweep_only])
    pc = sub.add_parser("catalog", parents=[shared])
    pc.add_argument("action", choices=("list",))
    return parser


def parse_config(argv) -> RunConfig:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help: argparse printed the usage, nothing is left to run
            raise
        raise UsageError("invalid command line") from exc
    if ns.command is None:
        raise UsageError("missing command (norm | approx | verify | sweep | catalog)")

    options = {key: default for key, (default, _) in _OPTIONS.items()}
    if getattr(ns, "config", None):
        options.update(read_config_file(ns.config))
    for key in _OPTIONS:
        flag_val = getattr(ns, key, None)
        if flag_val is not None:
            options[key] = _parse(key, flag_val)
    env_seed = os.environ.get("SOBOLEV_WLAB_SEED")
    if env_seed is not None:
        options["seed"] = _parse("seed", env_seed, "SOBOLEV_WLAB_SEED: ")

    if ns.command == "sweep":
        if not options["param"] or not options["values"]:
            raise UsageError("sweep needs --param and --values")
        for raw in options["values"]:  # fail before the first run
            _parse(options["param"], raw, "values: ")
    statement_id = getattr(ns, "statement_id", "") or getattr(ns, "action", "")
    if ns.command in ("norm", "approx", "verify"):
        # fail fast on bad ranges before any computation
        _space(options)
    return RunConfig(command=ns.command, statement_id=statement_id, options=options)


def _space(options: dict):
    return validate_params(options["n"], options["s"], options["p"], options["a"])


def _spec(options: dict) -> QuadratureSpec:
    return QuadratureSpec(
        method=options["method"],
        samples=options["samples"],
        grid_points=options["grid_points"],
        seed=options["seed"],
    )


def _float_ladder(options: dict, default: list) -> list:
    if options["ladder"] is None:
        return list(default)
    return [float(v) for v in options["ladder"]]


def _write(config: RunConfig, outputs: dict, verdicts: list, stem: str) -> list:
    """Write the record of one run of ``config``; returns the written paths."""
    resolved = {**config.options, "command": config.command}
    if config.statement_id:
        resolved["statement_id"] = config.statement_id
    record = make_record(config.command, resolved, outputs, verdicts)
    return write_outputs(record, config.options["format"], config.options["out"], stem)


def _norm_verdict(report) -> str:
    """"Unstable" when the seminorm or the critical norm cannot be trusted,
    the rule lemma-2.1 applies to each of its estimates; else "Pass"."""
    return "Unstable" if estimate_unstable(report.seminorm) or estimate_unstable(report.lpstar) else "Pass"


def _run_norm(config: RunConfig) -> tuple:
    opts = config.options
    params = _space(opts)
    u = field_from_spec(opts["field"], space=params)
    report = norm_full(u, params, _spec(opts))
    return {"report": report}, [_norm_verdict(report)]


def _run_approx(config: RunConfig) -> tuple:
    opts = config.options
    params = _space(opts)
    u = field_from_spec(opts["field"], space=params)
    rho = pipeline_rho(
        u, opts["j"], opts["eps"], default_cutoff(), default_mollifier(params.n), opts["conv_grid"]
    )
    err = norm_full(subtract(u, rho), params, _spec(opts))
    return {
        "report": {
            "field": u.label,
            "rho": rho.label,
            "j": opts["j"],
            "epsilon": opts["eps"],
            "rho_support_radius": rho.support_radius,
            "rho_smoothness": rho.smoothness,
            "error": err,
        }
    }, [_norm_verdict(err)]


def _admissible_grid(params, count: int = 3) -> list:
    n, sp = params.n, params.sp
    lo = -0.9 * sp
    hi = 0.45 * n  # alpha + beta stays below 0.9 * n
    vals = np.linspace(lo, hi, count)
    return [validate_general_weights(params, float(al), float(be)) for al in vals for be in vals]


def _run_verify(config: RunConfig) -> tuple:
    opts = config.options
    sid = config.statement_id
    params = _space(opts)
    spec = _spec(opts)
    cutoff = default_cutoff()
    if sid in ("prop-4.1", "prop-4.2") and spec.method == METHOD_TENSOR_ORACLE:
        raise OracleUnavailable(f"{sid} is Monte Carlo only; it has no tensor-oracle path")

    extra = {}
    if sid == "lemma-2.1":
        rep = check_finiteness_smooth(smooth_bump_field(1.0), params, _admissible_grid(params), spec)
    elif sid == "lemma-3.1":
        rep = run_truncation_convergence(
            polynomial_tail_field(3.0), params, _float_ladder(opts, [1, 2, 4, 8, 16]), spec, cutoff
        )
    elif sid in ("prop-4.1", "prop-4.2"):
        kind = WeightKind.PAIR if sid == "prop-4.1" else WeightKind.POINT
        rep = check_averaged_weight_bound(kind, params, opts["trials"], opts["seed"])
    elif sid == "lemma-4.3":
        base = hat_1d_field() if params.n == 1 else smooth_bump_field(1.0)
        V = lift_difference_quotient(base, params)
        rep = check_maximal_bound(V, params, spec)
    elif sid in ("prop-4.4", "prop-4.5"):
        u = field_from_spec(opts["field"], space=params)
        entry = lift_difference_quotient(u, params) if sid == "prop-4.4" else u
        rep = check_star_convolution_bound(
            entry, params, default_mollifier(params.n), spec, conv_grid=opts["conv_grid"]
        )
    elif sid == "lemma-5.1":
        if params.n == 1:
            base = make_field("singular_spike", space=params, gamma=0.2, R=1.0)
        else:
            base = smooth_bump_field(1.0)
        v = lift_difference_quotient(base, params)
        rep = run_clipping_convergence(v, params, _float_ladder(opts, [1, 4, 16, 64, 256]), spec)
    elif sid == "eq-6.4":
        u = field_from_spec(opts["field"], space=params)
        rep = check_commutation_identity(
            u, params, opts["eps"], opts["seed"], default_mollifier(params.n), opts["conv_grid"]
        )
    elif sid == "lemma-6.1":
        u = field_from_spec(opts["field"], space=params)
        rep = run_mollification_convergence(
            u, params, _float_ladder(opts, [1, 0.5, 0.25, 0.1, 0.05]), spec,
            default_mollifier(params.n), opts["conv_grid"],
        )
    elif sid == "theorem-1.1":
        u = polynomial_tail_field(3.0)
        base = norm_full(u, params, spec)
        extra["base_norm"] = base
        rep = run_density_experiment(
            u, params, opts["delta_frac"] * base.full, spec, cutoff, default_mollifier(params.n),
            opts["conv_grid"],
        )
    elif sid == "sobolev-ineq":
        fields = [smooth_bump_field(1.0), smooth_bump_field(3.0)]
        rep = check_sobolev_inequality(fields, params, spec)
    else:
        raise UsageError(f"unknown statement id {sid!r}")
    return {"report": rep, **extra}, [rep["verdict"]]


def run_command(config: RunConfig) -> int:
    """Dispatch a parsed config; returns the exit code."""
    if config.command == "catalog":
        print("\n".join(_CATALOG_IDS))
        return 0

    if config.command == "sweep":
        opts = config.options
        key = opts["param"]
        subs = [RunConfig(command="norm", statement_id="", options={**opts, key: _parse(key, raw)})
                for raw in opts["values"]]
        for sub in subs:  # every point in range before the first run writes a record
            field_from_spec(sub.options["field"], space=_space(sub.options))
            _spec(sub.options)
        verdicts = []
        for i, sub in enumerate(subs):
            outputs, sub_verdicts = _run_norm(sub)
            _write(sub, outputs, sub_verdicts, f"sweep_{key}_{i}")
            verdicts += sub_verdicts
        print(f"sweep: wrote {len(opts['values'])} records to {opts['out']}")
        return 0 if all(v in PASS_VERDICTS for v in verdicts) else 1

    if config.command == "norm":
        outputs, verdicts = _run_norm(config)
    elif config.command == "approx":
        outputs, verdicts = _run_approx(config)
    elif config.command == "verify":
        outputs, verdicts = _run_verify(config)
    else:
        raise UsageError(f"unknown command {config.command!r}")

    stem = config.command if not config.statement_id else f"verify_{config.statement_id}"
    paths = _write(config, outputs, verdicts, stem)
    ok = all(v in PASS_VERDICTS for v in verdicts)
    print(f"{config.command} {config.statement_id}".strip() + f": {','.join(verdicts)} -> {paths}")
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run_command(parse_config(argv))
    except SystemExit:  # only --help leaves parse_config this way
        return 0
    except (UsageError, RangeViolation, ParameterOutOfRange, UnknownCatalogId, NonNormalizableDensity) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (QuadratureFailure, OracleUnavailable, DegenerateDenominator) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
