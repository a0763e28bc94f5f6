import hashlib
import json
import os
import subprocess
import sys

import pytest

from sobolev_wlab.cli import _OPTIONS, STATEMENT_IDS, main, parse_config, read_config_file
from sobolev_wlab.errors import UsageError
from sobolev_wlab.reporting import canonical_json

BASE = ["--n", "1", "--s", "0.3", "--p", "2", "--a", "0.1"]


def run(args, monkeypatch=None, env=None):
    return main(args)


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "gaussian" in out and "singular_spike" in out


def test_norm_pass_and_json(tmp_path, capsys):
    code = main(["norm", *BASE, "--samples", "16000", "--seed", "4",
                 "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    data = json.loads((tmp_path / "norm.json").read_text())
    assert data["config"]["seed"] == 4
    rep = data["outputs"]["report"]
    assert rep["seminorm"]["stderr"] >= 0.0  # every numeric carries its error sibling
    assert rep["full"] > 0


@pytest.mark.parametrize("args,message", [
    (["norm", "--n", "1", "--s", "0.5", "--p", "2", "--a", "0"], "s*p < n"),
    (["norm", *BASE, "--samples", "1000"], "multiple of the 64 chunks"),
    # the outer radius is taken from the field: no value given for it on the
    # command line is in range, not even one the spec would take
    *((["norm", *BASE, "--samples", "6400", "--outer-radius", r], "invalid command line")
      for r in ("0", "-2", "nan", "inf", "0.5")),
    *((["verify", "prop-4.1", *BASE, "--trials", t], "trial") for t in ("0", "-3")),
    *((["verify", "lemma-6.1", *BASE, "--samples", "6400", "--conv-grid", m], "convolution grid")
      for m in ("0", "-4")),
    # the oracle integrates x over [-R, R] only, so R must hold the support:
    # a ladder pins R to max(1, r) + 10 from smooth_bump(R=r), and its rung
    # eps = 20 widens the mollified field's support to r + 20
    *((["verify", "lemma-6.1", *BASE, "--field", f"smooth_bump(R={r})", "--method",
        "tensor_oracle_1d", "--grid-points", "256", "--conv-grid", "16", "--ladder", "20"],
       f"outer radius {r + 10.0} is below the support radius {r + 20.0}") for r in (1, 2)),
], ids=["sp-not-below-n", "samples-1000", "outer-radius-0", "outer-radius--2", "outer-radius-nan",
        "outer-radius-inf", "outer-radius-0.5", "trials-0", "trials--3", "conv-grid-0", "conv-grid--4",
        "oracle-outer-radius-1", "oracle-outer-radius-2"])
def test_range_error_exit_2(args, message, tmp_path, capsys):
    """An out-of-range value exits 2 with a message and writes no record."""
    assert main([*args, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("field", ["polynomial_tail(q=3)", "smooth_bump(X=5)", "polynomial_tail"])
def test_bad_field_parameters_exit_2(field, capsys):
    assert main(["norm", *BASE, "--samples", "16000", "--field", field]) == 2
    assert "parameter" in capsys.readouterr().err


@pytest.mark.parametrize("command", [[], ["norm"], ["approx"], ["verify"], ["sweep"], ["catalog"]])
def test_help_exits_0(command, capsys):
    assert main([*command, "--help"]) == 0
    captured = capsys.readouterr()
    assert "usage: sobolev-wlab" in captured.out
    assert "error" not in captured.err


def test_usage_error_exit_2(capsys):
    assert main([]) == 2
    assert main(["sweep", *BASE]) == 2


@pytest.mark.parametrize("args,config,bad", [
    (["norm"], "seed = abc\n", "abc"),
    (["verify", "lemma-3.1", "--ladder", "1,x"], "", "x"),
    (["sweep", "--param", "a", "--values", "0,zz"], "", "zz"),
    (["sweep", "--param", "n", "--values", "1.5"], "", "1.5"),
    (["norm", "--format", "xml"], "", "xml"),
], ids=["config-seed", "ladder", "sweep-float", "sweep-int", "format"])
def test_malformed_value_exit_2(args, config, bad, tmp_path, capsys):
    """A value its option cannot parse is a usage error, found before any run."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main([*args, *BASE, "--samples", "6400", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid" in err and repr(bad) in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["approx", "--eps", "nan"],
    ["approx", "--j", "inf"],
    ["verify", "lemma-3.1", "--ladder", "1,inf"],
    ["approx", "--j", "nan"],
    ["approx", "--eps", "inf"],
    ["verify", "theorem-1.1", "--delta-frac", "nan"],
    ["verify", "lemma-6.1", "--ladder", "1,nan"],
], ids=["eps-nan", "j-inf", "ladder-inf", "j-nan", "eps-inf", "delta-frac-nan", "ladder-nan"])
def test_non_finite_value_exit_2(args, tmp_path, capsys):
    """nan passes a range check written as a comparison, and inf passes
    them all, so the parser refuses both before anything runs: at eps = nan
    the convolution would be 0 everywhere and the run would record ||u||
    as its error, and "Pass"."""
    assert main([*args, *BASE, "--samples", "6400", "--out", str(tmp_path)]) == 2
    assert "expected a finite number" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# a value other than the default for every option
OPTION_VALUES = {
    "field": "gaussian", "n": "2", "s": "0.25", "p": "1.5", "a": "0.05",
    "method": "tensor_oracle_1d", "samples": "6400", "grid_points": "256", "seed": "7",
    "j": "2", "eps": "0.05", "conv_grid": "32", "trials": "20", "delta_frac": "0.3",
    "ladder": "1,2,4", "param": "s", "values": "0.1,0.2", "out": "elsewhere", "format": "json,csv",
}


@pytest.mark.parametrize("key", list(_OPTIONS))
def test_flag_and_config_line_parse_alike(key, tmp_path, monkeypatch):
    monkeypatch.delenv("SOBOLEV_WLAB_SEED", raising=False)
    value = OPTION_VALUES[key]
    # every option parses under sweep, which also needs the two it owns
    sweep = [arg for k, v in (("param", "a"), ("values", "0")) if k != key for arg in (f"--{k}", v)]
    flag = [f"--{key.replace('_', '-')}", value]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    by_flag = parse_config(["sweep", *sweep, *flag]).options
    by_config = parse_config(["sweep", *sweep, "--config", str(cfg)]).options
    assert by_flag == by_config
    assert by_flag[key] != _OPTIONS[key][0]


@pytest.mark.parametrize("args,config", [
    (["--reversed-ladder"], ""),
    ([], "outer_radius = 20\n"),
    ([], "reversed_ladder = true\n"),
], ids=["reversed-ladder-flag", "outer-radius-config", "reversed-ladder-config"])
def test_deleted_settings_exit_2(args, config, tmp_path, capsys):
    """The outer radius is taken from the field and a reversed ladder is
    written as one; neither setting exists, as a flag or as a config key."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main(["verify", "lemma-3.1", *BASE, "--samples", "6400", *args,
                 "--config", str(cfg), "--out", str(out)]) == 2
    assert ("unknown config key" if config else "invalid command line") in capsys.readouterr().err
    assert not out.exists()


def test_verify_negative_control_exit_1(tmp_path):
    args = ["verify", "lemma-3.1", *BASE, "--samples", "16000", "--out", str(tmp_path)]
    assert main([*args, "--ladder", "1,2,4"]) == 0
    assert main([*args, "--ladder", "4,2,1"]) == 1


@pytest.mark.parametrize("command", ["norm", "approx"])
def test_norm_and_approx_negative_control_exit_1(command, tmp_path):
    """A spike near its integrability edge gives, at 6,400 samples, a
    critical norm whose chunk stderr is above a quarter of its value: the
    record says "Unstable" and the run exits 1.  The smooth bump passes."""
    args = [command, *BASE, "--samples", "6400", "--seed", "0", "--out", str(tmp_path)]
    record = tmp_path / f"{command}.json"
    assert main([*args, "--field", "smooth_bump"]) == 0
    assert json.loads(record.read_text())["verdicts"] == ["Pass"]
    assert main([*args, "--field", "singular_spike(gamma=0.15)"]) == 1
    assert json.loads(record.read_text())["verdicts"] == ["Unstable"]


def test_sweep_negative_control_exit_1(tmp_path):
    """A sweep writes every point's record and exits 1 when a point is
    unstable: the spike of the norm control, at two seeds."""
    code = main(["sweep", "--param", "seed", "--values", "0,1", "--field", "singular_spike(gamma=0.15)",
                 *BASE, "--samples", "6400", "--out", str(tmp_path)])
    assert code == 1
    verdicts = [json.loads((tmp_path / f"sweep_seed_{i}.json").read_text())["verdicts"] for i in (0, 1)]
    assert verdicts == [["Unstable"], ["Unstable"]]


def test_io_error_exit_3(tmp_path):
    assert main(["norm", *BASE, "--samples", "16000", "--out", "/proc/x"]) == 3


def test_config_file_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nseed = 7\nsamples = 16000\nladder = 1,2,4\n")
    parsed = read_config_file(str(cfg))
    assert parsed == {"seed": 7, "samples": 16000, "ladder": ["1", "2", "4"]}
    rc = parse_config(["norm", *BASE, "--config", str(cfg), "--seed", "42"])
    assert rc.options["seed"] == 42  # flag beats config
    assert rc.options["samples"] == 16000  # config beats default


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sample_count = 10\n")
    with pytest.raises(UsageError):
        read_config_file(str(cfg))


def test_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SOBOLEV_WLAB_SEED", "99")
    rc = parse_config(["norm", *BASE, "--seed", "1"])
    assert rc.options["seed"] == 99
    monkeypatch.setenv("SOBOLEV_WLAB_SEED", "zzz")
    with pytest.raises(UsageError):
        parse_config(["norm", *BASE])


def test_sweep_one_record_per_point(tmp_path):
    code = main(["sweep", "--param", "a", "--values", "0,0.05,0.1", *BASE,
                 "--samples", "16000", "--out", str(tmp_path)])
    assert code == 0
    files = sorted(os.listdir(tmp_path))
    assert files == ["sweep_a_0.json", "sweep_a_1.json", "sweep_a_2.json"]
    for i, f in enumerate(files):
        data = json.loads((tmp_path / f).read_text())
        assert data["config"]["a"] == [0.0, 0.05, 0.1][i]


@pytest.mark.parametrize("args,message", [
    (["--param", "a", "--values", "0.05,5"], "a=5.0 outside"),
    (["--param", "samples", "--values", "1024,1000"], "multiple of the 64 chunks"),
    (["--param", "n", "--values", "1,2", "--field", "hat_1d"], "hat_1d is only defined in dimension 1"),
], ids=["a", "samples", "field_dimension"])
def test_sweep_checks_every_point_before_the_first_run(args, message, tmp_path, capsys):
    """An out-of-range sweep point, or one whose field is not defined at its
    dimension, exits 2 and leaves no record, not even those of the points
    before it."""
    assert main(["sweep", *args, *BASE, "--samples", "1024", "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_writes_csv_and_svg(tmp_path):
    code = main(["verify", "lemma-6.1", *BASE, "--samples", "16000",
                 "--conv-grid", "64", "--ladder", "0.5,0.25,0.1",
                 "--out", str(tmp_path), "--format", "json,csv,svg"])
    assert code == 0
    csv_lines = (tmp_path / "verify_lemma-6.1.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "knob,value,stderr"
    assert len(csv_lines) == 4
    assert (tmp_path / "verify_lemma-6.1.svg").read_text().count("<polyline") == 1


def test_rerun_byte_identical_except_timestamp(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["norm", *BASE, "--samples", "16000", "--seed", "5",
                     "--out", str(out)]) == 0
    da = json.loads((a / "norm.json").read_text())
    db = json.loads((b / "norm.json").read_text())
    da.pop("timestamp"), db.pop("timestamp")
    da["config"].pop("out"), db["config"].pop("out")
    assert da == db


@pytest.mark.parametrize("sid", ["prop-4.1", "prop-4.2", "lemma-4.3"])
def test_monte_carlo_only_statements_refuse_the_oracle(sid, tmp_path, capsys):
    code = main(["verify", sid, *BASE, "--method", "tensor_oracle_1d", "--trials", "20",
                 "--samples", "6400", "--out", str(tmp_path)])
    assert code == 1
    assert "tensor-oracle" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# sha256 of the canonical JSON of each record (timestamp and out dir dropped)
# at n=1, s=0.3, p=2, a=0.1, seed 7, 6,400 samples, 20 trials, conv grid 32
GOLDEN_RECORDS = {
    "lemma-2.1": "aa9331e6f0f038f0e78ba809ab7f2d2dcd034f592b52ccf6dc744be3db6e4c31",
    "lemma-3.1": "96f103c3b7136fb11dfe423a75f9873c0dcd7e01843ae498864972b2614fa708",
    "prop-4.1": "0b5f7a0f079acc91ccc2ab985289b5a556f7bfa36d0be5d3a78ddf244db2439e",
    "prop-4.2": "ae4a6c79c55bf1fd738d9b323540300a64e5c2274dd79c2f564d86cda7c22bdc",
    "lemma-4.3": "bd04f6d55486643e697b109811be6daa13f6b71f9be1413fb7d135cc20f5db8d",
    "prop-4.4": "6a5fb66c1ddb39def6ef197589c63c592ede0862605e77e829541edb7b8c1750",
    "prop-4.5": "a86b3078139a7c77986cdad09677de5f52bdf45d2fdd02ff1cd6bb77dfe55c0f",
    "lemma-5.1": "7a05914f5aaa784ac305a16171ee2ad3ca638010d33ec1c54ed16a50806cc12d",
    "eq-6.4": "a6e792f0515ec6f661b5636571eb0a9b8976f0c1b8c93096c5afba076fdc10a3",
    "lemma-6.1": "68e9516fbccd13406c8f6cee5092ba850c22129b74c928f496afc0b5ed278660",
    "theorem-1.1": "e17b4d8c59fe6a2499f5a476c4a469f4db2985ac860daccdd3fa11c1d331ec1d",
    "sobolev-ineq": "a6a4d80db89f86a81895840bf9748f2f380537f01ded7e6986264f55d0008842",
    "norm": "bf72637a5b74d187b3bfda29744a841d749a07b58e62911931a4423e7c79f51d",
    "approx": "0b995eda2c5f1c48ac9d3ed17526a24ede3735745b57f56ee3ff7e218bcdd755",
    "approx-smooth_bump": "ed192f4dd32bf4469e8056ac85d0c3dfb7e6b2f6b2b0e3a9b2844593b55aba14",
}


# the same at n=2, for the statements whose code runs on 2-d point arrays,
# at 1,024 samples, 20 trials and conv grid 16
GOLDEN_RECORDS_N2 = {
    "prop-4.1": "01b042d42556bdd7e6c30829adc8ab37fa75ed093e00235a2cdecc0aaee1720b",
    "prop-4.2": "2730bc989aec5a61d93e29dccf3f1297ef60607323f1d19a80f77f483d27c064",
    "lemma-4.3": "6642a5d608397ee2558223fcd401b6f19fb1f069a51c22f6ccf42f707aeba30d",
    "prop-4.4": "6a868a50912096be1a7689b2cafb849efc4b4f3a0f14a0af00f3d6718b5cb55d",
    "eq-6.4": "22bea94c4032540e37ecc02899cadf62e1870eb28da70239ecb09ed942a42bd0",
    # at 1,024 samples both of its norms carry EstimateUnstable, so its
    # verdict is "Unstable" (the record read "Pass" before norm and approx
    # judged their estimates)
    "approx": "778833d75528ede8fd3e7e9e1740faaffe13faf425b75a6ee5ff32ee591d32af",
}
# the runs whose verdict fails, with exit code 1
UNSTABLE_N2 = ("approx",)


def _record_digests(commands: dict, run_args: list, out, unstable=()) -> dict:
    digests = {}
    for name, command in commands.items():
        assert main([*command, *run_args, "--out", str(out)]) == (1 if name in unstable else 0), name
        stem = f"verify_{name}" if command[0] == "verify" else command[0]
        record = json.loads((out / f"{stem}.json").read_text())
        record.pop("timestamp")
        record["config"].pop("out")
        digests[name] = hashlib.sha256(canonical_json(record).encode()).hexdigest()
    return digests


def test_records_golden(tmp_path, capsys):
    """Every record the CLI writes is pinned byte for byte, so a refactor of
    how records are built or rendered cannot move a value or a key."""
    commands = {sid: ["verify", sid] for sid in STATEMENT_IDS}
    commands["norm"] = ["norm"]
    commands["approx"] = ["approx", "--field", "polynomial_tail(gamma=3)"]
    commands["approx-smooth_bump"] = ["approx"]  # supp u in B_j: truncation is the identity
    run_args = [*BASE, "--seed", "7", "--samples", "6400", "--trials", "20", "--conv-grid", "32"]
    assert _record_digests(commands, run_args, tmp_path / "n1") == GOLDEN_RECORDS
    commands_n2 = {name: ["verify", name] for name in GOLDEN_RECORDS_N2 if name != "approx"}
    commands_n2["approx"] = ["approx"]
    run_args_n2 = ["--n", "2", "--s", "0.3", "--p", "2", "--a", "0.1", "--seed", "7",
                   "--samples", "1024", "--trials", "20", "--conv-grid", "16"]
    assert _record_digests(commands_n2, run_args_n2, tmp_path / "n2", UNSTABLE_N2) == GOLDEN_RECORDS_N2


# a small oracle grid on which the statement's refinement check passes
@pytest.mark.parametrize("sid,grid", [("prop-4.4", 64), ("prop-4.5", 256), ("lemma-2.1", 256),
                                      ("sobolev-ineq", 256)])
def test_oracle_records_state_no_monte_carlo_budget(sid, grid, tmp_path):
    """The oracle draws no samples, so its records give no sample budget and
    no seed; the same statement by Monte Carlo records both."""
    run_args = [*BASE, "--seed", "7", "--samples", "6400", "--conv-grid", "32",
                "--grid-points", str(grid), "--out", str(tmp_path)]
    reports = {}
    for method in ("tensor_oracle_1d", "monte_carlo"):
        assert main(["verify", sid, *run_args, "--method", method]) == 0
        record = json.loads((tmp_path / f"verify_{sid}.json").read_text())
        reports[method] = record["outputs"]["report"]
    oracle, mc = reports["tensor_oracle_1d"], reports["monte_carlo"]
    assert oracle["seed"] is None and mc["seed"] == 7
    if sid in ("prop-4.4", "prop-4.5"):
        assert oracle["trials"] is None and mc["trials"] == 6400
    elif sid == "sobolev-ineq":
        assert oracle["trials"] == mc["trials"] == 6  # fields and their dilations


NUMPY_ONLY_CHILD = """
import json
import sys

from sobolev_wlab.cli import main
common = ["--s", "0.3", "--p", "2", "--a", "0.1", "--seed", "7", "--samples", "1024",
          "--conv-grid", "16", "--out", sys.argv[1]]
runs = (["norm", "--n", "3"], ["approx", "--n", "2"], ["verify", "prop-4.4", "--n", "2"],
        ["verify", "prop-4.2", "--n", "2", "--trials", "5"])
codes = [main([*args, *common]) for args in runs]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_runtime_never_imports_scipy(tmp_path):
    """norm, approx and verify (convolved and weight-bound paths) run on
    numpy alone.  A fresh interpreter, because the tests import scipy."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_CHILD, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.splitlines()[-1])
    # at 1,024 samples the norm (n = 3) and the approximation error (n = 2)
    # carry EstimateUnstable, so those two runs exit 1
    assert got == {"codes": [1, 1, 0, 0], "scipy": []}
