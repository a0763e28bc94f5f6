import json
import os

import pytest

from sobolev_wlab.cli import main, parse_config, read_config_file
from sobolev_wlab.errors import UsageError

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


def test_range_error_exit_2(capsys):
    assert main(["norm", "--n", "1", "--s", "0.5", "--p", "2", "--a", "0"]) == 2
    assert "s*p < n" in capsys.readouterr().err
    assert main(["norm", *BASE, "--samples", "1000"]) == 2  # not a multiple of 64 chunks


@pytest.mark.parametrize("field", ["polynomial_tail(q=3)", "smooth_bump(X=5)", "polynomial_tail"])
def test_bad_field_parameters_exit_2(field, capsys):
    assert main(["norm", *BASE, "--samples", "16000", "--field", field]) == 2
    assert "parameter" in capsys.readouterr().err


def test_usage_error_exit_2(capsys):
    assert main([]) == 2
    assert main(["sweep", *BASE]) == 2


def test_verify_negative_control_exit_1(tmp_path):
    args = ["verify", "lemma-3.1", *BASE, "--samples", "16000",
            "--ladder", "1,2,4", "--out", str(tmp_path)]
    assert main(args) == 0
    assert main(args + ["--reversed-ladder"]) == 1


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
