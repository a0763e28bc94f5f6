import json
import os
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolev_wlab.errors import IoError
from sobolev_wlab.reporting import (
    CSV_HEADER,
    ResultRecord,
    canonical_json,
    ladder_csv,
    ladder_svg,
    make_record,
    write_outputs,
)


def _sample_record():
    outputs = {
        "report": {
            "ladder": [1.0, 2.0, 4.0],
            "errors": [
                {"value": 0.5, "stderr": 0.01, "tail_truncation_bound": 0.0},
                {"value": 0.2, "stderr": 0.01, "tail_truncation_bound": 0.0},
                {"value": 0.01, "stderr": 0.001, "tail_truncation_bound": 0.0},
            ],
            "verdict": "Decreasing",
        }
    }
    return make_record("verify", {"seed": 3}, outputs, ["Decreasing"])


def test_canonical_json_sorted_and_terminated():
    text = canonical_json({"b": 1, "a": [1.5, True, None]})
    assert text == '{"a":[1.5,true,null],"b":1}\n'


def test_canonical_json_float_precision():
    text = canonical_json({"x": 0.1 + 0.2})
    assert "0.30000000000000004" in text


def test_json_roundtrip():
    rec = _sample_record()
    text = canonical_json(asdict(rec))
    back = ResultRecord(**json.loads(text))
    assert back == rec
    assert asdict(back) == asdict(rec)


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(
            st.integers(-10**6, 10**6),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.booleans(),
            st.text(max_size=10),
        ),
        max_size=6,
    )
)
def test_canonical_json_parses_and_roundtrips_values(d):
    text = canonical_json(d)
    parsed = json.loads(text)
    assert set(parsed) == set(d)
    for k, v in d.items():
        assert parsed[k] == v


def test_csv_format():
    text = ladder_csv([1, 2], [0.5, 0.2], [0.01, 0.02])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER == "knob,value,stderr"
    assert lines[1:] == ["1,0.5,0.01", "2,0.20000000000000001,0.02"]


def test_svg_one_polyline():
    svg = ladder_svg([1, 2, 4], [1.0, 0.5, 0.1], title="ladder")
    assert svg.count("<polyline") == 1
    assert 'width="640" height="480"' in svg and ">ladder</text>" in svg and ">error</text>" in svg
    assert "<svg" in svg and "</svg>" in svg
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")  # self-contained


def test_write_outputs_and_counts(tmp_path):
    rec = _sample_record()
    paths = write_outputs(rec, ["json", "csv", "svg"], str(tmp_path), "verify_x")
    assert len(paths) == 3
    with open(paths[0]) as fh:
        text = fh.read()
    assert text.endswith("\n")
    assert json.loads(text)["verdicts"] == ["Decreasing"]
    with open(paths[1]) as fh:
        assert len(fh.read().strip().split("\n")) == 4  # header + 3 ladder points
    with open(paths[2]) as fh:
        assert fh.read().count("<polyline") == 1


def test_write_outputs_io_error():
    rec = _sample_record()
    with pytest.raises(IoError):
        write_outputs(rec, ["json"], os.path.join("/proc", "nope"), "x")


def test_byte_identical_except_timestamp():
    rec1 = _sample_record()
    rec2 = _sample_record()
    d1, d2 = asdict(rec1), asdict(rec2)
    d1.pop("timestamp"), d2.pop("timestamp")
    assert canonical_json(d1) == canonical_json(d2)
