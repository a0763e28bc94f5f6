"""Result persistence: canonical JSON, ladder CSV, and SVG line plots.

JSON is written with sorted keys and fixed 17-significant-digit float
formatting so that reproducibility can be tested byte for byte.  SVG
output is self-contained (inline styling, no external assets).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass
from typing import Optional

from .errors import IoError

SCHEMA_VERSION = 1

CSV_HEADER = "knob,value,stderr"


@dataclass(frozen=True)
class ResultRecord:
    schema_version: int
    timestamp: str
    command: str
    config: dict
    outputs: dict
    verdicts: list


def make_record(command: str, config: dict, outputs: dict, verdicts: list) -> ResultRecord:
    return ResultRecord(
        schema_version=SCHEMA_VERSION,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        command=command,
        config=config,
        outputs=outputs,
        verdicts=list(verdicts),
    )


def _canon(obj):
    """Render a JSON-compatible tree with canonical float formatting."""
    if isinstance(obj, dict):
        items = ",".join(
            f"{json.dumps(str(k))}:{_canon(v)}" for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if math.isnan(obj):
            return '"NaN"'
        if math.isinf(obj):
            return '"Infinity"' if obj > 0 else '"-Infinity"'
        return "%.17g" % obj
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def canonical_json(tree) -> str:
    return _canon(tree) + "\n"


def ladder_csv(knobs, values, stderrs) -> str:
    lines = [CSV_HEADER]
    for k, v, s in zip(knobs, values, stderrs):
        lines.append("%.17g,%.17g,%.17g" % (k, v, s))
    return "\n".join(lines) + "\n"


def _log_or(v: float, fallback: float) -> float:
    return math.log10(v) if v > 0 else fallback


def ladder_svg(knobs, values, title: str = "") -> str:
    """Log-log line plot of the error ladder, one polyline on a 640x480 canvas."""
    width, height, pad = 640, 480, 50
    pts = [(k, v) for k, v in zip(knobs, values) if k > 0 and v > 0]
    if pts:
        xs = [math.log10(k) for k, _ in pts]
        ys = [math.log10(v) for _, v in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
    else:
        x0 = y0 = -1.0
        x1 = y1 = 1.0
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def sx(lx):
        return pad + (lx - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(ly):
        return height - pad - (ly - y0) / (y1 - y0) * (height - 2 * pad)

    coords = " ".join(
        "%.2f,%.2f" % (sx(_log_or(k, x0)), sy(_log_or(v, y0))) for k, v in zip(knobs, values)
    )
    color = "#1f77b4"
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>',
        f'<text x="{width - pad}" y="{pad}" text-anchor="end" font-size="12" fill="{color}">error</text>',
        "</svg>",
    ]) + "\n"


def _ladder_series(outputs: dict) -> Optional[tuple]:
    rep = outputs.get("report")
    if not isinstance(rep, dict) or "ladder" not in rep or "errors" not in rep:
        return None
    knobs = rep["ladder"]
    values = [e["value"] for e in rep["errors"]]
    stderrs = [e["stderr"] for e in rep["errors"]]
    return knobs, values, stderrs


def write_outputs(record: ResultRecord, formats, output_dir: str, stem: str) -> list:
    """Write the record in the requested formats; returns the written paths.

    The record is rendered once, by ``dataclasses.asdict``, so the reports
    inside it may hold dataclasses such as ``Estimate`` and ``SpaceParams``.
    """
    tree = asdict(record)
    written = []
    try:
        os.makedirs(output_dir, exist_ok=True)
        if "json" in formats:
            path = os.path.join(output_dir, stem + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(tree))
            written.append(path)
        ladder = _ladder_series(tree["outputs"])
        if "csv" in formats and ladder is not None:
            path = os.path.join(output_dir, stem + ".csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(ladder_csv(*ladder))
            written.append(path)
        if "svg" in formats and ladder is not None:
            knobs, values, _ = ladder
            path = os.path.join(output_dir, stem + ".svg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(ladder_svg(knobs, values, title=stem))
            written.append(path)
    except OSError as exc:
        raise IoError(f"cannot write outputs under {output_dir}: {exc}") from exc
    return written
