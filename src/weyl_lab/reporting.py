"""Deterministic report serialization.

JSON output uses sorted keys and fixed 17-significant-digit float
formatting so that a report's bytes are a pure function of its values;
CSV is a flat row form for external plotting.

Report dataclasses serialize field by field: a class-level `experiment`
tag comes first, Angles become fixed-width hex, and a field's metadata
may carry a "json" converter (BIG_INT for integers past 2**53) or ask to
be flattened into the top level (FLATTEN).  A class with an irregular
shape defines its own as_dict().
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass

from .exactangle import Angle

BIG_INT = {"json": str}
FLATTEN = {"flatten": True}


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float in report")
    return format(float(x), ".17g")


def _plain(value):
    if isinstance(value, Angle):
        return value.to_hex()
    if is_dataclass(value):
        return report_dict(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    return value


def report_dict(report) -> dict:
    """Plain-data form of a report dataclass, as render_json writes it."""
    if hasattr(report, "as_dict"):
        return report.as_dict()
    out = {"experiment": report.experiment} if hasattr(report, "experiment") else {}
    for f in fields(report):
        value = getattr(report, f.name)
        if f.metadata.get("flatten"):
            out.update(_plain(value))
        else:
            rule = f.metadata.get("json")
            out[f.name] = _plain(rule(value) if rule else value)
    return out


def _render(obj) -> str:
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(key))}:{_render(obj[key])}" for key in sorted(obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_render, obj)) + "]"
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_json(obj) -> str:
    """Canonical JSON text for a report object or plain dict."""
    return _render(_plain(obj)) + "\n"


def render_csv(report) -> str:
    """Flat CSV, one line per row of the report's csv_rows()."""
    if not hasattr(report, "csv_rows"):
        raise ValueError(f"report {type(report).__name__} has no CSV form")
    lines = [
        ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row)
        for row in report.csv_rows()
    ]
    return "\n".join(lines) + "\n"

