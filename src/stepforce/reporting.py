"""Deterministic serialization for reports.

Byte-identical reruns are part of the output contract, so nothing here may
depend on dict iteration order, locale, platform float repr, or wall-clock
time.  Floats are always rendered with 17 significant digits (enough to
round-trip IEEE doubles exactly), keys are sorted, and line endings are
fixed to a single newline.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, is_dataclass

import numpy as np

__all__ = [
    "fmt_float",
    "fmt_bare",
    "to_jsonable",
    "dumps_json",
    "csv_text",
]

# json.dumps(text, ensure_ascii=False), one encoder for every string
_json_string = json.JSONEncoder(ensure_ascii=False).encode


def fmt_float(value: float) -> str:
    """Render a float with 17 significant digits, stable across platforms."""
    if math.isnan(value):
        return '"nan"'
    if math.isinf(value):
        return '"inf"' if value > 0 else '"-inf"'
    return "%.17g" % value


def fmt_bare(value: float) -> str:
    """``fmt_float`` without JSON's quotes, for CSV cells and stdout lines."""
    return fmt_float(value).strip('"')


def to_jsonable(obj):
    """Reduce dataclasses, numpy containers and complexes to plain data."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return to_jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return {"im": float(obj.imag), "re": float(obj.real)}
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _render(obj, indent: int, out: list):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = sorted(obj.items())
        for i, (key, value) in enumerate(items):
            out.append(f"{pad}  {_json_string(key)}: ")
            _render(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _render(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    else:
        out.append(_json_string(str(obj)))


def dumps_json(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-digit floats, LF endings."""
    out: list = []
    _render(to_jsonable(obj), 0, out)
    out.append("\n")
    return "".join(out)


def _cell(value) -> str:
    if isinstance(value, float):
        return fmt_bare(value)
    return str(value)


def csv_text(header, rows) -> str:
    """CSV text with fixed formatting; floats get 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"
