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

__all__ = [
    "fmt_float",
    "fmt_bare",
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


def _render(obj, indent: int, out: list):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = sorted({str(k): v for k, v in obj.items()}.items())
        for i, (key, value) in enumerate(items):
            out.append(f"{pad}  {_json_string(key)}: ")
            _render(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
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
    elif isinstance(obj, complex):
        _render({"im": obj.imag, "re": obj.real}, indent, out)
    elif isinstance(obj, str):
        out.append(_json_string(obj))
    else:
        raise TypeError(f"cannot write type {type(obj).__name__} as JSON")


def dumps_json(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-digit floats, LF endings,
    tuples as lists and complexes as {"im", "re"}; a value of any type
    JSON does not hold raises TypeError."""
    out: list = []
    _render(obj, 0, out)
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
