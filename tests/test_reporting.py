"""Deterministic serialization: float rendering, JSON layout, CSV layout."""

import json
from dataclasses import dataclass

import numpy as np

from stepforce.reporting import (csv_text, dumps_json, fmt_bare, fmt_float,
                                 to_jsonable)


def test_float_rendering_round_trips_doubles():
    for value in (0.1, -2.0 / 3.0, 1.3725830020304792, 1e-300, 12345.0,
                  -4.0):
        assert float(fmt_float(value)) == value


def test_float_rendering_of_non_finite_values():
    assert fmt_float(float("nan")) == '"nan"'
    assert fmt_float(float("inf")) == '"inf"'
    assert fmt_float(float("-inf")) == '"-inf"'
    assert [fmt_bare(float(v)) for v in ("nan", "inf", "-inf")] == [
        "nan", "inf", "-inf"]
    assert fmt_bare(0.1) == fmt_float(0.1)


def test_json_sorts_keys_and_parses_back():
    text = dumps_json({"b": 1.5, "a": [True, None, 2], "c": {"z": "x\ny"}})
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [True, None, 2], "b": 1.5,
                                "c": {"z": "x\ny"}}
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


def test_json_strings_escape_what_json_requires():
    for text in ("o\tx", "cr\rlf\n", "soh\x01", 'quote " back \\',
                 "phi_\u03b5"):
        obj = {text: [text], "plain": text}
        assert json.loads(dumps_json(obj)) == obj
    # quotes, backslashes and newlines as before; non-ASCII text as it is
    assert dumps_json(['a"b\\c\nd', "\u03b5"]) == (
        '[\n  "a\\"b\\\\c\\nd",\n  "\u03b5"\n]\n')
    assert dumps_json("\t\x01") == '"\\t\\u0001"\n'


def test_json_bytes_do_not_depend_on_insertion_order():
    first = dumps_json({"alpha": 1, "beta": {"x": 0.5, "y": 2.0}})
    second = dumps_json({"beta": {"y": 2.0, "x": 0.5}, "alpha": 1})
    assert first == second


def test_json_reduces_numpy_complex_and_dataclass_values():
    @dataclass
    class Point:
        x: float
        label: str

    payload = {
        "arr": np.array([1.0, 2.5]),
        "z": 1.0 + 2.0j,
        "np_int": np.int64(7),
        "np_float": np.float64(0.25),
        "point": Point(x=0.5, label="probe"),
    }
    parsed = json.loads(dumps_json(payload))
    assert parsed["arr"] == [1.0, 2.5]
    assert parsed["z"] == {"im": 2.0, "re": 1.0}
    assert parsed["np_int"] == 7
    assert parsed["np_float"] == 0.25
    assert parsed["point"] == {"label": "probe", "x": 0.5}


def test_json_renders_non_finite_floats_as_strings():
    parsed = json.loads(dumps_json({"bad": float("nan"),
                                    "big": float("inf")}))
    assert parsed == {"bad": "nan", "big": "inf"}


def test_to_jsonable_handles_nested_containers():
    out = to_jsonable({"t": (1, 2), "m": np.array([[1.0, 0.0], [0.0, 1.0]])})
    assert out == {"t": [1, 2], "m": [[1.0, 0.0], [0.0, 1.0]]}


def test_csv_layout_and_float_formatting():
    text = csv_text(("a", "b", "c"),
                    [(1.0, float("nan"), "x"), (0.5, 2, "y")])
    assert "\r" not in text
    assert text.splitlines() == ["a,b,c", "1,nan,x", "0.5,2,y"]
    assert text.endswith("\n")
