"""Deterministic serialization: float rendering, JSON layout, CSV layout."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from stepforce.reporting import csv_text, dumps_json, fmt_bare, fmt_float


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


def test_json_writes_complexes_numpy_doubles_tuples_and_none():
    payload = {
        "z": 1.0 + 2.0j,
        "np_z": np.complex128(0.5 - 0.25j),
        "np_float": np.float64(0.25),
        "pair": (1, 2.5),
        "none": None,
    }
    plain = {"z": {"im": 2.0, "re": 1.0}, "np_z": {"im": -0.25, "re": 0.5},
             "np_float": 0.25, "pair": [1, 2.5], "none": None}
    text = dumps_json(payload)
    assert json.loads(text) == plain and text == dumps_json(plain)
    assert dumps_json({"e": [], "t": (), "d": {}}) == (
        '{\n  "d": {},\n  "e": [],\n  "t": []\n}\n')
    assert dumps_json({1: 0.1, "0": (0.1 + 0j)}) == (
        '{\n  "0": {\n    "im": 0,\n    "re": 0.10000000000000001\n  },\n'
        '  "1": 0.10000000000000001\n}\n')


def test_json_renders_non_finite_floats_as_strings():
    parsed = json.loads(dumps_json({"bad": float("nan"),
                                    "big": float("inf")}))
    assert parsed == {"bad": "nan", "big": "inf"}


@dataclass
class _Point:
    x: float


@pytest.mark.parametrize("value,name", [
    (np.array([1.0, 2.5]), "ndarray"), (np.int64(7), "int64"),
    (_Point(x=0.5), "_Point")], ids=["ndarray", "int64", "dataclass"])
def test_json_refuses_what_it_does_not_write(value, name):
    for obj in (value, {"nested": [1.0, value]}):
        with pytest.raises(TypeError,
                           match=f"cannot write type {name} as JSON"):
            dumps_json(obj)


def test_csv_layout_and_float_formatting():
    text = csv_text(("a", "b", "c"),
                    [(1.0, float("nan"), "x"), (0.5, 2, "y")])
    assert "\r" not in text
    assert text.splitlines() == ["a,b,c", "1,nan,x", "0.5,2,y"]
    assert text.endswith("\n")
