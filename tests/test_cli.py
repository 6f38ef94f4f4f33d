"""Command-line interface: exit codes, config plumbing, file outputs."""

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import sys
import threading
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from stepforce import cli, force, regularized, timeevo
from stepforce.core import PhysicalParams
from stepforce.errors import BoxTooSmall
from stepforce.modes import solve_step_mode

from test_cli_fuzz import _NAMED

KFG_R = 0.21543808788147607
S_R = 0.17157287525380990
KFG_FORCE = 0.18466121818412234


def run(args):
    return cli.main(args)


def test_no_subcommand_exits_2(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert "mode" in out and "converge" in out and "report" in out


def test_converge_help_does_not_list_the_refused_domain(capsys):
    assert run(["converge", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--resolution" in out and "domain" not in out


def test_each_command_has_one_flag_per_config_key():
    parser = cli.build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(cli.DEFAULTS) - {"params"}
    for command, sub in subparsers.choices.items():
        table = cli.DEFAULTS[command]
        dests = {action.dest for action in sub._actions}
        flags = {"help", "config", "out"} | ({"seed"} if command == "report"
                                             else set())
        assert dests == flags | set(table)
        # every flag parses its default's text back to the default
        argv = [command]
        for key, default in table.items():
            text = (",".join(map(str, default)) if isinstance(default, list)
                    else str(default))
            argv += ["--" + key.replace("_", "-"), text]
        assert vars(parser.parse_args(argv)) == {"command": command, **table}


def test_mode_defaults_write_flagship_payload(tmp_path, capsys):
    assert run(["mode", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("resolved config:")
    assert "regime = propagating" in out
    payload = json.loads((tmp_path / "mode.json").read_text())
    assert payload["theory"] == "kfg"
    assert payload["energy"] == 2.0
    assert payload["r"]["re"] == pytest.approx(KFG_R, rel=1e-13)
    assert payload["r"]["im"] == 0.0
    assert payload["route_a"] == pytest.approx(KFG_FORCE, rel=1e-13)
    assert abs(payload["identity_residual"]) <= 1e-13
    assert set(payload["delta_integral"]) == {"left_value", "right_value",
                                              "midpoint", "half_jump"}


def test_mode_below_threshold_exits_1(tmp_path, capsys):
    code = run(["mode", "--energy", "0.5", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "below-threshold" in err
    assert "needs E >" in err


def test_mode_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": {"theory": "s", "energy": 2.0}}))
    assert run(["mode", "--config", str(cfg), "--energy", "1.0",
                "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "mode.json").read_text())
    assert payload["theory"] == "s"
    assert payload["energy"] == 1.0
    assert payload["r"]["re"] == pytest.approx(S_R, rel=1e-13)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": {"engery": 1.0}}))
    assert run(["mode", "--config", str(cfg)]) == 2
    assert "unknown config key: mode.engery" in capsys.readouterr().err


def test_bad_config_files_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("not json {")
    assert run(["mode", "--config", str(broken)]) == 2
    nondict = tmp_path / "list.json"
    nondict.write_text("[1, 2]")
    assert run(["mode", "--config", str(nondict)]) == 2
    wrongtype = tmp_path / "type.json"
    wrongtype.write_text(json.dumps({"mode": {"energy": "high"}}))
    assert run(["mode", "--config", str(wrongtype)]) == 2
    assert run(["mode", "--config", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err
    assert "must contain a JSON object" in err
    assert "must be a number" in err
    assert "cannot read config file" in err


@pytest.mark.parametrize("command,table,message", [
    ("converge", {"converge": {"epsilons": ["a", "b", "c"]}},
     "converge.epsilons[0] must be a number"),
    ("limits", {"limits": {"speeds": [10, "x", 1000]}},
     "limits.speeds[1] must be a number"),
    ("converge", {"converge": {"resolution": 8.9}},
     "converge.resolution must be an integer, got 8.9"),
    ("report", {"report": {"n_random": 0.5}},
     "report.n_random must be an integer, got 0.5")])
def test_config_values_must_fit_their_defaults(command, table, message,
                                               tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(table))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_integral_numbers_fill_integer_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"converge": {"resolution": 8.0},
                               "ehrenfest": {"n_points": 5201.0}}))
    loaded = cli.load_config(str(cfg))
    assert loaded["converge"]["resolution"] == 8
    assert isinstance(loaded["converge"]["resolution"], int)
    assert isinstance(loaded["ehrenfest"]["n_points"], int)


def test_converge_writes_csv_and_verdict(tmp_path, capsys):
    assert run(["converge", "--theory", "s", "--energy", "1.0",
                "--shapes", "erf", "--epsilons", "0.2,0.1,0.05",
                "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "verdict (s, erf): limit" in out
    assert "candidate" in out
    lines = (tmp_path / "converge.csv").read_text().splitlines()
    assert lines[0] == "theory,E,V0,shape,epsilon,value,defect"
    assert len(lines) == 4
    for line, eps in zip(lines[1:], (0.2, 0.1, 0.05)):
        cells = line.split(",")
        assert cells[0] == "s"
        assert cells[1] == "1"
        assert cells[2] == "0.5"
        assert cells[3] == "erf"
        assert float(cells[4]) == eps
        assert float(cells[6]) <= 1e-12


# sha256 pins of outputs the seed-0 report oracle does not cover: each
# theory's mode.json at the default energy and v0, and converge.csv and its
# verdict lines at the default config
MODE_JSON_SHA256 = {
    "s": "0823cccc95437cc42b3234e98f38f27446a2adf52405e061f2d4a389d3732eea",
    "kfg": "af25a93d1e6e1694921d61d7a6168f091bec3e08c68578b374be6cdc183e7301",
    "dirac": "3ee5c22c758adc317732b8a0d96bfef113f4cbd2c5ed2470ba808b479cb0c5e6",
}
CONVERGE_CSV_SHA256 = (
    "ca9e4145ad65236b87c0835d2277979bdbf250d2c0e183bd9341dc77132eb0b7")
CONVERGE_VERDICTS_SHA256 = (
    "50b5cd2e355cde4968ce9441074f89b9eb4d9963e213205d09989348f5103971")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("theory", sorted(MODE_JSON_SHA256))
def test_mode_json_is_byte_pinned(theory, tmp_path, capsys):
    assert run(["mode", "--theory", theory, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (_sha256((tmp_path / "mode.json").read_bytes())
            == MODE_JSON_SHA256[theory])


def test_converge_outputs_are_byte_pinned(tmp_path, capsys):
    assert run(["converge", "--out", str(tmp_path)]) == 0
    verdicts = "".join(line for line in capsys.readouterr().out
                       .splitlines(keepends=True)
                       if line.startswith("verdict "))
    assert (_sha256((tmp_path / "converge.csv").read_bytes())
            == CONVERGE_CSV_SHA256)
    assert _sha256(verdicts.encode()) == CONVERGE_VERDICTS_SHA256


# sha256 pins of a run's whole stdout, with the --out path masked as <out>,
# and of the CSV it writes (None: mode writes the pinned mode.json)
STDOUT_SHA256 = {
    ("mode",): (
        "35b8edf794d32036592ac4645c0715fa5bd6aaad0430c7b9d54913e8b7c6d946",
        None, None),
    ("limits", "--kind", "nonrel"): (
        "a52f7f12bec8895169f62613759b2bb42f265c904cae52dc57ff9935eddc4349",
        "limits_nonrel.csv",
        "c847aab79ce0d9387b9e839c507e11fed3ffb9c013d79d2e3afb905190410f08"),
    ("limits", "--kind", "infinite-step"): (
        "9ba83bc3ef0e26fd11ae8a18ce91328c0259596d468d33e918d2bcc8568cdd72",
        "limits_infinite_step.csv",
        "08b5e588e6033cb629f9acb04be39addfc4d6fabe132aa5ab381e7c1cc3296cf"),
    ("ehrenfest", "--case", "free"): (
        "1d4db5999f6cefc47f201e36ca3cc55ba23427bfeb3b75897791c61067796efe",
        "ehrenfest.csv",
        "ab88e9d6493192d1613ead1fbf33748261f14b31e616b2d77f410f8471c3887e"),
}


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256))
def test_stdout_and_tables_are_byte_pinned(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 0
    stdout_sha, name, csv_sha = STDOUT_SHA256[argv]
    text = capsys.readouterr().out.replace(str(out), "<out>")
    assert _sha256(text.encode()) == stdout_sha
    if name is not None:
        assert _sha256((out / name).read_bytes()) == csv_sha


def test_converge_needs_at_least_three_widths(tmp_path, capsys):
    assert run(["converge", "--epsilons", "0.2,0.1",
                "--out", str(tmp_path)]) == 2
    assert run(["converge", "--epsilons", "", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "at least 3" in err


@pytest.mark.parametrize("epsilons,code,message", [
    ("0.05,0.1,0.2", 2, "config: converge.epsilons must be strictly "
                        "decreasing, got [0.05, 0.1, 0.2]"),
    ("0.2,0.1,0", 1, "invalid-width: smoothing width must be positive, "
                     "got 0.0")])
def test_converge_checks_its_widths_before_any_solve(
        epsilons, code, message, monkeypatch, tmp_path, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("a width was solved")

    monkeypatch.setattr(regularized, "solve_smooth_mode", no_solve)
    assert run(["converge", "--epsilons", epsilons,
                "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_converge_refuses_an_unknown_shape_by_key_before_any_solve(
        monkeypatch, tmp_path, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a width was solved")

    monkeypatch.setattr(cli, "route_b_sweep", no_sweep)
    assert run(["converge", "--shapes", "logistic,erf,foo",
                "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", (
        "error: config: converge.shapes[2] must be one of ('logistic', "
        "'erf', 'ramp'), got 'foo'\n"))
    assert not (tmp_path / "out").exists()


def test_converge_rejects_empty_shapes(tmp_path, capsys):
    assert run(["converge", "--shapes", "", "--out", str(tmp_path)]) == 2
    assert "shapes" in capsys.readouterr().err


def test_limits_nonrel_table(tmp_path, capsys):
    assert run(["limits", "--kind", "nonrel", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "force-residual log-log slope vs c:" in out
    lines = (tmp_path / "limits_nonrel.csv").read_text().splitlines()
    assert lines[0] == "c,residual_density,residual_force,tag"
    assert len(lines) == 4
    assert all(line.endswith(",ok") for line in lines[1:])


def test_limits_infinite_step_table(tmp_path, capsys):
    assert run(["limits", "--kind", "infinite-step",
                "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "candidate-error log-log slope vs v0:" in out
    lines = (tmp_path / "limits_infinite_step.csv").read_text().splitlines()
    assert lines[0] == "v0,route_a,wall_value,candidate,candidate_error,tag"
    assert len(lines) == 4


@pytest.mark.parametrize("argv,line", [
    (["--v0", "0"], "force-residual log-log slope vs c: nan"),
    (["--kind", "infinite-step", "--v0-list", "0.5,0.7"],
     "candidate-error log-log slope vs v0: nan")])
def test_limits_prints_a_nan_slope_bare(tmp_path, capsys, argv, line):
    # every row is degenerate or rejected, so no slope can be fitted
    assert run(["limits", *argv, "--out", str(tmp_path)]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_limits_rejects_unknown_kind(tmp_path, capsys):
    assert run(["limits", "--kind", "hardwall", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,flag,value,code", [
    (["limits", "--kind", "infinite-step"], "--v0-list", "-5,20", 0),
    (["limits", "--kind", "nonrel"], "--speeds", "-10,10", 2),
    (["limits", "--kind", "infinite-step"], "--energy", "-1e3", 1),
    (["converge"], "--energy", "-1e-3", 1),
    (["ehrenfest", "--case", "free"], "--x0", "-1.2e1", 0)])
def test_a_flag_value_beginning_with_a_minus_sign_reads_as_its_eq_form(
        argv, flag, value, code, tmp_path, capsys):
    runs = []
    for form, args in (("split", [flag, value]),
                       ("joined", [f"{flag}={value}"])):
        out = tmp_path / form
        got = run([*argv, *args, "--out", str(out)])
        captured = capsys.readouterr()
        files = (sorted((p.name, p.read_bytes()) for p in out.iterdir())
                 if out.exists() else None)
        runs.append((got, captured.out.replace(str(out), "OUT"),
                     captured.err, files))
    assert runs[0] == runs[1]
    assert runs[0][0] == code
    assert "expected one argument" not in runs[0][2]


@pytest.mark.parametrize("value", ["--theory", "-h", "-x"])
def test_an_option_name_after_a_flag_is_still_an_error(value, tmp_path,
                                                       capsys):
    assert run(["mode", "--energy", value, "--out", str(tmp_path)]) == 2
    assert ("argument --energy: expected one argument"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_ehrenfest_free_run_writes_table(tmp_path, capsys):
    assert run(["ehrenfest", "--case", "free", "--t-final", "0.5",
                "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "max |dp/dt - force| =" in out
    assert "norm drift =" in out
    lines = (tmp_path / "ehrenfest.csv").read_text().splitlines()
    assert lines[0] == "t,px_expect,dpdt,force_expect,norm"
    assert len(lines) > 2
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[2] == "nan"
    assert float(first[4]) == pytest.approx(1.0, abs=1e-12)


def test_ehrenfest_says_when_it_runs_past_t_final(tmp_path, capsys):
    # 41 steps of dt = 1e-3 round up to two save intervals of 40 steps
    assert run(["ehrenfest", "--case", "free", "--t-final", "0.041",
                "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == ("ran to t = 0.080000000000000002, past t_final = "
                         "0.041000000000000002: t_final / dt rounds up to a "
                         "whole number of save intervals")
    rows = (tmp_path / "ehrenfest.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.04, 0.08]
    # a whole number of save intervals runs to t_final and says nothing
    assert run(["ehrenfest", "--case", "free", "--t-final", "0.08",
                "--out", str(tmp_path)]) == 0
    assert "ran to" not in capsys.readouterr().out


def _echoed_config(out: str) -> dict:
    head, _, body = out.partition("\n")
    assert head == "resolved config:"
    return json.JSONDecoder().raw_decode(body)[0]


def test_the_echoed_config_parses_with_control_characters_in_out(
        tmp_path, capsys):
    out = tmp_path / "o\tx\r\x01"
    assert run(["mode", "--out", str(out)]) == 0
    assert _echoed_config(capsys.readouterr().out)["out"] == str(out)
    assert (out / "mode.json").exists()


def test_ehrenfest_free_keeps_values_equal_to_scattering_defaults(
        tmp_path, capsys):
    # -12 is the scattering default for x0 and 4e-4 its dt; the free case
    # defaults to -10 and 1e-3, yet given values must win
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ehrenfest": {"dt": 4.0e-4}}))
    assert run(["ehrenfest", "--case", "free", "--x0", "-12",
                "--t-final", "0.2", "--config", str(cfg),
                "--out", str(tmp_path)]) == 0
    blk = _echoed_config(capsys.readouterr().out)["ehrenfest"]
    assert blk["x0"] == -12.0
    assert blk["dt"] == 4.0e-4
    assert blk["t_final"] == 0.2
    assert blk["n_points"] == 2001  # untouched keys take the free defaults


@pytest.mark.parametrize("flags,table,key", [
    (["--v0", "0.3"], {}, "v0"),
    (["--shape", "erf"], {}, "shape"),
    ([], {"ehrenfest": {"eps": 0.2}}, "eps")])
def test_ehrenfest_free_rejects_the_step_keys(flags, table, key, tmp_path,
                                              capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(table))
    out = tmp_path / "out"
    code = run(["ehrenfest", "--case", "free", *flags, "--config", str(cfg),
                "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert (f"error: config: ehrenfest.{key} has no effect for case free"
            in err)
    assert not out.exists()


def test_ehrenfest_free_accepts_non_natural_units(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"hbar": 2, "mass": 3}}))
    assert run(["ehrenfest", "--case", "free", "--t-final", "0.2",
                "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    first = (tmp_path / "ehrenfest.csv").read_text().splitlines()[1]
    # <p> = hbar k0 at t = 0
    assert float(first.split(",")[1]) == pytest.approx(2.0, rel=1e-6)


def test_ehrenfest_box_guard_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ehrenfest": {"x_min": -20.0,
                                             "n_points": 3201}}))
    code = run(["ehrenfest", "--case", "scattering", "--config", str(cfg),
                "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "box-too-small" in err


@pytest.mark.parametrize("flags,quantity", [
    (["--dt", "0"], "time step"),
    (["--dt", "-0.001"], "time step"),
    (["--t-final", "-1"], "final time")])
def test_ehrenfest_rejects_nonpositive_times(flags, quantity, tmp_path,
                                             capsys):
    code = run(["ehrenfest", "--case", "free", *flags,
                "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: config: {quantity} must be positive" in err
    assert not (tmp_path / "ehrenfest.csv").exists()


@pytest.mark.parametrize("argv,table,message", [
    (["limits", "--kind", "nonrel", "--speeds", "-10,10"], None,
     "c must be positive, got -10.0"),
    (["mode"], {"params": {"c": -1}}, "c must be positive, got -1.0"),
    (["limits"], {"params": {"mass": 0}}, "mass must be positive, got 0.0")])
def test_non_positive_constants_exit_2_naming_the_value(argv, table, message,
                                                        tmp_path, capsys):
    if table is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(table))
        argv = [*argv, "--config", str(cfg)]
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: config: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv,key", [
    (["converge", "--epsilons", "0.2,0.1,0.05", "--energy", "nan"],
     "converge.energy"),
    (["converge", "--epsilons", "0.2,0.1,0.05", "--domain", "nan"],
     "converge.domain"),
    (["converge", "--v0", "inf"], "converge.v0"),
    (["converge", "--epsilons", "0.2,nan,0.05"], "converge.epsilons"),
    (["mode", "--energy", "inf"], "mode.energy"),
    (["mode", "--v0", "nan"], "mode.v0"),
    (["limits", "--energy-nr", "nan"], "limits.energy_nr"),
    (["limits", "--kind", "infinite-step", "--v0-list", "10,-inf"],
     "limits.v0_list"),
    (["ehrenfest", "--eps", "nan"], "ehrenfest.eps"),
    (["ehrenfest", "--case", "free", "--v0", "inf"], "ehrenfest.v0"),
    (["ehrenfest", "--case", "free", "--t-final", "inf"],
     "ehrenfest.t_final")])
def test_non_finite_flags_exit_2(argv, key, tmp_path, capsys):
    code = run([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: config: {key} must be finite, got ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["mode", "converge", "limits",
                                     "ehrenfest", "report"])
def test_non_finite_config_values_exit_2(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"params": {"hbar": NaN}}')
    out = tmp_path / "out"
    code = run([command, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: config: params.hbar must be finite, got nan" in err
    assert not out.exists()


@pytest.mark.parametrize("theory", ["s", "kfg", "dirac"])
def test_converge_with_an_overflowing_energy_exits_2(theory, tmp_path,
                                                     capsys):
    code = run(["converge", "--theory", theory, "--energy", "1e308",
                "--epsilons", "0.2,0.1,0.05", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: config: k^2 on the plateau")
    assert "must be finite" in err and "Traceback" not in err


def test_converge_needing_too_many_segments_exits_2(tmp_path, capsys):
    code = run(["converge", "--theory", "s", "--energy", "1e300",
                "--epsilons", "0.2,0.1,0.05", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: config: the model needs ")
    assert "the bound is 1e+06" in err and "Traceback" not in err


def test_report_rejects_a_negative_draw_count(tmp_path, capsys):
    code = run(["report", "--n-random", "-1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: config: report.n_random must be >= 0, got -1" in err
    assert not (tmp_path / "report.json").exists()


def test_mode_accepts_a_non_natural_hbar(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"hbar": 2.0}}))
    assert run(["mode", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "mode.json").read_text())
    assert abs(payload["identity_residual"]) <= 1e-13


def test_infinite_step_limits_accept_non_natural_units(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"mass": 2.0, "c": 3.0}}))
    assert run(["limits", "--kind", "infinite-step", "--config", str(cfg),
                "--out", str(tmp_path)]) == 0
    capsys.readouterr()


def test_failed_cross_check_exits_1_naming_both_quantities(
        tmp_path, capsys, monkeypatch):
    real_probe = force.interface_probe

    def corrupted(mode):
        probe = real_probe(mode)
        return replace(probe, rho_right=probe.rho_right * (1.0 + 1e-6))

    monkeypatch.setattr(force, "interface_probe", corrupted)
    code = run(["converge", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: cross-check: density jump rho(0+) - rho(0-)")
    assert "-(v0/mc^2)|psi(0)|^2" in err and "exceeds 1e-12" in err
    # the difference printed is the one injected
    rho_right = real_probe(solve_step_mode("kfg", 2.0,
                                           PhysicalParams(v0=0.5))).rho_right
    assert f"difference {1e-6 * rho_right:.3e} exceeds" in err
    assert "Traceback" not in err


def test_report_bundle_content(report_runs):
    bundle = report_runs["bundle"]
    assert bundle["version"]
    assert bundle["seed"] == 0
    assert bundle["resolved_config"]["report"]["n_random"] == 100
    for theory in ("s", "kfg", "dirac"):
        sweep = bundle["random_sweeps"][theory]
        assert sweep["n_draws"] == 100
        assert sum(sweep["regime_counts"].values()) == 100
        worst = sweep["worst"]
        assert worst["continuity"] <= 1e-12
        assert worst["flux"] <= 1e-12
        assert worst["evanescent_reflection"] <= 1e-12
    assert bundle["flagships"]["kfg"]["route_a"] == pytest.approx(
        KFG_FORCE, rel=1e-12)
    verdicts = bundle["route_b"]["kfg"]["verdicts"]
    assert all(v["matched"] == "midpoint_average" for v in verdicts.values())
    for theory in ("s", "dirac"):
        for v in bundle["route_b"][theory]["verdicts"].values():
            assert v["matched"] in ("both", "sharp_closed_form")


def test_report_matches_the_recorded_oracle(report_runs):
    # the seed-0 bytes recorded before any optimisation: speed work must
    # leave them unchanged
    oracle = (Path(__file__).resolve().parents[1] / "perfbench" / "oracle"
              / "report_seed0.json")
    assert report_runs["raw"][0] == oracle.read_bytes()


@pytest.mark.parametrize("argv,key", [
    (["--speeds", ""], "speeds"),
    (["--kind", "infinite-step", "--v0-list", ""], "v0_list"),
    (["--speeds", "10"], "speeds"),
    (["--speeds", "10,10,10"], "speeds"),
    (["--kind", "infinite-step", "--v0-list", "100,100"], "v0_list")])
def test_limits_rejects_sweeps_without_two_distinct_values(argv, key,
                                                           tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["limits", *argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert (f"config key limits.{key} needs at least 2 distinct values"
            in captured.err)
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv,table,key,kind", [
    (["--energy", "0"], None, "energy", "nonrel"),
    (["--v0-list", "10,100"], None, "v0_list", "nonrel"),
    ([], {"limits": {"energy": 2.0}}, "energy", "nonrel"),
    (["--kind", "infinite-step", "--energy-nr", "0.2"], None, "energy_nr",
     "infinite-step"),
    (["--kind", "infinite-step", "--v0", "0.1"], None, "v0", "infinite-step"),
    (["--kind", "infinite-step", "--speeds", "10,100"], None, "speeds",
     "infinite-step"),
    (["--kind", "infinite-step"], {"limits": {"v0": 0.1}}, "v0",
     "infinite-step"),
    ([], {"limits": {"kind": "infinite-step", "speeds": [1.0, 2.0]}},
     "speeds", "infinite-step")])
def test_limits_rejects_keys_its_kind_does_not_read(argv, table, key, kind,
                                                    tmp_path, capsys):
    if table is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(table))
        argv = [*argv, "--config", str(cfg)]
    out = tmp_path / "out"
    code = run(["limits", *argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert (f"error: config: limits.{key} has no effect for kind {kind}"
            in captured.err)
    assert captured.out == ""
    assert not out.exists()


def test_limits_rejects_an_unknown_kind_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["limits", "--kind", "hardwall", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: config: limits.kind must be one of "
                            "('nonrel', 'infinite-step'), got 'hardwall'\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("table,key", [
    ({"ehrenfest": {"dt": 1e-3}}, "ehrenfest.dt"),
    ({"converge": {"energy": 3.0}}, "converge.energy"),
    ({"params": {"hbar": 2.0}, "limits": {"speeds": [10.0, 20.0]}},
     "limits.speeds"),
    ({"mode": {"theory": "s"}}, "mode.theory")])
def test_report_rejects_config_it_does_not_read(table, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(table))
    out = tmp_path / "out"
    code = run(["report", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: config: report does not read {key}" in err
    assert not out.exists()


def test_report_reads_params_and_its_own_table(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"hbar": 2.0},
                               "report": {"n_random": 3}, "ehrenfest": {}}))
    args = cli.build_parser().parse_args(["report", "--config", str(cfg)])
    resolved, _, _, command = cli._resolve(args)
    assert command == "report"
    assert resolved["params"]["hbar"] == 2.0
    assert resolved["report"]["n_random"] == 3
    assert resolved["ehrenfest"] == cli.DEFAULTS["ehrenfest"]


# ---------------------------------------------------------------------------
# energies too large for the solvers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv,message", [
    (["mode", "--theory", "kfg", "--energy", "1e300"],
     "k^2 on the plateau phi = 0.0 at energy 1e+300 is inf"),
    (["mode", "--theory", "dirac", "--energy", "1e300"],
     "k^2 on the plateau phi = 0.0 at energy 1e+300 is inf"),
    (["mode", "--theory", "s", "--energy", "1.7e308"],
     "k^2 on the plateau phi = 0.0 at energy 1.7e+308 is inf"),
    (["limits", "--kind", "nonrel", "--energy-nr", "1e300"],
     "k^2 on the plateau phi = 0.0 at energy 1e+300 is inf"),
    (["limits", "--kind", "infinite-step", "--energy", "1.7e308"],
     "k^2 on the plateau phi = 0.0 at energy 1.7e+308 is inf"),
    (["limits", "--kind", "infinite-step", "--energy", "1e300",
      "--v0-list", "1e306,1e307,1e308"],
     "k^2 on the plateau phi = 1e+308 at energy 1e+300 is -inf"),
    (["limits", "--kind", "infinite-step", "--v0-list", "1e300,1e301"],
     "the candidate error at v0 = 1e+300 rounds to 0, so it has no "
     "logarithm"),
    (["limits", "--kind", "nonrel", "--speeds", "1e200,1e201"],
     "the rest energy mass * c^2 of mass 1.0 and c 1e+200 must be finite"),
    # at c = 1e10, mc^2 + 0.1 rounds to mc^2 = 1e20: the cause is the sum
    (["limits", "--kind", "nonrel", "--speeds", "1e10,1e20"],
     "the spin-0 energy mc^2 + E_nr rounds to mc^2 = 1e+20 at E_nr = 0.1 "
     "and c = 10000000000.0; E_nr is below the precision of the sum")])
def test_unrepresentable_energies_exit_2_writing_nothing(argv, message,
                                                         tmp_path, capsys):
    code = run([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: config: {message}")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_hard_wall_sweep_at_a_huge_energy_needs_heights_above_it(tmp_path,
                                                                 capsys):
    # E = 1e300 is a usable energy: heights above it give the 1/v0 decay
    assert run(["limits", "--kind", "infinite-step", "--energy", "1e300",
                "--v0-list", "1e301,1e302,1e303",
                "--out", str(tmp_path)]) == 0
    slope = capsys.readouterr().out.split("slope vs v0: ")[1].split("\n")[0]
    assert float(slope) == pytest.approx(-1.0, abs=1e-9)
    # the default heights lie below it, so every row is rejected, as for
    # any energy above every height
    assert run(["limits", "--kind", "infinite-step", "--energy", "1e300",
                "--out", str(tmp_path)]) == 0
    assert "slope vs v0: nan" in capsys.readouterr().out
    rows = (tmp_path / "limits_infinite_step.csv").read_text().splitlines()
    assert all(row.endswith(",rejected") for row in rows[1:])


def test_hard_wall_sweep_below_threshold_exits_1(tmp_path, capsys):
    code = run(["limits", "--kind", "infinite-step", "--energy", "-1",
                "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: below-threshold: incidence needs E > 0, "
                          "got E = -1.0")
    assert list(tmp_path.iterdir()) == []


def test_nonrel_energy_at_zero_stays_below_threshold(tmp_path, capsys):
    code = run(["limits", "--kind", "nonrel", "--energy-nr", "0",
                "--speeds", "1e10,1e20", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: below-threshold: incidence needs E > mc^2")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["mode", "converge", "limits",
                                     "ehrenfest", "report"])
def test_a_negative_seed_exits_2_naming_it(command, tmp_path, capsys):
    # report alone reads a seed; the other commands have no --seed flag
    out = tmp_path / "out"
    assert run([command, "--seed", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if command == "report":
        assert captured.err == (
            "error: config: seed must be non-negative, got -1\n")
    else:
        assert captured.err.endswith(
            "stepforce: error: unrecognized arguments: --seed -1\n")
    assert not out.exists()


@pytest.mark.parametrize("n_points,dx", [(3, "40.0"), (41, "2.0")])
def test_a_grid_coarser_than_the_packet_exits_1(n_points, dx, tmp_path,
                                               capsys):
    # the free case's box is [-40, 40] and its packet width sigma = 2
    code = run(["ehrenfest", "--case", "free", "--n-points", str(n_points),
                "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(
        f"error: under-resolved: grid spacing {dx} does not resolve the "
        f"packet width 2.0; need dx <= sigma/4 = 0.5")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the report's packet audits: two permits handed over at checkpoints
# ---------------------------------------------------------------------------

_STAGES = ("free", "scattering", "scattering_half_dt", "packet_rt")


def _handed_over(events) -> bool:
    """Whether, in a log of (job, "start" | "end") events, a job started
    while two others had started and not ended: with two permits, one of
    those two must have paused at a checkpoint."""
    live = set()
    for job, event in events:
        if event == "start":
            if len(live) >= 2:
                return True
            live.add(job)
        else:
            live.discard(job)
    return False


def _bounded(fn, timeout: float = 60.0):
    """fn() on a thread of its own, joined with a timeout, so that a lost
    wake-up fails the test instead of hanging the suite; returns fn's
    result or raises its exception."""
    outcome = []

    def target():
        try:
            outcome.append((True, fn()))
        except Exception as exc:
            outcome.append((False, exc))

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive()
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


class _Log:
    """Start and end events of jobs and the most jobs computing at once:
    a job counts as computing from its start to its end, except while it
    is inside a checkpoint call."""

    def __init__(self):
        self.events = []
        self.computing = self.peak = 0
        self._lock = threading.Lock()

    def computes(self, change: int):
        with self._lock:
            self.computing += change
            self.peak = max(self.peak, self.computing)

    @contextlib.contextmanager
    def job(self, name):
        """Log the job's start and its end, also when it raises."""
        self.events.append((name, "start"))
        self.computes(1)
        try:
            yield
        finally:
            self.computes(-1)
            self.events.append((name, "end"))

    def paused(self, checkpoint):
        """checkpoint, with its caller not computing while it runs."""
        def call(rest):
            self.computes(-1)
            checkpoint(rest)
            self.computes(1)
        return call


def _stub_audits(monkeypatch, act):
    """Replace the four packet audits by stubs that call act(stage), then
    work through their real cost (grid points times steps) in 20 parts
    with a checkpoint between each two.  Each returns a report whose
    max_deviation is the stage's 1-based index.  Returns (threads, log):
    the dict stage -> thread ident it ran on, and the _Log."""
    threads, log = {}, _Log()

    def audit(blk, dt, pars, checkpoint):
        if blk is cli._EHRENFEST_FREE:
            stage = "free"
        elif blk is cli._RT_CASE:
            stage = "packet_rt"
        else:
            stage = ("scattering" if dt == blk["dt"]
                     else "scattering_half_dt")
        threads[stage] = threading.get_ident()
        cost, pause = blk["n_points"] * blk["t_final"] / dt, log.paused(
            checkpoint)
        with log.job(stage):
            act(stage)
            for part in range(19, 0, -1):
                time.sleep(0.001)
                pause(cost * part / 20)
        return SimpleNamespace(
            max_deviation=float(_STAGES.index(stage) + 1),
            max_deviation_rel=0.0, norm_drift=0.0, wall_amplitude=0.0,
            dt=dt, save_stride=blk["save_stride"],
            final_state=SimpleNamespace(reg=None))

    monkeypatch.setattr(cli, "_audit", audit)
    monkeypatch.setattr(cli, "compare_packet_rt",
                        lambda state, spec: {"stub": True})
    return threads, log


def _meet_in_pairs():
    """act() that holds the two costliest audits until both run: it
    breaks (BrokenBarrierError) unless they start together."""
    barrier = threading.Barrier(2, timeout=10.0)

    def act(stage):
        if stage in ("packet_rt", "scattering_half_dt"):
            barrier.wait()

    return act


def test_packet_audits_compute_two_at_a_time(monkeypatch):
    threads, log = _stub_audits(monkeypatch, _meet_in_pairs())
    before, caller = threading.active_count(), []

    def report():
        caller.append(threading.get_ident())
        return cli._report_ehrenfest(
            cli.build_params(cli.load_config(None), 0.5))

    _bounded(report)
    assert threading.active_count() == before
    # one thread per audit, the costliest on the calling thread
    assert set(threads) == set(_STAGES)
    assert len(set(threads.values())) == 4
    assert threads["packet_rt"] == caller[0]
    assert log.events[:2] in ([("packet_rt", "start"),
                               ("scattering_half_dt", "start")],
                              [("scattering_half_dt", "start"),
                               ("packet_rt", "start")])
    assert log.peak == 2
    # half dt or packet R/T passes 260 - 14.3 million left before it ends,
    # so scattering, the waiting audit with most left, takes a permit from
    # one of them, which resumes later; free starts only at an end
    assert _handed_over(log.events)
    assert [stage for stage, event in log.events
            if event == "start"][2:] == ["scattering", "free"]
    assert sorted(log.events) == sorted(
        (stage, event) for stage in _STAGES for event in ("start", "end"))


def test_packet_audit_results_keep_stage_order(monkeypatch):
    # the first stage is the cheapest, so it starts last; it also ends last
    threads, _ = _stub_audits(monkeypatch, lambda stage: time.sleep(
        0.2 if stage == "free" else 0.0))
    out = _bounded(lambda: cli._report_ehrenfest(
        cli.build_params(cli.load_config(None), 0.5)))
    assert set(threads) == set(_STAGES)
    assert list(out) == ["free", "scattering", "scattering_half_dt",
                         "dt_halving_ratio", "packet_rt"]
    for index, stage in enumerate(_STAGES[:3]):
        assert out[stage]["max_deviation"] == index + 1
    assert out["dt_halving_ratio"] == 2.0 / 3.0
    half_dt = cli.DEFAULTS["ehrenfest"]["dt"] / 2.0
    assert out["scattering_half_dt"]["dt"] == half_dt
    assert out["packet_rt"] == {"stub": True}


def test_first_failed_audit_in_stage_order_surfaces(monkeypatch):
    finished = []

    def act(stage):
        # packet R/T starts first and fails first; scattering fails later
        if stage == "packet_rt":
            finished.append(stage)
            raise BoxTooSmall("stage 4")
        if stage == "scattering":
            time.sleep(0.1)
            finished.append(stage)
            raise ValueError("stage 2")
        finished.append(stage)

    threads, log = _stub_audits(monkeypatch, act)
    before = threading.active_count()
    with pytest.raises(ValueError, match="stage 2"):
        _bounded(lambda: cli._report_ehrenfest(
            cli.build_params(cli.load_config(None), 0.5)))
    assert set(threads) == set(finished) == set(_STAGES)
    assert finished.index("packet_rt") < finished.index("scattering")
    # a failed audit frees its permit: the others still run to their end
    assert sorted(log.events) == sorted(
        (stage, event) for stage in _STAGES for event in ("start", "end"))
    assert log.peak <= 2
    assert threading.active_count() == before


def test_report_with_a_worker_lane_box_error_exits_1(monkeypatch, tmp_path,
                                                     capsys):
    meet = _meet_in_pairs()

    def act(stage):
        meet(stage)
        if threading.current_thread() is not threading.main_thread():
            raise BoxTooSmall(f"stub wall amplitude in {stage}")

    _stub_audits(monkeypatch, act)
    before = threading.active_count()
    code = run(["report", "--n-random", "2", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: box-too-small: stub wall amplitude in ")
    assert not (tmp_path / "report.json").exists()
    assert threading.active_count() == before


def test_a_report_of_no_draws_writes_empty_regime_counts(monkeypatch,
                                                         tmp_path, capsys):
    _stub_audits(monkeypatch, lambda stage: None)
    assert run(["report", "--n-random", "0", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    text = (tmp_path / "report.json").read_text()
    sweeps = json.loads(text)["random_sweeps"]
    for theory in ("s", "kfg", "dirac"):
        assert sweeps[theory]["n_draws"] == 0
        assert sweeps[theory]["regime_counts"] == {}
        assert set(sweeps[theory]["worst"].values()) == {0}
    assert text.count('"regime_counts": {}') == 3


def test_an_exact_half_dt_audit_reads_an_infinite_dt_halving_ratio(
        monkeypatch, tmp_path, capsys):
    # the ratio is the coarse over the half-dt max_deviation, "inf" when
    # the latter is 0
    _stub_audits(monkeypatch, lambda stage: None)
    stub = cli._audit

    def audit(blk, dt, pars, checkpoint):
        report = stub(blk, dt, pars, checkpoint)
        if blk is cli.DEFAULTS["ehrenfest"] and dt != blk["dt"]:
            report.max_deviation = 0.0
        return report

    monkeypatch.setattr(cli, "_audit", audit)
    assert run(["report", "--n-random", "0", "--out", str(tmp_path)]) == 0
    assert "\nehrenfest dt-halving ratio: inf\n" in capsys.readouterr().out
    text = (tmp_path / "report.json").read_text()
    assert '"dt_halving_ratio": "inf"' in text
    eh = json.loads(text)["ehrenfest"]
    assert eh["scattering"]["max_deviation"] == 2.0
    assert eh["scattering_half_dt"]["max_deviation"] == 0.0


def test_two_lanes_run_each_job_once_under_fast_thread_switching():
    log, ran = _Log(), []
    # the first two jobs to start meet while they count as computing, so
    # two jobs compute at once whatever the host's scheduling: two permits
    # let both reach the barrier, one permit breaks it
    meet, starts = threading.Barrier(2, timeout=10.0), itertools.count()

    def job(i, checkpoint):
        pause = log.paused(checkpoint)
        with log.job(i):
            if next(starts) < 2:
                meet.wait()
            for part in range(200, 0, -1):
                pause((i + 1) * part)
        ran.append(i)       # one atomic append per run, so no run is lost
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    before = threading.active_count()
    try:
        out = _bounded(lambda: cli._two_lanes(
            [functools.partial(job, i) for i in range(6)],
            [200 * (i + 1) for i in range(6)]))
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert out == [i * i for i in range(6)]
    assert sorted(ran) == list(range(6))
    assert sorted(log.events) == sorted(
        (i, event) for i in range(6) for event in ("start", "end"))
    assert log.peak == 2
    assert _handed_over(log.events)


def test_a_permit_moves_only_past_the_margin():
    # costs 100, 100 and 99: the margin is 1 % of 299, so the third job
    # starts only once a running job reports less than 99 - 2.99 left
    events = []

    def job(i, checkpoint):
        events.append((i, "start"))
        for rest in np.arange(99.5, 0.0, -0.5):
            time.sleep(0.0005)
            events.append((i, rest))
            checkpoint(rest)
        events.append((i, "end"))
        return i

    assert _bounded(lambda: cli._two_lanes(
        [functools.partial(job, i) for i in range(3)],
        [100.0, 100.0, 99.0])) == [0, 1, 2]
    assert _handed_over([e for e in events if isinstance(e[1], str)])
    start = events.index((2, "start"))
    assert min(rest for _, rest in events[:start]
               if not isinstance(rest, str)) <= 96.0


def test_audits_keep_their_bits_through_handovers():
    pars = cli.build_params(cli.load_config(None), 0.5)
    # the scattering case on the free case's n = 2001 grid: eps >= 4 h
    scatter = {**cli.DEFAULTS["ehrenfest"], "x_min": -40.0, "x_max": 40.0,
               "n_points": 2001, "eps": 0.2, "t_final": 0.4,
               "save_stride": 20}
    free = {**cli._EHRENFEST_FREE, "t_final": 0.5}
    audits = ((free, free["dt"]), (scatter, scatter["dt"]),
              (scatter, scatter["dt"] / 2.0))
    log = _Log()

    def job(i, checkpoint):
        with log.job(i):
            return cli._audit(*audits[i], pars, log.paused(checkpoint))

    # 1.0, 2.0 and 4.0 million point-steps: scattering or half dt passes
    # the free audit's 1.0 million less the 70 thousand margin before it
    # ends, and hands its permit to the free audit
    lanes = _bounded(lambda: cli._two_lanes(
        [functools.partial(job, i) for i in range(3)],
        [blk["n_points"] * blk["t_final"] / dt for blk, dt in audits]))
    assert _handed_over(log.events)
    assert log.peak == 2
    for (blk, dt), got in zip(audits, lanes):
        serial = timeevo.ehrenfest_report(
            *cli._ehrenfest_setup(blk), dt, blk["t_final"],
            blk["save_stride"], params=pars)
        for field in fields(serial):
            want, have = getattr(serial, field.name), getattr(got,
                                                              field.name)
            if field.name == "final_state":
                want, have = want.psi, have.psi
            if isinstance(want, np.ndarray):
                assert want.dtype == have.dtype
                assert want.tobytes() == have.tobytes(), field.name
            else:
                assert float(want).hex() == float(have).hex(), field.name


def test_a_lane_job_runs_under_the_callers_floating_point_state():
    # numpy's error state does not reach a new thread, so each lane enters
    # the caller's; the costlier job runs on the calling thread, and the
    # overflowing one on a worker
    threads = {}

    def overflow(checkpoint):
        threads["job"] = threading.current_thread()
        return np.ones(1) * 1e308 * 10.0

    def caller():
        threads["caller"] = threading.current_thread()
        with np.errstate(over="raise"):
            return cli._two_lanes([overflow, lambda checkpoint: 0.0],
                                  [1.0, 2.0])

    with pytest.raises(FloatingPointError,
                       match="^overflow encountered in multiply$"):
        _bounded(caller)
    assert threads["job"] is not threads["caller"]


def test_a_floating_point_exception_fails_the_run(monkeypatch, tmp_path,
                                                  capsys):
    # main runs a command with overflow, invalid operations and division
    # by zero raising, and underflow quiet even where the caller's state
    # raises on it
    def overflowing(cfg, seed):
        np.ones(1) * 1e-300 * 1e-300
        return ["unreached"], {"mode.json": str(np.ones(1) * 1e308 * 10.0)}

    monkeypatch.setitem(cli._COMMANDS, "mode", (overflowing, "stub"))
    out = tmp_path / "out"
    with np.errstate(under="raise"):
        assert run(["mode", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: floating-point: mode: overflow "
                            "encountered in multiply\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# the output contract: a failed run prints nothing and creates nothing
# ---------------------------------------------------------------------------

def _worker_lane_box_error(monkeypatch):
    meet = _meet_in_pairs()

    def act(stage):
        meet(stage)
        if threading.current_thread() is not threading.main_thread():
            raise BoxTooSmall(f"stub wall amplitude in {stage}")

    _stub_audits(monkeypatch, act)


def _config_file(table):
    """Stub: every config file reads as ``table``."""
    return lambda monkeypatch: monkeypatch.setattr(
        cli, "_read_config", lambda path: table)


def _wrong_density_jump(monkeypatch):
    """Stub: the spin-0 density jump is off by 1 %, so the half-jump force
    disagrees with its one-component restatement."""
    jump = force.kfg_density_jump
    monkeypatch.setattr(force, "kfg_density_jump",
                        lambda mode: 1.01 * jump(mode))


# failing runs, at least one per command and exit code: (argv, exit code,
# start of the stderr message, stub to install first)
_FAILED_RUNS = [
    (["mode", "--energy", "0.5"], 1,
     "below-threshold: incidence needs E > mc^2", None),
    (["mode", "--theory", "kfg", "--energy", "1e300"], 2,
     "config: k^2 on the plateau", None),
    # the smooth solver's left plateau is the profile's limit, exactly 0,
    # so it refuses with the sharp solver's text
    (["converge", "--theory", "kfg", "--energy", "0.5"], 1,
     "below-threshold: incidence needs E > mc^2 = 1.0, got E = 0.5\n", None),
    (["converge", "--theory", "s", "--energy", "-1"], 1,
     "below-threshold: incidence needs E > 0, got E = -1.0\n", None),
    (["converge", "--epsilons", "0.2,0.1"], 2,
     "config: converge.epsilons needs at least 3", None),
    (["converge", "--epsilons", "0.05,0.1,0.2"], 2,
     "config: converge.epsilons must be strictly decreasing, got "
     "[0.05, 0.1, 0.2]\n", None),
    (["mode", "--theory", "KFG"], 2,
     "config: unknown theory 'KFG'; expected one of ('s', 'kfg', "
     "'dirac')\n", None),
    (["converge", "--theory", "kg"], 2,
     "config: unknown theory 'kg'; expected one of ('s', 'kfg', "
     "'dirac')\n", None),
    (["converge", "--shapes", "LOGISTIC"], 2,
     "config: converge.shapes[0] must be one of ('logistic', 'erf', "
     "'ramp'), got 'LOGISTIC'\n", None),
    (["ehrenfest", "--shape", "error-function"], 2,
     "config: unknown shape 'error-function'; expected one of "
     "('logistic', 'erf', 'ramp')\n", None),
    (["limits", "--kind", "Nonrel"], 2,
     "config: limits.kind must be one of ('nonrel', 'infinite-step'), got "
     "'Nonrel'\n", None),
    (["ehrenfest", "--case", "Free"], 2,
     "config: ehrenfest.case must be one of ('scattering', 'free'), got "
     "'Free'\n", None),
    (["ehrenfest", "--case", "tunneling"], 2,
     "config: ehrenfest.case must be one of ('scattering', 'free'), got "
     "'tunneling'\n", None),
    (["converge", "--theory", "s", "--energy", "1e12"], 2,
     "config: the model needs ", None),
    # v0 / eps is finite at v0 = 1e-300, but eps / 8 rounds to 0
    (["converge", "--v0", "1e-300", "--theory", "s", "--energy", "1.0",
      "--epsilons", "1.5e-323,1e-323,5e-324"], 2,
     "config: the segment width eps / 8 rounds to 0 at eps 1.5e-323\n", None),
    # exp(-kappa x_s) underflows at eps = 0.2 (kappa x_s = 1131 and 3578)
    (["converge", "--theory", "s", "--energy", "1", "--v0", "1e4"], 2,
     "config: the smooth-step march leaves the double range at eps 0.2, "
     "energy 1.0, v0 10000.0\n", None),
    (["converge", "--theory", "s", "--energy", "1", "--v0", "1e5"], 2,
     "config: the smooth-step march leaves the double range at eps 0.2, "
     "energy 1.0, v0 100000.0\n", None),
    (["limits", "--kind", "infinite-step", "--energy", "-1"], 1,
     "below-threshold: incidence needs E > 0, got E = -1.0", None),
    # mc^2 + E_nr rounds to mc^2 = 1e20 here: only E_nr shows the cause
    (["limits", "--kind", "nonrel", "--energy-nr", "-1",
      "--speeds", "1e10,1e20"], 1,
     "below-threshold: incidence needs E > mc^2, that is E_nr > 0, got "
     "E_nr = -1.0\n", None),
    # 1 + 1e-16 rounds to 1, while 1 - 1e-16 does not
    (["limits", "--kind", "nonrel", "--speeds", "1,2", "--energy-nr",
      "1e-16"], 2,
     "config: the spin-0 energy mc^2 + E_nr rounds to mc^2 = 1.0 at E_nr = "
     "1e-16 and c = 1.0; E_nr is below the precision of the sum\n", None),
    (["ehrenfest", "--case", "free", "--n-points", "41"], 1,
     "under-resolved: grid spacing 2.0", None),
    (["ehrenfest", "--save-stride", "0"], 2,
     "config: save_stride must be at least 1, got 0\n", None),
    (["ehrenfest", "--n-points", "1"], 2,
     "config: need at least 2 grid points, got 1\n", None),
    # refused before the packet's grid of 74.5 GiB is asked for
    (["ehrenfest", "--n-points", "10000000000"], 2,
     "config: the packet grid has 10000000000 points; the bound is 1e+06\n",
     None),
    (["ehrenfest", "--x-min", "5", "--x-max", "-5"], 2,
     "config: x_max must exceed x_min, got x_min = 5.0 and x_max = -5.0\n",
     None),
    (["ehrenfest", "--t-final", "-1"], 2,
     "config: final time must be positive", None),
    # 40 steps of one stride: two saves, no central difference to audit
    (["ehrenfest", "--case", "free", "--t-final", "0.04"], 2,
     "config: the audit needs at least 3 saves, got 2 from t_final = 0.04, "
     "dt = 0.001 and save_stride = 40\n", None),
    # t_final / dt is inf, whose ceil raises, and 1e301 steps, which would
    # run for ever: both refused before the packet is built
    (["ehrenfest", "--case", "free", "--dt", "1e-310", "--t-final", "1"], 2,
     "config: t_final = 1.0 and dt = 1e-310 take more than 1e+07 steps\n",
     None),
    (["ehrenfest", "--dt", "1e-300", "--t-final", "10"], 2,
     "config: t_final = 10.0 and dt = 1e-300 take more than 1e+07 steps\n",
     None),
    (["converge", "--config", "cfg.json"], 2,
     "config: config key converge.shapes must be a list\n",
     _config_file({"converge": {"shapes": "erf"}})),
    (["converge", "--config", "cfg.json"], 2,
     "config: config key converge.theory must be a string\n",
     _config_file({"converge": {"theory": 1}})),
    (["mode", "--config", "cfg.json"], 2,
     "config: config key params must be a table\n",
     _config_file({"params": [1.0]})),
    (["limits", "--kind", "nonrel"], 1,
     "cross-check: half-jump force -(v0/2)(rho(0+) - rho(0-)) = ",
     _wrong_density_jump),
    (["report", "--n-random", "2"], 1,
     "box-too-small: stub wall amplitude in ", _worker_lane_box_error),
    (["report", "--n-random", "-1"], 2,
     "config: report.n_random must be >= 0, got -1", None),
    # the smooth solver has no box: its echoed domain is refused when given
    (["converge", "--domain", "30"], 2,
     "config: converge.domain has no effect\n", None),
    (["converge", "--config", "cfg.json"], 2,
     "config: converge.domain has no effect\n",
     _config_file({"converge": {"domain": 30.0}})),
    # below the double range: v0^2 / 2mc^2, the incident k^2, mc^2
    (["limits", "--kind", "nonrel", "--v0", "1e-200"], 2,
     "config: the spin-0 force underflows to 0 at v0 = 1e-200 and c = 10.0\n",
     None),
    (["mode", "--config", "cfg.json", "--theory", "s", "--energy", "1e-300"],
     2, "config: k^2 on the plateau phi = 0.0 at energy 1e-300 underflows "
     "to 0\n", _config_file({"params": {"mass": 1e-300}})),
    # the smooth solver refuses it as the sharp one does, before the march
    # divides by ik = 0
    (["converge", "--config", "cfg.json", "--theory", "s", "--energy",
      "1e-300", "--shapes", "logistic"], 2,
     "config: k^2 on the plateau phi = 0.0 at energy 1e-300 underflows "
     "to 0\n", _config_file({"params": {"mass": 1e-300}})),
    # mc^2 = DBL_MIN / 2: kfg's charge weight (E - phi)/mc^2 at E = 2
    # overflows, at the route-B nodes of the smooth model
    (["converge", "--config", "cfg.json"], 2,
     "config: the spin-0 charge weight |E - phi|/mc^2 = inf at E = 2.0 "
     "leaves the double range\n",
     _config_file({"params": {"mass": 1.1125369292536007e-308}})),
    (["mode", "--theory", "kfg", "--config", "cfg.json"], 2,
     "config: the rest energy mass * c^2 of mass 1.0 and c 1e-300 must be "
     "finite and positive\n",
     _config_file({"params": {"hbar": 1e300, "c": 1e-300}})),
    # a packet right of the step needs the box beyond x0 + 10 sigma
    (["ehrenfest", "--x0", "30"], 1,
     "box-too-small: grid [-60.0, 44.0] too tight for a packet at 30.0 of "
     "width 2.0\n", None),
    # a width of 1 once needed a box of 50: now it reaches the solver
    (["converge", "--theory", "s", "--energy", "1", "--epsilons",
      "1,0.5,0.25"], 1,
     "no-convergence: differences do not shrink monotonically", None),
    # mc^2 = 5.6e-263: the lifted spin-0 components' squares overflow
    (["mode", "--config", "cfg.json", "--theory", "kfg"], 2,
     "config: the spin-0 lift of psi(0) = (1.1428571428571428+0j) by the "
     "charge weight |E - phi|/mc^2 = 3.5838208865110866e+262 leaves the "
     "double range\n",
     _config_file({"params": {"c": 7.470365479648889e-132}})),
    # charge weight 1.75e154 at psi(0) = 8/7: (1 + w)^2 / 2 alone is
    # finite, the lifted values' squares are not
    (["mode", "--energy", "2", "--config", "cfg.json"], 2,
     "config: the spin-0 lift of psi(0) = (1.1428571428571428+0j) by the "
     "charge weight |E - phi|/mc^2 = 1.7501472311358193e+154 leaves the "
     "double range\n",
     _config_file({"params": {"hbar": 1e10, "c": 1.069e-77}})),
    # k = 1e150 at a charge weight of 1e10: the lifted psi_x(0) is 1e160
    (["mode", "--energy", "1e10", "--config", "cfg.json"], 2,
     "config: the spin-0 lift of psi_x(0) = 9.99999999975e+149j by the "
     "charge weight |E - phi|/mc^2 = 10000000000.0 leaves the double "
     "range\n", _config_file({"params": {"hbar": 1e-140}})),
    # charge weight 1 + 1e-10 at k = 1.1e154: |psi_x(0)|^2 alone overflows
    (["mode", "--energy", "1.0000000001", "--v0", "2e-10", "--config",
      "cfg.json"], 2,
     "config: the spin-0 lift of psi_x(0) = (-1.0962889609041644e+154"
     "+1.0962889609041644e+154j) by the charge weight |E - phi|/mc^2 = "
     "1.0000000001 leaves the double range\n",
     _config_file({"params": {"hbar": 1.29e-159}})),
    # v0 / eps overflows, so phi' would turn its zero tails into NaN
    (["ehrenfest", "--eps", "2.0610955138430535e-213", "--v0", "1e300"], 2,
     "config: the step's slope scale v0 / eps of v0 1e+300 and eps "
     "2.0610955138430535e-213 must be finite\n", None),
    (["ehrenfest", "--v0", "1e308", "--t-final", "0.1"], 2,
     "config: the step's slope scale v0 / eps of v0 1e+308 and eps 0.1 "
     "must be finite\n", None),
    # refused before phi' is evaluated: (x / eps)^2 overflows in erf's
    (["ehrenfest", "--shape", "erf", "--eps", "1e-200"], 1,
     "under-resolved: grid spacing 0.020000000000003126 does not resolve "
     "the smoothing width 1e-200; need eps >= 4*h\n", None),
    # the step turns the phase by v0 dt / hbar = 4e296 rad a step
    (["ehrenfest", "--v0", "1e300", "--t-final", "0.1"], 1,
     "under-resolved: time step 0.0004 exceeds the potential's phase bound "
     "hbar/max|phi| = 1e-300\n", None),
    # the Klein edge E - v0 = -mc^2: q = 0 over E - v0 + mc^2 = 0
    (["mode", "--theory", "dirac", "--energy", "2", "--v0", "3"], 2,
     "config: the spinor ratio hbar c k / (E - phi + mc^2) is 0/0 at E = "
     "2.0, phi = 3.0 and mc^2 = 1.0\n", None),
    (["converge", "--theory", "dirac", "--energy", "2", "--v0", "3"], 2,
     "config: the spinor ratio hbar c k / (E - phi + mc^2) is 0/0 at E = "
     "2.0, phi = 3.0 and mc^2 = 1.0\n", None),
    # dt/(2 hbar) overflows while hbar^2/(m h^2) underflows to 0: the
    # Crank-Nicolson matrix would hold inf * 0
    (["ehrenfest", "--case", "free", "--config", "cfg.json"], 2,
     "config: the Crank-Nicolson phase scale dt/(2 hbar) = inf at dt 0.001 "
     "and hbar 5e-324 is not finite\n",
     _config_file({"params": {"hbar": 5e-324}})),
    # hbar^2 overflows where a mass as large keeps dt below m h^2/hbar
    (["ehrenfest", "--case", "free", "--config", "cfg.json"], 2,
     "config: the kinetic coefficient hbar^2/(m h^2) = inf at hbar 1e+200, "
     "mass 1e+200 and h 0.03999999999999915 is not a positive normal "
     "double\n", _config_file({"params": {"hbar": 1e200, "mass": 1e200}})),
    # a carrier above the grid's Nyquist wavenumber pi/dx at dx = 0.02,
    # where the grid would hold another packet
    (["ehrenfest", "--k0", "160", "--t-final", "0.4"], 1,
     "under-resolved: grid spacing 0.02 does not resolve the carrier k0 = "
     "160.0; need |k0| < pi/dx = 157.07963267948966\n", None)]


@pytest.mark.parametrize("argv,code,message,stub", [
    pytest.param(*case, id=" ".join(case[0])) for case in _FAILED_RUNS])
def test_a_failed_run_prints_nothing_and_creates_nothing(
        argv, code, message, stub, monkeypatch, tmp_path, capsys):
    if stub is not None:
        stub(monkeypatch)
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv,code,message,stub", [
    pytest.param(*case, id=" ".join(case[0])) for case in _FAILED_RUNS])
def test_a_failed_run_raises_no_runtime_warning(
        argv, code, message, stub, monkeypatch, tmp_path, capsys):
    # a run is refused before numpy can overflow, divide by zero or make a
    # NaN, so no warning reaches stderr ahead of the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        test_a_failed_run_prints_nothing_and_creates_nothing(
            argv, code, message, stub, monkeypatch, tmp_path, capsys)


# each regime edge in exact doubles: E = v0 for s; v0 = E -+ mc^2 and the
# k + q = 0 pole v0 = 2E for kfg; v0 = E -+ mc^2 for dirac, its Klein edge
# also at mc^2 = 18 (hbar 0.7, mass 2, c 3).  The contract fuzz draws no
# float that lands on one.
_EDGES = [("s", 1.0, 1.0, {}), ("kfg", 2.0, 1.0, {}), ("kfg", 2.0, 3.0, {}),
          ("kfg", 2.0, 4.0, {}), ("dirac", 2.0, 1.0, {}),
          ("dirac", 2.0, 3.0, {}),
          ("dirac", 20.0, 38.0, {"hbar": 0.7, "mass": 2.0, "c": 3.0})]


@pytest.mark.parametrize("command", ["mode", "converge"])
@pytest.mark.parametrize("theory,energy,v0,params", _EDGES)
def test_every_regime_edge_keeps_the_output_contract(
        command, theory, energy, v0, params, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_read_config", lambda path: {"params": params})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run([command, "--config", "cfg.json", "--theory", theory,
                    "--energy", repr(energy), "--v0", repr(v0),
                    "--out", str(out)])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
    if code == 0:
        assert captured.out.startswith("resolved config:\n") and out.exists()
        assert captured.err == ""
    else:
        assert (captured.out, out.exists()) == ("", False)
        assert captured.err.count("\n") == 1
        assert _NAMED.match(captured.err), captured.err


def test_an_out_path_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert run(["mode", "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: config: cannot write {str(taken)!r}: "
                            f"File exists\n")
    assert taken.read_text() == "kept\n"
    # an empty path names no directory to create
    assert run(["mode", "--out", ""]) == 2
    assert capsys.readouterr() == (
        "", "error: config: cannot write '': No such file or directory\n")


# ---------------------------------------------------------------------------
# the input contract: no config key is silently inert
# ---------------------------------------------------------------------------

# one valid value other than the default for each key of each command's
# table (params aside)
_ALTERNATIVES = {
    "mode": {"theory": "s", "energy": 3.0, "v0": 0.7},
    "converge": {"theory": "s", "energy": 3.0, "v0": 0.7, "shapes": ["ramp"],
                 "epsilons": [0.2, 0.1, 0.05], "domain": 30.0,
                 "resolution": 9},
    "limits": {"kind": "infinite-step", "energy_nr": 0.2, "v0": 0.1,
               "speeds": [10.0, 100.0], "energy": 2.0,
               "v0_list": [10.0, 100.0]},
    "ehrenfest": {"case": "free", "k0": 1.2, "sigma": 1.8, "x0": -11.0,
                  "v0": 0.7, "eps": 0.2, "shape": "erf", "x_min": -42.0,
                  "x_max": 42.0, "n_points": 3401, "dt": 3.0e-4,
                  "t_final": 0.2, "save_stride": 10},
    "report": {"n_random": 2},
}

# cheap runs to vary one key of: the keys each gives.  The ehrenfest bases
# are short runs on grids that every alternative keeps resolved (eps = 0.1
# >= 4 h, dt <= h^2); the scattering one gives its dt, so that the free
# case overlaid on it keeps it too
_BASES = {
    "mode": [{}],
    "converge": [{}],
    "limits": [{}],
    "ehrenfest": [{"case": "free", "dt": 4.0e-4, "t_final": 0.16},
                  {"x_min": -40.0, "x_max": 40.0, "n_points": 3601,
                   "dt": 4.0e-4, "t_final": 0.4, "save_stride": 20}],
    "report": [{"n_random": 1}],
}


def _outputs(command, table, monkeypatch, out, capsys):
    """(exit code, stdout less the config echo, files, stderr) of a run
    whose config file gives ``table`` for ``command``.  report.json is
    compared less its echoed config, and the wall-clock sidecar not at
    all."""
    monkeypatch.setattr(cli, "_read_config", lambda path: {command: table})
    code = run([command, "--config", "cfg.json", "--out", str(out)])
    captured = capsys.readouterr()
    text = captured.out.replace(str(out), "<out>")
    if code == 0:
        body = text.partition("\n")[2]
        text = body[json.JSONDecoder().raw_decode(body)[1]:]
    files = {}
    for path in sorted(out.iterdir()) if out.exists() else []:
        if path.name == "report.json":
            files[path.name] = json.loads(path.read_text())
            del files[path.name]["resolved_config"]
        elif path.name != "report_timing.txt":
            files[path.name] = path.read_bytes()
    return code, text, files, captured.err


def test_every_config_key_has_an_alternative():
    assert ({command: set(table) for command, table in _ALTERNATIVES.items()}
            == {command: set(table) for command, table in cli.DEFAULTS.items()
                if command != "params"})


@pytest.mark.parametrize("command,key,base", [
    pytest.param(command, key, base, id=f"{command}.{key}-base{i}")
    for command, bases in _BASES.items()
    for i, base in enumerate(bases)
    for key, value in _ALTERNATIVES[command].items()
    if base.get(key) != value])
def test_no_config_key_is_inert(command, key, base, monkeypatch, tmp_path,
                                capsys):
    # a key given with another valid value changes some output byte, or
    # the run refuses it by name
    if command == "report":
        _stub_audits(monkeypatch, lambda stage: None)
    want = _outputs(command, base, monkeypatch, tmp_path / "base", capsys)
    assert want[0] == 0, want[3]
    got = _outputs(command, {**base, key: _ALTERNATIVES[command][key]},
                   monkeypatch, tmp_path / "variant", capsys)
    if got[0] == 2:
        assert got[1:3] == ("", {})
        assert f"{command}.{key}" in got[3]
    else:
        assert got[0] == 0, got[3]
        assert got[1:3] != want[1:3]


# ---------------------------------------------------------------------------
# the input contract: every flag the parser takes is read
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv,flag", [
    *[pytest.param([command, "--seed", "1"], "--seed 1",
                   id=f"{command} --seed")
      for command in ("mode", "converge", "limits", "ehrenfest")],
    # no flag comes before the subcommand: its value reads as the command
    pytest.param(["--out", "x", "mode"], "'x'", id="--out before mode"),
    pytest.param(["--config", "f", "mode"], "'f'", id="--config before mode")])
def test_a_flag_that_nothing_reads_exits_2(argv, flag, monkeypatch, tmp_path,
                                           capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("stepforce: error: ")
    assert flag in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_the_report_seed_is_read(monkeypatch, tmp_path, capsys):
    _stub_audits(monkeypatch, lambda stage: None)
    bundles = []
    for seed in ("0", "3"):
        out = tmp_path / seed
        assert run(["report", "--seed", seed, "--n-random", "2",
                    "--out", str(out)]) == 0
        assert f'"seed": {seed}\n' in capsys.readouterr().out
        bundles.append(json.loads((out / "report.json").read_text()))
    assert bundles[0]["random_sweeps"] != bundles[1]["random_sweeps"]
