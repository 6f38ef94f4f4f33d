"""tools/traffic.py with its heavy runs stubbed: a tiny command module and
workloads that record what they are asked to run."""

import importlib.util
import os
import textwrap
import types
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location("traffic",
                                               TOOLS / "traffic.py")
traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic)

TINY_CLI = textwrap.dedent('''\
    """A stand-in for stepforce.cli: exits 0 unless told otherwise."""
    CALLS = []
    FAIL = {}


    def main(argv):
        CALLS.append(argv)
        if argv[0] in FAIL:
            return FAIL[argv[0]]
        return 0
    ''')


def _load(path: Path):
    spec = importlib.util.spec_from_file_location("tiny_cli", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _workloads(calls: list):
    """Workloads whose ops and probes only append to ``calls``."""
    class Op:
        pass_len = 3

        def __init__(self, seed, *oracles):
            calls.append((type(self).__name__, seed, oracles))

        def op(self, i):
            calls.append((type(self).__name__, i))

    def probe(name):
        return lambda ctx: calls.append(
            (name, ctx.oracle, ctx.oracle_bundle, ctx.count("x", 1)))

    return types.SimpleNamespace(
        load_oracle=lambda: ("oracle", "bundle"),
        RouteB=type("RouteB", (Op,), {}), Sharp=type("Sharp", (Op,), {}),
        SHARP_COUNTER_OPS=2,
        PROBES={name: probe(name) for name in ("a", "b")})


def test_every_command_and_op_runs_and_module_lines_count(tmp_path):
    (tmp_path / "cli.py").write_text(TINY_CLI)
    loaded, calls, out_dir = [], [], str(tmp_path / "out")

    def work():
        # imported inside the trace, so its module-level lines count
        loaded.append(_load(tmp_path / "cli.py"))
        traffic.default_runs(loaded[0], _workloads(calls), out_dir)

    listing = traffic.unreached_by(work, str(tmp_path))
    rel = os.path.relpath(tmp_path / "cli.py", traffic.ROOT)
    assert listing == [f"{rel}:9: return FAIL[argv[0]]", f"{rel}: 1 unreached"]
    assert loaded[0].CALLS == [argv + ["--out", out_dir]
                               for argv in traffic.COMMANDS]
    assert ["report", "--seed", "0"] in traffic.COMMANDS
    assert len(traffic.COMMANDS) == 9
    # one pass of routeb, SHARP_COUNTER_OPS sharp ops, then every probe
    assert calls == [
        ("RouteB", 0, ("oracle", "bundle")), ("RouteB", 0), ("RouteB", 1),
        ("RouteB", 2), ("Sharp", 0, ()), ("Sharp", 0), ("Sharp", 1),
        ("a", "oracle", "bundle", None), ("b", "oracle", "bundle", None)]


def test_a_command_that_fails_stops_the_trace(tmp_path):
    (tmp_path / "cli.py").write_text(TINY_CLI)
    cli, calls = _load(tmp_path / "cli.py"), []
    cli.FAIL["converge"] = 2
    with pytest.raises(RuntimeError, match="stepforce converge exited 2"):
        traffic.default_runs(cli, _workloads(calls), str(tmp_path))
    assert [argv[0] for argv in cli.CALLS] == ["mode"] * 3 + ["converge"]
    assert calls == []
