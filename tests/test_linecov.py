"""tools/linecov.py on a tiny module: which lines a callable reaches."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"
_spec = importlib.util.spec_from_file_location("linecov", TOOL)
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

TINY = textwrap.dedent('''\
    """A module with one branch per caller."""
    import threading


    def pick(x):
        """Docstrings are no bytecode."""
        if x > 0:
            return "pos"
        return "neg"


    def never():
        return 1


    def in_thread(out):
        worker = threading.Thread(target=lambda: out.append(pick(-1)))
        worker.start()
        worker.join()
    ''')


def _load(folder: Path):
    spec = importlib.util.spec_from_file_location("tiny", folder / "tiny.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_executable_lines_come_from_the_code_objects(tmp_path):
    (tmp_path / "tiny.py").write_text(TINY)
    lines = linecov.executable_lines(str(tmp_path / "tiny.py"))
    # blank lines and a function's docstring map no bytecode
    assert {3, 4, 6, 10, 11, 14, 15}.isdisjoint(lines)
    assert {1, 2, 5, 7, 8, 9, 12, 13, 16, 17, 18, 19} <= lines


def test_trace_reports_the_lines_no_call_reached(tmp_path):
    (tmp_path / "tiny.py").write_text(TINY)
    (tmp_path / "notes.txt").write_text("not a module\n")

    def run():
        mod = _load(tmp_path)
        out = [mod.pick(1)]
        mod.in_thread(out)          # pick(-1) runs on the worker thread
        return out

    result, hits = linecov.trace(run, str(tmp_path))
    assert result == ["pos", "neg"]
    path = str(tmp_path / "tiny.py")
    assert {file for file, _ in hits} == {path}
    assert (path, 9) in hits
    assert linecov.unreached(str(tmp_path), hits) == {path: [13]}


def test_an_untraced_run_reaches_nothing(tmp_path):
    (tmp_path / "tiny.py").write_text(TINY)
    missed = linecov.unreached(str(tmp_path), set())
    path = str(tmp_path / "tiny.py")
    assert missed[path] == sorted(linecov.executable_lines(path))
