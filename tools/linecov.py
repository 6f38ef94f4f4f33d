"""Lines of src/stepforce that a pytest run never reaches.

    PYTHONPATH=src python tools/linecov.py -q -p no:cacheprovider tests

Runs pytest in this process with its arguments, under ``sys.settrace`` and
``threading.settrace`` (the report runs its packet audits on threads), and
prints every executable line of ``src/stepforce`` that no test reached,
then a count per file.  A module's executable lines are those its code
objects map bytecode to (``co_lines``).  The exit status is pytest's.
Only frames of ``src/stepforce`` get a line tracer, so the suite, whose
time goes mostly to numpy, runs about 15 % slower traced.
"""

from __future__ import annotations

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "stepforce")


def executable_lines(path: str) -> set:
    """Line numbers that the code objects compiled from ``path`` map
    bytecode to."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace(func, folder: str) -> tuple:
    """(func's result, the (path, line) pairs it reached in files under
    ``folder``), its threads included."""
    prefix = os.path.join(os.path.abspath(folder), "")
    paths = {}          # co_filename -> its absolute path, or None outside
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:
            path = os.path.abspath(name)
            paths[name] = path if path.startswith(prefix) else None
        if paths[name] is None:
            return None
        hits.add((name, frame.f_lineno))
        return local

    outer = sys.gettrace(), threading.gettrace()
    threading.settrace(start)
    sys.settrace(start)
    try:
        result = func()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    return result, {(paths[name], line) for name, line in hits}


def unreached(folder: str, hits: set) -> dict:
    """Each .py file under ``folder`` (by path) to its executable lines
    missing from ``hits``, sorted."""
    out = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            path = os.path.join(os.path.abspath(folder), name)
            seen = {line for file, line in hits if file == path}
            out[path] = sorted(executable_lines(path) - seen)
    return out


def main(argv: list) -> int:
    import pytest

    code, hits = trace(lambda: pytest.main(argv), PACKAGE)
    missed = unreached(PACKAGE, hits)
    for path, lines in missed.items():
        rel = os.path.relpath(path, ROOT)
        with open(path) as fh:
            text = fh.read().splitlines()
        for line in lines:
            print(f"{rel}:{line}: {text[line - 1].strip()}")
    for path, lines in missed.items():
        print(f"{os.path.relpath(path, ROOT)}: {len(lines)} unreached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
