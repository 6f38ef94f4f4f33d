"""Mutation audit: swap one arithmetic operator at a time and see whether
the suite notices.

    python tools/mutate.py --seed 0 --sample 60 \\
        src/stepforce/regularized.py src/stepforce/modes.py

Lists every binary ``+``, ``-``, ``*`` and ``/`` of the named modules, and
every augmented one (``+=`` ...), located by the AST's source positions.
It draws ``--sample`` of them with ``--seed``.  Each mutant swaps one
operator (``+`` with ``-``, ``*`` with ``/``) in a copy of ``src/`` under a
temporary directory, and the suite runs on that copy (``PYTHONPATH``) with
``-x``, less the tests that take the session's two seed-0 report runs
(those that request the ``report_runs`` fixture).  At most two pytest
processes run at once.  A mutant the suite fails on is killed; one it
passes survives.  One that runs past five times the clean run is counted
as killed by the timeout.  The survivors go to stdout as a Markdown
table.  The exit status is 0 unless the clean run fails.

Standard library only.  Not part of the suite: 60 mutants take minutes.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import os
import queue
import random
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOKEN = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
SWAP = {"+": "-", "-": "+", "*": "/", "/": "*"}
JOBS = 2         # pytest processes at once
TIMEOUT = 5.0    # a mutant's time limit, in clean runs


def _offset(lines: list, line: int, col: int) -> int:
    """Index in the joined source of 1-based ``line``, 0-based ``col``
    (a UTF-8 byte offset, as the AST gives it)."""
    text = lines[line - 1].encode()[:col].decode()
    return sum(len(s) for s in lines[:line - 1]) + len(text)


def _operator_index(source: str, lines: list, left, right, token: str) -> int:
    """Index of the operator ``token`` between the nodes ``left`` and
    ``right``: the gap holds only brackets, blanks, comments and it."""
    start = _offset(lines, left.end_lineno, left.end_col_offset)
    stop = _offset(lines, right.lineno, right.col_offset)
    gap = source[start:stop]
    i = 0
    while i < len(gap):
        if gap[i] == "#":
            i = gap.find("\n", i)
            if i < 0:
                break
        elif gap.startswith(token, i):
            return start + i
        i += 1
    raise ValueError(f"no {token!r} between {left.end_lineno}:"
                     f"{left.end_col_offset} and {right.lineno}:"
                     f"{right.col_offset}")


def sites(path: str) -> list:
    """(path, index, line, column, token) of each swappable operator in
    ``path``; line and column count from 1."""
    with open(path) as fh:
        source = fh.read()
    lines = source.splitlines(keepends=True)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            left, right = node.left, node.right
        elif isinstance(node, ast.AugAssign):
            left, right = node.target, node.value
        else:
            continue
        token = TOKEN.get(type(node.op))
        if token is not None:
            index = _operator_index(source, lines, left, right, token)
            found.append((path, index, source.count("\n", 0, index) + 1,
                          index - source.rfind("\n", 0, index), token))
    return sorted(found)


def report_fixture_tests(tests: str) -> list:
    """Node ids of the test functions that request ``report_runs``."""
    ids = []
    for name in sorted(os.listdir(tests)):
        if not (name.startswith("test_") and name.endswith(".py")):
            continue
        with open(os.path.join(tests, name)) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and "report_runs" in [a.arg for a in node.args.args]):
                ids.append(f"tests/{name}::{node.name}")
    return ids


class Worker:
    """A private copy of src/ that runs the suite on one mutant at a time."""

    def __init__(self, base: str, deselect: list):
        self.dir = tempfile.mkdtemp(prefix="mutate-", dir=base)
        shutil.copytree(os.path.join(ROOT, "src"),
                        os.path.join(self.dir, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        self.argv = [sys.executable, "-m", "pytest", "-x", "-q",
                     "-p", "no:cacheprovider", "tests"]
        for node in deselect:
            self.argv += ["--deselect", node]

    def run(self, timeout: float | None = None) -> str:
        """``passed``, ``failed`` or ``timeout`` for the suite on the copy."""
        env = {**os.environ, "PYTHONPATH": os.path.join(self.dir, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            proc = subprocess.run(self.argv, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "passed" if proc.returncode == 0 else "failed"

    def mutant(self, site, timeout: float) -> str:
        """The suite's outcome with the operator at ``site`` swapped."""
        path, index, token = site[0], site[1], site[-1]
        copy = os.path.join(self.dir, os.path.relpath(path, ROOT))
        with open(path) as fh:
            source = fh.read()
        with open(copy, "w") as fh:
            fh.write(source[:index] + SWAP[token] + source[index + 1:])
        try:
            return self.run(timeout)
        finally:
            shutil.copyfile(path, copy)


def table(rows: list) -> str:
    """Markdown table of the surviving mutants."""
    out = ["| mutant | line |", "|---|---|"]
    for path, line, col, token, text in rows:
        code = text.strip().replace("|", "\\|")
        out.append(f"| `{os.path.relpath(path, ROOT)}:{line}:{col}` "
                   f"`{token}` → `{SWAP[token]}` | `{code}` |")
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="swap one + - * / at a time in the named modules and "
                    "list the mutants the suite does not kill")
    parser.add_argument("modules", nargs="+", help="files under src/")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, default=60,
                        help="mutants to run (default 60)")
    args = parser.parse_args(argv)

    paths = [os.path.abspath(m) for m in args.modules]
    candidates = [s for p in paths for s in sites(p)]
    rng = random.Random(args.seed)
    chosen = sorted(rng.sample(candidates, min(args.sample, len(candidates))))
    deselect = report_fixture_tests(os.path.join(ROOT, "tests"))
    print(f"{len(candidates)} operators, {len(chosen)} mutants, "
          f"{len(deselect)} report-fixture tests left out", file=sys.stderr)

    base = tempfile.mkdtemp(prefix="mutate-")
    try:
        workers = [Worker(base, deselect) for _ in range(JOBS)]
        started = time.perf_counter()
        if workers[0].run() != "passed":
            print("the suite fails on the unmutated copy", file=sys.stderr)
            return 1
        limit = TIMEOUT * (time.perf_counter() - started)
        free = queue.SimpleQueue()
        for worker in workers:
            free.put(worker)

        def job(site):
            worker = free.get()
            try:
                return site, worker.mutant(site, limit)
            finally:
                free.put(worker)

        outcomes = {}
        with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
            for site, outcome in pool.map(job, chosen):
                outcomes[site] = outcome
                path, _, line, col, token = site
                print(f"{os.path.relpath(path, ROOT)}:{line}:{col} {token} "
                      f"{outcome}", file=sys.stderr)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    survivors = []
    for site in chosen:
        if outcomes[site] == "passed":
            path, _, line, col, token = site
            with open(path) as fh:
                text = fh.read().splitlines()[line - 1]
            survivors.append((path, line, col, token, text))
    counts = {o: list(outcomes.values()).count(o)
              for o in ("failed", "timeout", "passed")}
    sys.stdout.write(f"{len(chosen)} mutants (seed {args.seed}): "
                     f"{counts['failed']} killed, {counts['timeout']} timed "
                     f"out, {counts['passed']} survived\n\n"
                     + table(survivors))
    return 0


if __name__ == "__main__":
    sys.exit(main())
