"""Lines of src/stepforce that no default run reaches: the traffic trace.

    python tools/traffic.py

Under tools/linecov.py's tracer it imports stepforce, so that module-level
lines count, and runs each command once at its defaults: ``mode`` for each
theory, ``converge``, both ``limits`` kinds, both ``ehrenfest`` cases and
``report --seed 0``.  Then it runs one pass of perfbench's ``routeb`` op,
300 of its ``sharp`` ops and every one of its layer probes, from
perfbench/workloads.py, which it only reads.  It prints each line of
src/stepforce that none of these reached, in linecov's format, then a
count per file.  The commands write into a temporary directory.  It takes
about 30 s on a 2-core VM, so the suite tests it on a tiny module only.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_spec = importlib.util.spec_from_file_location(
    "linecov", os.path.join(HERE, "linecov.py"))
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

# each command once at its defaults, its kinds and cases, and the report
COMMANDS = ([["mode", "--theory", t] for t in ("s", "kfg", "dirac")]
            + [["converge"], ["limits"], ["limits", "--kind", "infinite-step"],
               ["ehrenfest"], ["ehrenfest", "--case", "free"],
               ["report", "--seed", "0"]])


def default_runs(cli, workloads, out_dir: str) -> None:
    """Run COMMANDS through ``cli.main`` into ``out_dir``, their stdout
    dropped, then one pass of the ``routeb`` op, SHARP_COUNTER_OPS ``sharp``
    ops and every probe of ``workloads``; a command that exits nonzero
    raises RuntimeError."""
    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", out_dir])
        if code:
            raise RuntimeError(f"stepforce {' '.join(argv)} exited {code}")
    oracle, bundle = workloads.load_oracle()
    routeb = workloads.RouteB(0, oracle, bundle)
    for i in range(routeb.pass_len):
        routeb.op(i)
    sharp = workloads.Sharp(0)
    for i in range(workloads.SHARP_COUNTER_OPS):
        sharp.op(i)
    ctx = types.SimpleNamespace(oracle=oracle, oracle_bundle=bundle,
                                count=lambda name, value: None)
    for probe in workloads.PROBES.values():
        probe(ctx)


def unreached_by(work, folder: str = linecov.PACKAGE) -> list:
    """linecov's listing of the lines of the .py files under ``folder``
    that ``work()`` never reaches."""
    _, hits = linecov.trace(work, folder)
    return linecov.listing(linecov.unreached(folder, hits))


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, name) for name in ("src", "perfbench")]

    def work():
        from stepforce import cli
        import workloads
        default_runs(cli, workloads, out_dir)

    with tempfile.TemporaryDirectory() as out_dir:
        print("\n".join(unreached_by(work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
