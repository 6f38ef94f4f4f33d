"""Export integrity: every exported name resolves, and the package imports
with nothing from tests/ on its path."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stepforce

SRC = Path(stepforce.__file__).resolve().parents[1]
MODULES = ("stepforce", "stepforce.core", "stepforce.errors",
           "stepforce.modes", "stepforce.force", "stepforce.regularized",
           "stepforce.timeevo", "stepforce.reporting", "stepforce.cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _run_fresh(code: str, cwd) -> str:
    """Stdout of ``code`` run by a fresh interpreter with only src/ on the
    path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_package_imports_with_only_src_on_the_path(tmp_path):
    code = ("import sys, stepforce, stepforce.cli\n"
            "for m in list(sys.modules.values()):\n"
            "    print(getattr(m, '__file__', None) or '')\n")
    stdout = _run_fresh(code, tmp_path)
    files = [Path(f).resolve() for f in stdout.splitlines() if f]
    assert SRC / "stepforce" / "cli.py" in files
    tests_dir = Path(__file__).resolve().parent
    assert [f for f in files if tests_dir in f.parents] == []


def test_the_package_itself_loads_only_its_version(tmp_path):
    # each public name has one import path, its module: the package
    # re-exports none, so importing it loads neither numpy nor a module
    code = ("import sys, stepforce\n"
            "print(stepforce.__version__)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('numpy', 'stepforce')))\n")
    assert _run_fresh(code, tmp_path) == "0.1.0\n['stepforce']\n"
    assert stepforce.__all__ == ["__version__"]


# What a fresh process has loaded of scipy once it has imported the package
# and run a command: the sharp step needs numpy alone, a smooth step
# scipy.special and BLAS (its march) and a packet LAPACK.  Each entry: argv
# (None for the import alone), modules that must be loaded, modules that
# must not be.
SCIPY_LOADS = [
    pytest.param(None, (), ("scipy",), id="import"),
    pytest.param(["mode"], (), ("scipy",), id="mode"),
    pytest.param(["limits", "--kind", "nonrel"], (), ("scipy",),
                 id="limits-nonrel"),
    pytest.param(["limits", "--kind", "infinite-step"], (), ("scipy",),
                 id="limits-infinite-step"),
    pytest.param(["converge"], ("scipy.special", "scipy.linalg.blas"), (),
                 id="converge"),
    pytest.param(["ehrenfest", "--case", "free", "--t-final", "0.05"],
                 ("scipy.linalg.lapack",), (), id="ehrenfest-free"),
]


@pytest.mark.parametrize("argv,loaded,absent", SCIPY_LOADS)
def test_scipy_loads_only_where_a_command_needs_it(argv, loaded, absent,
                                                    tmp_path):
    code = "import json, sys, stepforce, stepforce.cli\n"
    if argv is not None:
        code += f"assert stepforce.cli.main({argv + ['--out', 'out']!r}) == 0\n"
    code += ("print(json.dumps(sorted(m for m in sys.modules\n"
             "                        if m.split('.')[0] == 'scipy')))\n")
    modules = set(json.loads(_run_fresh(code, tmp_path).splitlines()[-1]))
    assert [m for m in loaded if m not in modules] == []
    assert [m for m in absent if m in modules] == []
