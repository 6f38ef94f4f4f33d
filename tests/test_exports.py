"""Export integrity: every exported name resolves, and the package imports
with nothing from tests/ on its path."""

import importlib
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


def test_the_package_imports_with_only_src_on_the_path(tmp_path):
    code = ("import sys, stepforce, stepforce.cli\n"
            "for m in list(sys.modules.values()):\n"
            "    print(getattr(m, '__file__', None) or '')\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    files = [Path(f).resolve() for f in proc.stdout.splitlines() if f]
    assert SRC / "stepforce" / "cli.py" in files
    tests_dir = Path(__file__).resolve().parent
    assert [f for f in files if tests_dir in f.parents] == []
