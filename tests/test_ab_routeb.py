"""tools/ab_routeb.py on the checkout against itself."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "ab_routeb", ROOT / "tools" / "ab_routeb.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_checkout_against_itself_runs_and_agrees():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_routeb.py"), str(ROOT),
         str(ROOT), "--passes", "3"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "7 sweeps: values, defects and limits identical"
    assert lines[-1].startswith("change/parent: median ratio ")
    assert lines[-1].endswith("/3 passes")
    # one row per sweep, in the report's order, between the pass times and
    # the pass ratio
    assert len(lines) == 1 + 2 + 7 + 1
    for line, case in zip(lines[3:10], _tool().SWEEPS):
        label = " ".join(map(str, case))
        assert re.fullmatch(re.escape(label) + r": median ratio \d\.\d{4} "
                            r"\[\d\.\d{4}, \d\.\d{4}\], change wins [0-3]/3 "
                            r"runs", line), line


def test_a_paired_ratio_reads_the_median_quartiles_and_wins():
    pairs = [(1.0, 0.5), (2.0, 1.0), (1.0, 2.0), (4.0, 3.0)]
    # ratios 0.5, 0.5, 2.0 and 0.75: quartiles by statistics' exclusive
    # method
    assert _tool().paired(pairs, "runs") == (
        "median ratio 0.6250 [0.5000, 1.6875], change wins 3/4 runs")
