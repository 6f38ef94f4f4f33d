"""tools/ab_routeb.py on the checkout against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
