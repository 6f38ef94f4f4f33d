"""A fixed matrix of extreme unit systems through every command but report.

Each of ``hbar``, ``mass`` and ``c`` takes each of eight values from the
smallest subnormal to the largest double, the other two staying at 1, in
every command variant below, run in process through ``cli.main`` with a
config file and a temporary ``--out``.  The property is the output
contract: the run exits 0, 1 or 2; a failure prints exactly one ``error:``
line on stderr, not a ``floating-point:`` one, no traceback, nothing on
stdout, and creates nothing; a success writes every file it names.

The list is fixed, so unlike the contract fuzz's draws it does not move
when a constant elsewhere in the test sources changes.  report is left
out, as its packet audits take tens of seconds.
"""

import json
import sys
import warnings
from pathlib import Path

import pytest

from stepforce import cli

VALUES = (5e-324, sys.float_info.min / 2, sys.float_info.min, 1e-300,
          1e-150, 1e150, 1e300, sys.float_info.max)

VARIANTS = (
    ("mode", "--theory", "kfg"), ("mode", "--theory", "dirac"),
    ("mode", "--theory", "s"),
    ("converge", "--theory", "kfg"), ("converge", "--theory", "dirac"),
    ("limits", "--kind", "nonrel"), ("limits", "--kind", "infinite-step"),
    ("ehrenfest", "--case", "free"), ("ehrenfest", "--t-final", "1"),
)


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("key", ("hbar", "mass", "c"))
@pytest.mark.parametrize("variant", VARIANTS, ids=" ".join)
def test_every_extreme_unit_keeps_the_output_contract(variant, key, value,
                                                      tmp_path, capsys):
    config, out = tmp_path / "cfg.json", tmp_path / "out"
    config.write_text(json.dumps({"params": {key: value}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([*variant, "--config", str(config),
                         "--out", str(out)])
    captured = capsys.readouterr()
    assert code in (0, 1, 2), captured.err
    assert "Traceback" not in captured.err
    if code == 0:
        assert captured.err == ""
        wrote = [line.removeprefix("wrote ")
                 for line in captured.out.splitlines()
                 if line.startswith("wrote ")]
        assert wrote
        for path in wrote:
            assert path.startswith(str(out)) and Path(path).is_file()
    else:
        assert captured.out == "" and not out.exists()
        assert captured.err.count("\n") == 1, captured.err
        assert captured.err.startswith("error: ")
        assert not captured.err.startswith("error: floating-point:")
