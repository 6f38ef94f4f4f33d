"""Contract fuzz of the command line, generated from ``cli.DEFAULTS``.

Each example is one command run on a config table drawn from that
command's defaults: numbers near and past their bounds (NaN and the
infinities included), lists of 0 to 5 items, values of the wrong type,
and for the name keys the accepted spellings mixed with others.  The
property is the output contract: the run exits 0, 1 or 2 and raises no
numpy RuntimeWarning (overflow, division by zero or a NaN made); a
failure prints one ``error:`` line on stderr that names a key or a
quantity, no traceback, nothing on stdout, and creates nothing.

Every draw is bounded so that a run takes milliseconds: ehrenfest runs
at most 2001 points to t_final <= 0.05, converge at most 5 widths.  report
is left out, as its packet audits take tens of seconds.  The examples are
fixed for a given tree: hypothesis also draws constants it reads from the
source, so an edit anywhere in it can change them.
"""

import contextlib
import io
import os
import re
import tempfile
import warnings
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from stepforce import cli
from stepforce.core import REG_SHAPES
from stepforce.modes import THEORIES

COMMANDS = ("mode", "converge", "limits", "ehrenfest")

# with no database hypothesis still caches the constants it reads from the
# source, while the suite is collected: under the temporary directory, not
# in the checkout
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(),
                                     "stepforce-hypothesis"))

# the accepted spellings of each name key, and others that are refused
_NAMES = {
    "theory": THEORIES + ("KFG", "kg", "S", ""),
    "shape": REG_SHAPES + ("error-function", "Logistic"),
    "kind": cli._NAMES["limits.kind"] + ("Nonrel", "hardwall"),
    "case": ("scattering", "free", "Free", "wall"),
}
_NAMES["shapes"] = _NAMES["shape"]

# values of no key's type
_WRONG = st.sampled_from([None, True, "1.0", [], {}, [[1.0]]])

_BAD = [0.0, -1.0, float("nan"), float("inf")]

# the keys that set an ehrenfest run's cost, and the short, resolved run
# that every ehrenfest draw overlays (the box holds 10 sigma on each side
# of either case's packet, h = 0.021 resolves eps = 0.1, and dt <= h^2):
# at most 2001 points times 563 steps (500, rounded up to whole save
# intervals of at most 64); a dt of 1e-300 or 5e-324 asks for more steps
# than timeevo._MAX_STEPS and is refused before the first (few draws reach
# it past the other keys, so the property also runs both on the base)
_BOUNDED = {"n_points": st.integers(-1, 2001),
            "t_final": st.one_of(st.floats(1e-3, 0.05), st.sampled_from(_BAD)),
            "dt": st.one_of(st.floats(1e-4, 1e-2),
                            st.sampled_from(_BAD + [1e-300, 5e-324]))}
_EHRENFEST_BASE = {"sigma": 1.5, "x_min": -27.0, "x_max": 15.0,
                   "n_points": 2001, "dt": 4e-4, "t_final": 0.05,
                   "save_stride": 10}


def _number(default):
    if isinstance(default, int):
        return st.integers(-3, 64)
    return st.one_of(
        st.floats(-5.0, 100.0),
        st.sampled_from([0.0, -0.0, 1e-300, 1e300, float("nan"),
                         float("inf"), float("-inf")]))


def _value(key, default):
    """Strategy for a value of ``key``, whose default is ``default``."""
    if key in _BOUNDED:
        typed = _BOUNDED[key]
    elif key in _NAMES:
        names = st.sampled_from(_NAMES[key])
        typed = (st.lists(names, max_size=5) if isinstance(default, list)
                 else names)
    elif isinstance(default, list):
        typed = st.lists(_number(default[0]), max_size=5)
    else:
        typed = _number(default)
    # one value in ten of the wrong type
    return st.integers(0, 9).flatmap(lambda i: _WRONG if i == 0 else typed)


@st.composite
def _runs(draw):
    command = draw(st.sampled_from(COMMANDS))
    table = draw(st.fixed_dictionaries(
        {}, optional={key: _value(key, default)
                      for key, default in cli.DEFAULTS[command].items()}))
    if command == "ehrenfest":
        table = {**_EHRENFEST_BASE, **table}
    config = {command: table}
    if draw(st.booleans()):
        config["params"] = draw(st.fixed_dictionaries(
            {}, optional={key: _value(key, default)
                          for key, default in cli.DEFAULTS["params"].items()}))
    return command, config


# a failure names a config key or one of these quantities
_KEYS = sorted({key for table in cli.DEFAULTS.values() for key in table},
               key=len, reverse=True)
_QUANTITIES = ["E", "grid", "packet", "width", "time", "differences", "wall",
               "wave"]
_NAMED = re.compile(r"^error: [a-z-]+: .*\b(%s)\b"
                    % "|".join(_KEYS + _QUANTITIES))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(_runs())
@example(("ehrenfest", {"ehrenfest": {**_EHRENFEST_BASE, "dt": 1e-300}}))
@example(("ehrenfest", {"ehrenfest": {**_EHRENFEST_BASE, "dt": 5e-324}}))
def test_every_run_keeps_the_output_contract(run):
    command, config = run
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            mock.patch.object(cli, "_read_config", lambda path: config), \
            contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("error", RuntimeWarning)
        target = os.path.join(tmp, "out")
        code = cli.main([command, "--config", "cfg.json", "--out", target])
        created = os.path.exists(target)
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (config, stderr)
    assert "Traceback" not in stderr
    if code == 0:
        assert stdout.startswith("resolved config:\n") and created
        assert stderr == ""
    else:
        assert (stdout, created) == ("", False), config
        assert stderr.count("\n") == 1, (config, stderr)
        assert _NAMED.match(stderr), (config, stderr)
