"""Time route B's sweeps in two source trees against each other, in one
process.

    python tools/ab_routeb.py PARENT CHANGE [--passes N]

Copies each tree's ``src/stepforce`` to a temporary directory under a
package name of its own, so that both load side by side and neither tree
gets a ``__pycache__``.  It first checks that the report's seven route-B
sweeps give the same ``values``, ``defects`` and limits (extrapolated
value, order and error estimate) in both trees, bit for bit, and that
each width's mode, as the sweep solves it, has the same float words of
``r``, ``t``, ``defect`` and ``seg_states``, zero signs included: the
loaded copy's ``solve_smooth_mode`` is wrapped, as perfbench's tracer
wraps it, so a model the sweep rescales from the width before is the
one compared.  It exits 1 naming the first sweep or width that differs.
Then it runs N full passes of the seven sweeps on each side, alternating
which side goes first, and prints each side's median pass time, then per
sweep and for the whole pass the median change/parent ratio of the paired
runs with its quartiles and the runs the change wins: a change that helps
one theory or shape only shows in that sweep's row.

Paired passes in one process share the host's drift, so a ratio of a few
tenths of a per cent shows after a few hundred passes, where separate
benchmark runs would need many pairs.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

# the report's seven route-B sweeps, (theory, energy, shape), at v0 = 0.5
# in natural units
SWEEPS = (
    ("s", 1.0, "logistic"), ("s", 1.0, "erf"),
    ("kfg", 2.0, "logistic"), ("kfg", 2.0, "erf"), ("kfg", 2.0, "ramp"),
    ("dirac", 2.0, "logistic"), ("dirac", 2.0, "erf"),
)
V0 = 0.5
FIELDS = ("values", "defects", "extrapolated", "order", "error_estimate")


def load(tree: str, name: str, folder: str):
    """``regularized`` and ``core`` of the tree's stepforce, copied to
    ``folder`` and imported as the package ``name``."""
    dest = os.path.join(folder, name)
    shutil.copytree(os.path.join(tree, "src", "stepforce"), dest,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(dest, "__init__.py"),
        submodule_search_locations=[dest])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return (importlib.import_module(f"{name}.regularized"),
            importlib.import_module(f"{name}.core"))


class Side:
    """One tree's sweeps."""

    def __init__(self, tree: str, name: str, folder: str):
        self.regularized, self.core = load(tree, name, folder)
        self.pars = self.core.PhysicalParams(v0=V0)

    def sweep(self, theory: str, energy: float, shape: str):
        return self.regularized.route_b_sweep(theory, energy, shape, V0,
                                              self.pars)

    def solved(self, theory: str, energy: float, shape: str):
        """The sweep, and the mode of each width that its solves return."""
        reg, modes = self.regularized, []
        solve = reg.solve_smooth_mode

        def recorded(*args, **kwargs):
            modes.append(solve(*args, **kwargs))
            return modes[-1]

        reg.solve_smooth_mode = recorded
        try:
            return self.sweep(theory, energy, shape), modes
        finally:
            reg.solve_smooth_mode = solve

    def timed_pass(self) -> list:
        """The seconds each sweep of one pass takes, in SWEEPS order."""
        seconds = []
        for case in SWEEPS:
            started = time.perf_counter()
            self.sweep(*case)
            seconds.append(time.perf_counter() - started)
        return seconds


def outputs(series) -> str:
    # repr rounds a float back to itself: equal strings, equal bits
    return repr(tuple(getattr(series, name) for name in FIELDS))


def words(mode) -> bytes:
    """The float words of a mode's r, t, defect and seg_states."""
    return (np.array([mode.r, mode.t, mode.defect], dtype=complex).tobytes()
            + np.ascontiguousarray(mode.seg_states).tobytes())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--passes", type=int, default=400)
    args = ap.parse_args(argv)
    if args.passes < 2:
        ap.error("--passes must be at least 2")

    with tempfile.TemporaryDirectory() as folder:
        parent = Side(args.parent, "stepforce_ab_parent", folder)
        change = Side(args.change, "stepforce_ab_change", folder)
        for case in SWEEPS:
            (old, old_modes), (new, new_modes) = (parent.solved(*case),
                                                  change.solved(*case))
            if outputs(old) != outputs(new):
                print(f"outputs differ: sweep {case}", file=sys.stderr)
                return 1
            for eps, a, b in zip(new.epsilons, old_modes, new_modes):
                if words(a) != words(b):
                    print(f"modes differ: sweep {case}, eps {eps}",
                          file=sys.stderr)
                    return 1
        times = {"parent": [], "change": []}
        for i in range(args.passes):
            order = ((parent, "parent"), (change, "change"))
            for side, name in order if i % 2 == 0 else order[::-1]:
                times[name].append(side.timed_pass())

    print(f"{len(SWEEPS)} sweeps: values, defects and limits identical")
    for name, passes in times.items():
        median = statistics.median(map(sum, passes))
        print(f"{name}: median pass {median * 1e3:.3f} ms")
    for i, case in enumerate(SWEEPS):
        print(f"{' '.join(map(str, case))}: " + paired(
            [(p[i], c[i]) for p, c in zip(times["parent"], times["change"])],
            "runs"))
    print("change/parent: " + paired(
        [(sum(p), sum(c)) for p, c in zip(times["parent"], times["change"])],
        "passes"))
    return 0


def paired(pairs: list, unit: str) -> str:
    """The median change/parent ratio of (parent, change) pairs with its
    quartiles, and the pairs the change wins."""
    ratios = [c / p for p, c in pairs]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return (f"median ratio {median:.4f} [{q1:.4f}, {q3:.4f}], change wins "
            f"{sum(r < 1.0 for r in ratios)}/{len(ratios)} {unit}")


if __name__ == "__main__":
    sys.exit(main())
