"""Spans and call counts around stepforce's public functions.

``Tracer.install`` rebinds, in the namespace of every stepforce module,
each public function that namespace uses (``cli.ehrenfest_report``,
``regularized.route_b_integral``, ``modes.solve_step_mode``, ...), so a
call is seen wherever the program makes it.  A wrapped call records a span:
its name, start, end, the enclosing span and the benchmark operation it
belongs to.  Calls that take about a microsecond are counted instead of
spanned.  Spans stay in memory, in flat arrays, until ``save`` writes them.
"""

from __future__ import annotations

import array
import functools
import sys
import time
import types

import numpy as np

MODULES = ("core", "modes", "force", "regularized", "timeevo", "reporting",
           "cli")
# Public functions too small to span: counted under these names.
COUNTED_FUNCTIONS = {"dispersion": "modes.dispersion",
                     "classify_regime": "modes.classify_regime",
                     "fmt_float": "reporting.fmt_float",
                     "to_jsonable": "reporting.to_jsonable"}
# (module, class, method, counter name) counted, not spanned.
COUNTED_METHODS = (
    ("core", "RegularizedPotential", "eval", "core.reg_eval_calls"),
    ("core", "RegularizedPotential", "deriv", "core.reg_deriv_calls"),
    ("regularized", "NumericalMode", "eval_scalar", "regularized.mode_evals"),
    ("regularized", "NumericalMode", "eval_spinor", "regularized.mode_evals"),
)
# (module, class, method) spanned like a public function.
SPANNED_METHODS = (("timeevo", "EvolutionState", "norm"),)
# The report's stages, each one function of cli (absent ones are skipped).
CLI_STAGES = {
    "_mode_payload": "flagships",
    "_sweep_residuals": "random_sweeps",
    "_report_route_b": "route_b",
    "_report_limits": "limits",
    "_report_jump_diagnostics": "jump_diagnostics",
    "_report_ehrenfest": "packet_audits",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# What a span keeps from its call besides the timing.
ANNOTATE = {
    "timeevo.ehrenfest_report": lambda a, kw, r: {
        "n": len(r.final_state.x), "dt": r.dt,
        "steps": (len(r.times) - 1) * r.save_stride, "saves": len(r.times)},
    "timeevo.evolve": lambda a, kw, r: {
        "n": len(r.x), "steps": int(_arg(a, kw, 2, "n_steps"))},
    "regularized.solve_smooth_mode": lambda a, kw, r: {
        "theory": r.theory, "segments": len(r.model.values)},
    "regularized.route_b_integral": lambda a, kw, r: {
        "theory": _arg(a, kw, 0, "mode").theory},
    "regularized.route_b_sweep": lambda a, kw, r: {"theory": r.theory},
    "modes.solve_step_mode": lambda a, kw, r: {"theory": r.theory},
    "reporting.dumps_json": lambda a, kw, r: {"bytes": len(r.encode())},
}


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list = []
        self._name_index: dict = {}
        self.ids = array.array("q")
        self.parents = array.array("q")
        self.ops = array.array("q")
        self.name_ids = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.info: dict = {}
        # (op, counter, innermost open span name id) -> count
        self.counts: dict = {}
        self.op = -1
        self._stack = [-1]
        self._name_stack = [-1]
        self._next_id = 0
        self._patches: list = []

    def intern(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def count(self, name: str, n=1):
        key = (self.op, name, self._name_stack[-1])
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers ------------------------------------------------------------
    def span_wrapper(self, fn, name: str):
        idx = self.intern(name)
        annotate = ANNOTATE.get(name)
        stack, name_stack = self._stack, self._name_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            name_stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                name_stack.pop()
                self.ids.append(sid)
                self.parents.append(parent)
                self.ops.append(self.op)
                self.name_ids.append(idx)
                self.starts.append(start)
                self.ends.append(end)
            if annotate is not None:
                self.info[sid] = annotate(args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, fn, name: str):
        counts, name_stack = self.counts, self._name_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (self.op, name, name_stack[-1])
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------
    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every public (not underscored) stepforce function, in each
        module namespace that binds it."""
        mods = {m: sys.modules[f"stepforce.{m}"] for m in MODULES}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if (home not in mods or attr != obj.__name__
                        or attr.startswith("_")):
                    continue
                if attr in COUNTED_FUNCTIONS:
                    new = self.count_wrapper(obj, COUNTED_FUNCTIONS[attr])
                else:
                    new = self.span_wrapper(obj, f"{home}.{attr}")
                self._patch(mod, attr, new)
        cli = mods["cli"]
        for attr, stage in CLI_STAGES.items():
            if hasattr(cli, attr):
                self._patch(cli, attr, self.span_wrapper(
                    getattr(cli, attr), f"cli.stage.{stage}"))
        for mod, cls, meth, counter in COUNTED_METHODS:
            owner = getattr(mods[mod], cls)
            self._patch(owner, meth,
                        self.count_wrapper(getattr(owner, meth), counter))
        for mod, cls, meth in SPANNED_METHODS:
            owner = getattr(mods[mod], cls)
            self._patch(owner, meth, self.span_wrapper(
                getattr(owner, meth), f"{mod}.{cls}.{meth}"))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- output ----------------------------------------------------------------
    def table(self) -> dict:
        """Spans as numpy columns, ordered by span id."""
        order = np.argsort(np.frombuffer(self.ids, dtype=np.int64),
                           kind="stable")
        cols = {"id": self.ids, "parent": self.parents, "op": self.ops,
                "name": self.name_ids, "start": self.starts,
                "end": self.ends}
        out = {}
        for key, col in cols.items():
            dtype = np.float64 if col.typecode == "d" else np.int64
            out[key] = np.frombuffer(col, dtype=dtype)[order]
        return out

    def save(self, path: str):
        """Write spans, names, annotations and counters to an .npz file."""
        tab = self.table()
        counts = [[op, name, inner, n]
                  for (op, name, inner), n in sorted(self.counts.items())]
        np.savez_compressed(
            path, names=np.array(self.names, dtype=object).astype(str),
            info=np.array(repr(self.info)), counts=np.array(repr(counts)),
            **tab)
