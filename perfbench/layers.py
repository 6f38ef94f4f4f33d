"""Per-layer metrics from a traced run's spans and counters.

Each metric is a (value, unit, base) triple; ``base`` states the samples or
count it rests on.  A metric is produced only when the spans it needs are
present, so a workload that never reaches a layer leaves that metric to
the layer probe (see ``workloads.PROBES``).
"""

from __future__ import annotations

import numpy as np

import stats

THEORIES = ("s", "kfg", "dirac")
GRIDS = (2001, 5201, 9501)
OBSERVABLES = ("timeevo.expectation_momentum", "timeevo.expectation_force",
               "timeevo.expectation_position", "timeevo.EvolutionState.norm")
LIMITS = ("force.nonrel_residuals", "force.infinite_step_sweep",
          "force.weak_product_check")
FORCE_CALLS = ("interface_probe", "boundary_terms", "delta_conventions",
               "mean_force_closed", "kfg_density_jump")
STAGES = ("flagships", "random_sweeps", "route_b", "limits",
          "jump_diagnostics", "packet_audits")

# Per-layer metrics every traced run prints, in BENCHMARK.json order.
PER_LAYER = (
    [(f"timeevo.us_per_step.n{n}", "us") for n in GRIDS]
    + [(f"timeevo.evolve_us_per_step.n{n}", "us") for n in GRIDS[1:]]
    + [("timeevo.observables_us.n5201", "us"),
       ("timeevo.cn_steps", "count"), ("timeevo.saves", "count")]
    + [(f"regularized.{f}.{t}", u)
       for f, u in (("solve_smooth_mode_ms", "ms"),
                    ("route_b_integral_ms", "ms"), ("extrapolate_us", "us"))
       for t in THEORIES]
    + [("regularized.smooth_solves", "count"),
       ("regularized.segments", "count"),
       ("regularized.mode_evals", "count"),
       ("regularized.mode_evals_used_ratio", "ratio"),
       ("regularized.jump_diagnostics_ms", "ms"),
       ("core.reg_deriv_calls", "count"), ("core.reg_eval_calls", "count"),
       ("modes.random_mode_us", "us")]
    + [(f"modes.solve_step_mode_us.{t}", "us") for t in THEORIES]
    + [("modes.bc_residuals_us", "us"), ("modes.draw_accept_ratio", "ratio")]
    + [(f"force.{f}_us", "us") for f in FORCE_CALLS]
    + [("force.limits_ms", "ms"), ("reporting.dumps_json_ms", "ms"),
       ("reporting.report_bytes", "bytes"),
       ("trace.overhead_frac", "ratio")]
)


class Columns:
    """A tracer's spans as arrays indexed by span id, with self times."""

    def __init__(self, tracer):
        tab = tracer.table()
        if not np.array_equal(tab["id"], np.arange(len(tab["id"]))):
            raise ValueError("span ids are not 0..n-1")
        self.tracer = tracer
        self.op = tab["op"]
        self.parent = tab["parent"]
        self.name = tab["name"]
        self.dur = tab["end"] - tab["start"]
        selfs = stats.self_times(zip(tab["id"].tolist(), tab["parent"].tolist(),
                                     tab["start"].tolist(), tab["end"].tolist()))
        self.self_dur = np.array([selfs[i] for i in tab["id"].tolist()])


class SpanView:
    """The spans and counters of a set of benchmark operations."""

    def __init__(self, cols: Columns, ops):
        tracer = cols.tracer
        self.names = tracer.names
        self.info = tracer.info
        ops = np.asarray(sorted(ops), dtype=np.int64)
        self.parent = cols.parent
        self.name = cols.name
        self.dur = cols.dur
        self.self_dur = cols.self_dur
        self.rows = np.flatnonzero(np.isin(cols.op, ops))
        op_set = set(ops.tolist())
        self.counts = {}
        for (op, counter, inner), n in tracer.counts.items():
            if op in op_set:
                key = (counter, self.names[inner] if inner >= 0 else None)
                self.counts[key] = self.counts.get(key, 0) + n

    def of(self, name: str, **match) -> np.ndarray:
        """Span ids (= row numbers) called ``name`` whose info matches."""
        if name not in self.names:
            return np.empty(0, dtype=np.int64)
        idx = self.names.index(name)
        rows = self.rows[self.name[self.rows] == idx]
        if match:
            rows = np.array([r for r in rows.tolist()
                             if all(self.info.get(r, {}).get(k) == v
                                    for k, v in match.items())],
                            dtype=np.int64)
        return rows

    def parent_name(self, rows) -> list:
        return [self.names[self.name[p]] if p >= 0 else None
                for p in self.parent[rows].tolist()]

    def counter(self, counter: str, inner: str | None = "*") -> float:
        return sum(n for (c, i), n in self.counts.items()
                   if c == counter and (inner == "*" or i == inner))

    def info_sum(self, rows, key: str) -> float:
        return sum(self.info[r][key] for r in rows.tolist())


def _mean(view, rows, scale, self_time=False):
    if len(rows) == 0:
        return None
    col = view.self_dur if self_time else view.dur
    return (float(np.mean(col[rows])) * scale, f"{len(rows)} calls")


def layer_metrics(view: SpanView, passes: int, counted: SpanView) -> dict:
    """Per-layer metrics of ``view``; counts come from ``counted``.

    ``passes`` is the number of workload passes ``view`` holds, for the
    metrics stated per pass.  ``counted`` holds exactly one pass (or one
    counter window) so that its counts repeat between runs of a seed.
    """
    out = {}

    def put(name, unit, got):
        if got is not None:
            out[name] = (got[0], unit, got[1])

    for n in GRIDS:
        eh = view.of("timeevo.ehrenfest_report", n=n)
        steps = view.info_sum(eh, "steps")
        if steps:
            put(f"timeevo.us_per_step.n{n}", "us",
                (float(view.dur[eh].sum()) / steps * 1e6,
                 f"{steps} steps in {len(eh)} runs"))
        ev = view.of("timeevo.evolve", n=n)
        steps = view.info_sum(ev, "steps")
        if steps:
            put(f"timeevo.evolve_us_per_step.n{n}", "us",
                (float(view.dur[ev].sum()) / steps * 1e6,
                 f"{steps} steps in {len(ev)} calls"))
    eh = set(view.of("timeevo.ehrenfest_report", n=5201).tolist())
    if eh:
        obs = np.concatenate([view.of(name) for name in OBSERVABLES])
        obs = obs[[p in eh for p in view.parent[obs].tolist()]]
        saves = sum(view.info[r]["saves"] for r in eh)
        put("timeevo.observables_us.n5201", "us",
            (float(view.dur[obs].sum()) / saves * 1e6, f"{saves} saves"))
    eh = counted.of("timeevo.ehrenfest_report")
    ev = counted.of("timeevo.evolve")
    if len(eh) or len(ev):
        steps = counted.info_sum(eh, "steps") + counted.info_sum(ev, "steps")
        put("timeevo.cn_steps", "count", (steps, "per pass"))
        put("timeevo.saves", "count", (counted.info_sum(eh, "saves"),
                                       "per pass"))

    for t in THEORIES:
        put(f"regularized.solve_smooth_mode_ms.{t}", "ms", _mean(
            view, view.of("regularized.solve_smooth_mode", theory=t), 1e3,
            self_time=True))
        put(f"regularized.route_b_integral_ms.{t}", "ms", _mean(
            view, view.of("regularized.route_b_integral", theory=t), 1e3,
            self_time=True))
    ext = view.of("regularized.extrapolate")
    sweeps = {r: view.info[r]["theory"]
              for r in view.of("regularized.route_b_sweep").tolist()}
    for t in THEORIES:
        rows = np.array([r for r, p in zip(ext.tolist(),
                                           view.parent[ext].tolist())
                         if sweeps.get(p) == t], dtype=np.int64)
        put(f"regularized.extrapolate_us.{t}", "us",
            _mean(view, rows, 1e6, self_time=True))
    solves = counted.of("regularized.solve_smooth_mode")
    if len(solves):
        put("regularized.smooth_solves", "count", (len(solves), "per pass"))
        put("regularized.segments", "count",
            (counted.info_sum(solves, "segments"), "per pass"))
        evals = counted.counter("regularized.mode_evals")
        used = counted.counter("regularized.mode_evals",
                               "regularized.route_b_integral")
        put("regularized.mode_evals", "count", (evals, "per pass"))
        if evals:
            put("regularized.mode_evals_used_ratio", "ratio",
                (used / evals, f"{used} of {evals} evaluations"))
        put("core.reg_deriv_calls", "count",
            (counted.counter("core.reg_deriv_calls"), "per pass"))
        put("core.reg_eval_calls", "count",
            (counted.counter("core.reg_eval_calls"), "per pass"))
    jump = view.of("regularized.smooth_jump_diagnostics")
    if len(jump):
        put("regularized.jump_diagnostics_ms", "ms",
            (float(view.dur[jump].sum()) / passes * 1e3,
             f"{len(jump)} calls over {passes} passes"))

    put("modes.random_mode_us", "us",
        _mean(view, view.of("modes.random_mode"), 1e6))
    for t in THEORIES:
        put(f"modes.solve_step_mode_us.{t}", "us",
            _mean(view, view.of("modes.solve_step_mode", theory=t), 1e6))
    put("modes.bc_residuals_us", "us",
        _mean(view, view.of("modes.bc_residuals"), 1e6))
    attempts = counted.counter("modes.draw_attempts")
    if attempts:
        accepted = counted.counter("modes.draws_accepted")
        put("modes.draw_accept_ratio", "ratio",
            (accepted / attempts, f"{accepted} of {attempts:g} attempts"))
    for f in FORCE_CALLS:
        put(f"force.{f}_us", "us", _mean(view, view.of(f"force.{f}"), 1e6))
    lim = np.concatenate([view.of(name) for name in LIMITS])
    if len(lim):
        put("force.limits_ms", "ms",
            (float(view.dur[lim].sum()) / passes * 1e3,
             f"{len(lim)} calls over {passes} passes"))
    put("reporting.dumps_json_ms", "ms",
        _mean(view, view.of("reporting.dumps_json"), 1e3))
    dumps = counted.of("reporting.dumps_json")
    if len(dumps):
        put("reporting.report_bytes", "bytes",
            (view.info[int(dumps[-1])]["bytes"], "last call"))
    return out


def report_breakdown(view: SpanView, passes: int) -> dict:
    """Report-only figures: audit seconds, stage seconds and cli self time."""
    out = {}
    eh = view.of("timeevo.ehrenfest_report")
    audits = {}
    for r, parent in zip(eh.tolist(), view.parent_name(eh)):
        if parent != "cli.stage.packet_audits":
            continue
        n, dt = view.info[r]["n"], view.info[r]["dt"]
        audits.setdefault(n, []).append((dt, float(view.dur[r])))
    names = {2001: ["free"], 9501: ["packet_rt"],
             5201: ["scattering_half_dt", "scattering"]}
    for n, runs in audits.items():
        for (dt, secs), label in zip(sorted(runs), names.get(n, [])):
            key = f"timeevo.audit_s.{label}"
            out[key] = (out.get(key, (0.0,))[0] + secs / passes, "s",
                        f"{passes} passes")
    total = 0.0
    for stage in STAGES:
        rows = view.of(f"cli.stage.{stage}")
        if len(rows):
            secs = float(view.dur[rows].sum()) / passes
            total += secs
            out[f"report.stage_s.{stage}"] = (secs, "s",
                                              f"{len(rows)} calls")
    runs = view.of("cli.run_report")
    if len(runs):
        cli_rows = [r for r in view.rows.tolist()
                    if view.names[view.name[r]].startswith("cli.")]
        out["cli.self_s"] = (float(view.self_dur[cli_rows].sum()) / passes,
                             "s", f"{passes} passes")
        out["report.stage_sum_s"] = (total, "s", f"{len(STAGES)} stages")
        out["report.run_report_s"] = (float(view.dur[runs].sum()) / passes,
                                      "s", f"{len(runs)} calls")
    return out
