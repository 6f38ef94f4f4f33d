"""Command-line front end: run experiments, write CSV/JSON reports.

Each command returns its stdout lines and its files' texts, and `main`
emits them: a successful run writes its files, then echoes its resolved
configuration (defaults, then config file, then command-line flags) and
prints its results; a failed run prints only its stderr message and
creates nothing.  All file output is deterministic: rerunning `report`
with the same seed must produce byte-identical JSON.  Wall-clock timings
therefore never enter report.json; they go to a sidecar text file.

Exit codes: 0 success; 1 physics-domain failure (thresholds, unresolved
numerics, box contamination), a failed internal cross-check or a
floating-point overflow, invalid operation or division by zero; 2
configuration or usage error.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import re
import sys
import threading
import time
from dataclasses import asdict, astuple, fields, replace

import numpy as np

from . import __version__
from .core import REG_SHAPES, GridSpec, PhysicalParams, RegularizedPotential
from .errors import ConfigError, StepForceError
from .force import (InfiniteStepRow, NonrelRow, boundary_terms,
                    delta_conventions, infinite_step_sweep, interface_probe,
                    kfg_density_jump, mean_force_closed, nonrel_residuals,
                    weak_product_check)
from .modes import (THEORIES, _expected_jump, matching_residuals, random_mode,
                    solve_step_mode)
from .regularized import (DEFAULT_EPSILONS, _check_widths, route_b_sweep,
                          smooth_jump_diagnostics)
from .reporting import csv_text, dumps_json, fmt_bare
from .timeevo import PacketSpec, compare_packet_rt, ehrenfest_report

__all__ = ["main", "build_parser", "run_report"]


DEFAULTS = {
    "params": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
    "mode": {"theory": "kfg", "energy": 2.0, "v0": 0.5},
    "converge": {
        "theory": "kfg", "energy": 2.0, "v0": 0.5,
        "shapes": ["logistic", "erf"],
        "epsilons": list(DEFAULT_EPSILONS),
        "domain": 20.0, "resolution": 8,  # domain: echoed, refused if given
    },
    "limits": {
        "kind": "nonrel",
        "energy_nr": 0.1, "v0": 0.05, "speeds": [10.0, 100.0, 1000.0],
        "energy": 1.0, "v0_list": [10.0, 100.0, 1000.0],
    },
    "ehrenfest": {
        "case": "scattering",
        "k0": 1.0, "sigma": 2.0, "x0": -12.0, "v0": 0.5, "eps": 0.1,
        "shape": "logistic",
        "x_min": -60.0, "x_max": 44.0, "n_points": 5201,
        "dt": 4.0e-4, "t_final": 20.0, "save_stride": 100,
    },
    "report": {"n_random": 100},
}

# energy of each theory's flagship experiment (mode payloads and route B)
FLAGSHIP_ENERGY = {"s": 1.0, "kfg": 2.0, "dirac": 2.0}

_EHRENFEST_FREE = {
    "case": "free",
    "k0": 1.0, "sigma": 2.0, "x0": -10.0, "v0": 0.0, "eps": 0.1,
    "shape": "logistic",
    "x_min": -40.0, "x_max": 40.0, "n_points": 2001,
    "dt": 1.0e-3, "t_final": 5.0, "save_stride": 40,
}

_RT_CASE = {
    "k0": 2.0, "sigma": 5.0, "x0": -25.0, "v0": 0.5, "eps": 0.1,
    "shape": "logistic",
    "x_min": -95.0, "x_max": 95.0, "n_points": 9501,
    "dt": 4.0e-4, "t_final": 27.0, "save_stride": 250,
}

# the names a key accepts, checked wherever the key is given
_NAMES = {"converge.shapes": REG_SHAPES,
          "limits.kind": ("nonrel", "infinite-step"),
          "ehrenfest.case": ("scattering", "free")}

# the keys of its table that a command, or its kind or case, does not
# read: giving one is a config error (converge.domain is only echoed)
_UNREAD = {"converge": ("domain",),
           "nonrel": ("energy", "v0_list"),
           "infinite-step": ("energy_nr", "v0", "speeds"),
           "free": ("v0", "eps", "shape")}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _finite(name: str, value):
    """``value`` (a number, string or list) unless it holds a NaN or an
    infinity."""
    for item in value if isinstance(value, list) else [value]:
        if isinstance(item, float) and not math.isfinite(item):
            raise ConfigError(f"{name} must be finite, got {item!r}")
    return value


def _checked(name: str, default, value, names=None):
    """``value`` as the type of ``default`` (a list: of its items' type),
    each string one of ``names`` if given, or ConfigError naming ``name``."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"config key {name} must be a list")
        return [_checked(f"{name}[{i}]", default[0], item, names)
                for i, item in enumerate(_finite(name, value))]
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"config key {name} must be a string")
        if names is not None and value not in names:
            raise ConfigError(f"{name} must be one of {names}, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {name} must be a number")
    _finite(name, value)
    if isinstance(default, int) and value != int(value):
        raise ConfigError(f"config key {name} must be an integer, "
                          f"got {value!r}")
    return type(default)(value)


def _merge_into(base: dict, override: dict, path: str = "",
                types: dict = DEFAULTS):
    """Overlay ``override`` on ``base`` in place.  Each value is checked
    against the default it replaces in ``types``, and against _NAMES: the
    one check that config-file values and flags both pass."""
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in types:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(types[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here} must be a table")
            _merge_into(base[key], value, here, types[key])
        else:
            base[key] = _checked(here, types[key], value, _NAMES.get(here))


def _read_config(path: str | None) -> dict:
    """The JSON config file's top-level object ({} without a file)."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config file must contain a JSON object")
    return user


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the JSON config file, strictly validated."""
    cfg = copy.deepcopy(DEFAULTS)
    _merge_into(cfg, _read_config(path))
    return cfg


def build_params(cfg: dict, v0: float) -> PhysicalParams:
    p = cfg["params"]
    return PhysicalParams(hbar=p["hbar"], mass=p["mass"], c=p["c"], v0=v0)


def _echo_config(command: str, cfg: dict, seed: int, out_dir: str) -> str:
    subset = {
        "command": command,
        "out": out_dir,
        "params": cfg["params"],
        command: cfg[command],
    }
    if command == "report":
        subset["seed"] = seed
    return "resolved config:\n" + dumps_json(subset)


# ---------------------------------------------------------------------------
# mode command
# ---------------------------------------------------------------------------

def _mode_payload(theory: str, energy: float, pars: PhysicalParams) -> dict:
    mode = solve_step_mode(theory, energy, pars)
    probe = interface_probe(mode)
    report = boundary_terms(mode)
    return {**asdict(probe), **asdict(report),
            "regime": mode.regime, "r": mode.r, "t": mode.t,
            "reflection_probability": abs(mode.r) ** 2,
            "density_jump": probe.density_jump,
            "identity_residual": report.identity_residual}


def cmd_mode(cfg: dict, seed: int) -> tuple:
    blk = cfg["mode"]
    pars = build_params(cfg, blk["v0"])
    payload = _mode_payload(blk["theory"], blk["energy"], pars)
    lines = []
    for key in ("regime", "r", "t", "rho_left", "rho_right", "density_jump",
                "route_a", "kinetic_term", "mass_term", "potential_term",
                "identity_residual"):
        value = payload[key]
        if isinstance(value, complex):
            text = f"{fmt_bare(value.real)} + {fmt_bare(value.imag)}j"
        elif isinstance(value, float):
            text = fmt_bare(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    for key, value in sorted(payload["delta_integral"].items()):
        lines.append(f"delta_integral.{key} = {fmt_bare(value)}")
    return lines, {"mode.json": dumps_json(payload)}


# ---------------------------------------------------------------------------
# converge command
# ---------------------------------------------------------------------------

def _candidates(theory: str, energy: float, pars: PhysicalParams) -> dict:
    sharp = solve_step_mode(theory, energy, pars)
    closed = mean_force_closed(sharp)
    midpoint = -pars.v0 * delta_conventions(sharp)["midpoint"]
    return {"sharp_closed_form": closed, "midpoint_average": midpoint}


def _verdict(extrapolated: float, candidates: dict) -> dict:
    """The candidate within relative distance 5e-3 of the limit, by name,
    else ``both`` or ``neither``."""
    diffs = {name: abs(extrapolated - value) / max(abs(value), 1e-300)
             for name, value in candidates.items()}
    matched = [name for name, d in sorted(diffs.items()) if d <= 5e-3]
    label = (matched[0] if len(matched) == 1
             else "both" if matched else "neither")
    return {"matched": label, "candidates": candidates,
            "relative_differences": diffs}


def _route_b_verdicts(theory: str, energy: float, shapes, pars: PhysicalParams,
                      *grid):
    """(series, verdict) per shape: route_b_sweep at ``pars.v0``, then
    _verdict.  The candidates do not depend on the shape; they are
    computed once, after the first sweep, whose checks name an unusable
    energy before the sharp mode can overflow on it."""
    candidates = None
    for shape in shapes:
        series = route_b_sweep(theory, energy, shape, pars.v0, pars, *grid)
        if candidates is None:
            candidates = _candidates(theory, energy, pars)
        yield series, _verdict(series.extrapolated, candidates)


def _verdict_line(series, verdict: dict) -> str:
    cands = verdict["candidates"]
    diffs = verdict["relative_differences"]
    parts = [
        f"verdict ({series.theory}, {series.shape}): limit "
        f"{fmt_bare(series.extrapolated)} (order {series.order:.2f})"
    ]
    if verdict["matched"] in cands:
        other = [n for n in cands if n != verdict["matched"]][0]
        parts.append(
            f"matches the {verdict['matched'].replace('_', '-')} candidate "
            f"({fmt_bare(cands[verdict['matched']])}, "
            f"diff {diffs[verdict['matched']]:.3e});")
        parts.append(
            f"the {other.replace('_', '-')} candidate "
            f"({fmt_bare(cands[other])}) differs by {diffs[other]:.3e}")
    else:
        parts.append(f"matches {verdict['matched']} candidate")
    return " ".join(parts)


def cmd_converge(cfg: dict, seed: int) -> tuple:
    blk = cfg["converge"]
    _check_widths(blk["epsilons"], "converge.epsilons")
    if not blk["shapes"]:
        raise ConfigError("converge.shapes must not be empty")
    pars = build_params(cfg, blk["v0"])
    lines, rows = [], []
    for series, verdict in _route_b_verdicts(
            blk["theory"], blk["energy"], blk["shapes"], pars,
            tuple(blk["epsilons"]), int(blk["resolution"])):
        for eps, value, defect in zip(series.epsilons, series.values,
                                      series.defects):
            rows.append((series.theory, series.energy, series.v0,
                         series.shape, eps, value, defect))
        lines.append(_verdict_line(series, verdict))
    return lines, {"converge.csv": csv_text(
        ("theory", "E", "V0", "shape", "epsilon", "value", "defect"), rows)}


# ---------------------------------------------------------------------------
# limits command
# ---------------------------------------------------------------------------

def cmd_limits(cfg: dict, seed: int) -> tuple:
    blk = cfg["limits"]
    pars = build_params(cfg, blk["v0"])
    if blk["kind"] == "nonrel":
        table = nonrel_residuals(blk["energy_nr"], tuple(blk["speeds"]), pars)
        name, row_type = "limits_nonrel.csv", NonrelRow
        line = f"force-residual log-log slope vs c: {fmt_bare(table.slope)}"
    else:
        table = infinite_step_sweep(blk["energy"], tuple(blk["v0_list"]),
                                    pars)
        name, row_type = "limits_infinite_step.csv", InfiniteStepRow
        line = f"candidate-error log-log slope vs v0: {fmt_bare(table.slope)}"
    return [line], {name: csv_text([f.name for f in fields(row_type)],
                                   [astuple(row) for row in table.rows])}


# ---------------------------------------------------------------------------
# ehrenfest command
# ---------------------------------------------------------------------------

def _ehrenfest_setup(blk: dict):
    """Packet and potential (None for v0 = 0) of an ehrenfest block."""
    grid = GridSpec(x_min=blk["x_min"], x_max=blk["x_max"],
                    n_points=int(blk["n_points"]))
    spec = PacketSpec(x0=blk["x0"], sigma=blk["sigma"], k0=blk["k0"],
                      grid=grid)
    if blk["v0"] == 0.0:
        return spec, None
    return spec, RegularizedPotential(v0=blk["v0"], eps=blk["eps"],
                                      shape=blk["shape"])


def _audit(blk: dict, dt: float, pars: PhysicalParams, checkpoint=None):
    """The momentum-balance audit of an ehrenfest block at time step dt;
    ``checkpoint`` goes to ehrenfest_report."""
    spec, reg = _ehrenfest_setup(blk)
    return ehrenfest_report(spec, reg, dt, blk["t_final"],
                            int(blk["save_stride"]), params=pars,
                            checkpoint=checkpoint)


def cmd_ehrenfest(cfg: dict, seed: int) -> tuple:
    blk = cfg["ehrenfest"]
    report = _audit(blk, blk["dt"], build_params(cfg, blk["v0"]))
    lines = [f"max |dp/dt - force| = {fmt_bare(report.max_deviation)}",
             f"max deviation / peak |force| = "
             f"{fmt_bare(report.max_deviation_rel)}",
             f"norm drift = {fmt_bare(report.norm_drift)}",
             f"wall amplitude max = {fmt_bare(report.wall_amplitude)}"]
    ran_to = float(report.times[-1])   # rounding moves it by ulps only
    if not math.isclose(ran_to, blk["t_final"], rel_tol=1e-9):
        lines.append(f"ran to t = {fmt_bare(ran_to)}, past t_final = "
                     f"{fmt_bare(blk['t_final'])}: t_final / dt rounds up to "
                     f"a whole number of save intervals")
    return lines, {"ehrenfest.csv": csv_text(
        ("t", "px_expect", "dpdt", "force_expect", "norm"), report.rows())}


# ---------------------------------------------------------------------------
# report command
# ---------------------------------------------------------------------------

def _sweep_residuals(theory: str, rng, n: int, pars: PhysicalParams) -> dict:
    """Worst-case identity residuals over n random admissible modes."""
    names = ["continuity", "flux", "evanescent_reflection",
             "identity_residual_rel"]
    if theory == "kfg":
        names += ["density_jump_identity", "route_agreement"]
    worst = dict.fromkeys(names, 0.0)

    def bump(name: str, value: float):
        worst[name] = max(worst[name], value)

    regimes: dict = {}
    for _ in range(n):
        mode = random_mode(theory, rng, pars)
        regimes[mode.regime] = regimes.get(mode.regime, 0) + 1
        mp = mode.params
        cont, flux = matching_residuals(mode)
        bump("continuity", cont)
        bump("flux", flux)
        if mode.regime == "evanescent":
            bump("evanescent_reflection", abs(abs(mode.r) - 1.0))
        rep = boundary_terms(mode)
        scale = max(abs(rep.route_a), abs(rep.potential_term),
                    abs(rep.mass_term), 1e-300)
        bump("identity_residual_rel", abs(rep.identity_residual) / scale)
        if theory == "kfg":
            jump = kfg_density_jump(mode)
            closed = -(mp.v0 / mp.rest_energy) * abs(mode.psi0) ** 2
            bump("density_jump_identity",
                 abs(jump - closed) / max(abs(closed), 1e-300))
            half = mean_force_closed(mode)
            restated = (mp.v0**2 / (2.0 * mp.rest_energy)) * abs(mode.psi0) ** 2
            bump("route_agreement",
                 abs(half - restated) / max(abs(restated), 1e-300))
    return {"n_draws": n, "regime_counts": regimes, "worst": worst}


# the ConvergenceSeries fields a report keeps per shape
_SERIES_FIELDS = ("epsilons", "values", "defects", "extrapolated", "order",
                  "error_estimate")


def _report_route_b(pars: PhysicalParams) -> dict:
    out = {}
    for theory in THEORIES:
        energy = FLAGSHIP_ENERGY[theory]
        shapes = REG_SHAPES if theory == "kfg" else REG_SHAPES[:2]
        series_by_shape = {}
        verdicts = {}
        for series, verdict in _route_b_verdicts(theory, energy, shapes, pars):
            series_by_shape[series.shape] = {
                name: getattr(series, name) for name in _SERIES_FIELDS}
            verdicts[series.shape] = verdict
        limits = [series_by_shape[s]["extrapolated"] for s in shapes]
        spread = (max(limits) - min(limits)) / max(abs(min(limits)),
                                                   abs(max(limits)), 1e-300)
        out[theory] = {
            "energy": energy,
            "v0": pars.v0,
            "series": series_by_shape,
            "verdicts": verdicts,
            "shape_spread_rel": spread,
        }
    return out


def _report_limits(pars: PhysicalParams) -> dict:
    pars = replace(pars, v0=0.05)
    nonrel = nonrel_residuals(0.1, (10.0, 100.0, 1000.0), pars)
    infinite = infinite_step_sweep(1.0, (10.0, 100.0, 1000.0), pars)
    a3 = []
    for eps in (0.004, 0.002, 0.001):
        reg = RegularizedPotential(v0=1.0e4, eps=eps, shape="logistic")
        chk = weak_product_check(1.0, reg, pars)
        a3.append({"eps": eps, "window": chk.window,
                   "deviation": chk.deviation})
    return {
        "nonrel": {
            "rows": [asdict(r) for r in nonrel.rows],
            "force_slope": nonrel.slope,
        },
        "infinite_step": {
            "rows": [asdict(r) for r in infinite.rows],
            "error_slope": infinite.slope,
        },
        "weak_product": {
            "rows": a3,
            "decreasing": all(a3[i]["deviation"] > a3[i + 1]["deviation"]
                              for i in range(len(a3) - 1)),
        },
    }


def _report_jump_diagnostics(pars: PhysicalParams) -> dict:
    rows = []
    for eps in (0.01, 0.005, 0.0025):
        reg = RegularizedPotential(v0=pars.v0, eps=eps, shape="logistic")
        diag = smooth_jump_diagnostics(FLAGSHIP_ENERGY["kfg"], reg, pars,
                                       probe_offset=0.2)
        rows.append({
            "eps": eps,
            "jump_value_norm": float(np.linalg.norm(diag.jump_value)),
            "expected_value_norm": float(np.linalg.norm(
                _expected_jump(reg.v0, pars.rest_energy, diag.psi0))),
            "projected_fraction_value": diag.projected_fraction_value,
            "projected_fraction_deriv": diag.projected_fraction_deriv,
            "component_ratio": diag.component_ratio_value,
        })
    fracs = [r["projected_fraction_value"] for r in rows]
    return {
        "probe_offset": 0.2,
        "rows": rows,
        "improving": all(fracs[i] > fracs[i + 1]
                         for i in range(len(fracs) - 1)),
    }


# the EhrenfestReport fields a report keeps per packet audit
_SUMMARY_FIELDS = ("max_deviation", "max_deviation_rel", "norm_drift",
                   "wall_amplitude", "dt", "save_stride")


def _summary(report) -> dict:
    return {name: getattr(report, name) for name in _SUMMARY_FIELDS}


# the hysteresis of a handover, as a share of all the jobs' work: a handover
# wakes a thread, about a millisecond on a busy two-core host, so trading
# permits at every checkpoint would cost more than the lanes gain
_HANDOVER_MARGIN = 0.01


def _two_lanes(jobs: list, costs: list) -> list:
    """Each job's result, in job order, with at most two jobs computing at
    once.

    Each job runs on its own thread, the costliest on the calling thread,
    and is called as ``job(checkpoint)``; it calls ``checkpoint(left)``
    with the work it has left (in the units of ``costs``) wherever it may
    pause.  Two permits to compute pass between the jobs.  The two
    costliest start.  At a checkpoint a job hands its permit over only if
    a waiting job has more work left than it has by more than
    _HANDOVER_MARGIN of all the work, so that the two lanes end together
    without trading permits at every checkpoint.  A freed permit, at a
    handover or at a job's end, goes to the waiting job with the most work
    left; a job starts computing only once it first holds one.

    Every job runs to its end; then the exception of the first failed job
    in job order is raised, so a failure reads as in a serial run.  The
    jobs share nothing but their result slots.  Each runs under the
    caller's numpy error state, which a new thread does not inherit."""
    results, errors = [None] * len(jobs), [None] * len(jobs)
    float_state = np.geterr()
    left = list(costs)
    margin = _HANDOVER_MARGIN * sum(costs)
    order = sorted(range(len(jobs)), key=lambda i: -costs[i])
    running, waiting = set(order[:2]), set(order[2:])
    turn = threading.Condition()

    def pass_on(i):
        # with turn held: job i's permit to the waiting job with most left
        running.discard(i)
        if waiting:
            j = max(waiting, key=left.__getitem__)
            waiting.remove(j)
            running.add(j)
            turn.notify_all()

    def hold(i):
        # with turn held: wait until job i holds a permit
        while i not in running:
            turn.wait()

    def checkpoint(i, rest):
        with turn:
            left[i] = rest
            if waiting and max(left[j] for j in waiting) > rest + margin:
                pass_on(i)
                waiting.add(i)
                hold(i)

    def lane(i):
        with turn:
            hold(i)
        try:
            with np.errstate(**float_state):
                results[i] = jobs[i](functools.partial(checkpoint, i))
        except Exception as exc:
            errors[i] = exc
        finally:
            with turn:
                pass_on(i)

    workers = [threading.Thread(target=lane, args=(i,), daemon=True)
               for i in order[1:]]
    for worker in workers:
        worker.start()
    lane(order[0])
    for worker in workers:
        worker.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _report_ehrenfest(pars: PhysicalParams) -> dict:
    blk = DEFAULTS["ehrenfest"]
    # in stage order; same stride count at half the step, so the save
    # interval halves with it and every second-order-in-time error term
    # must drop fourfold
    audits = ((_EHRENFEST_FREE, _EHRENFEST_FREE["dt"]), (blk, blk["dt"]),
              (blk, blk["dt"] / 2.0), (_RT_CASE, _RT_CASE["dt"]))
    # grid points times time steps: 10, 260, 520 and 641 million; packet
    # R/T and half dt start, and the permits even the lanes out from there
    free, coarse, fine, rt_run = _two_lanes(
        [functools.partial(_audit, audit, dt, pars) for audit, dt in audits],
        [audit["n_points"] * audit["t_final"] / dt for audit, dt in audits])
    rt = compare_packet_rt(rt_run.final_state, _ehrenfest_setup(_RT_CASE)[0])
    ratio = (coarse.max_deviation / fine.max_deviation
             if fine.max_deviation > 0.0 else float("inf"))
    return {
        "free": _summary(free),
        "scattering": _summary(coarse),
        "scattering_half_dt": _summary(fine),
        "dt_halving_ratio": ratio,
        "packet_rt": rt,
    }


def run_report(cfg: dict, seed: int) -> dict:
    """Assemble the full verification bundle (pure: no timing, no files)."""
    rng = np.random.default_rng(seed)
    n = int(cfg["report"]["n_random"])
    if n < 0:
        raise ConfigError(f"report.n_random must be >= 0, got {n}")
    pars = build_params(cfg, 0.5)
    flagships = {theory: _mode_payload(theory, FLAGSHIP_ENERGY[theory], pars)
                 for theory in THEORIES}
    sweeps = {theory: _sweep_residuals(theory, rng, n, pars)
              for theory in THEORIES}
    return {
        "version": __version__,
        "seed": seed,
        "resolved_config": cfg,
        "flagships": flagships,
        "random_sweeps": sweeps,
        "route_b": _report_route_b(pars),
        "limits": _report_limits(pars),
        "jump_diagnostics": _report_jump_diagnostics(pars),
        "ehrenfest": _report_ehrenfest(pars),
    }


def cmd_report(cfg: dict, seed: int) -> tuple:
    started = time.perf_counter()
    bundle = run_report(cfg, seed)
    elapsed = time.perf_counter() - started
    lines = []
    for theory in THEORIES:
        verdict = bundle["route_b"][theory]["verdicts"]["logistic"]
        lines.append(f"route B ({theory}): limit matches "
                     f"{verdict['matched'].replace('_', '-')}")
    lines += [f"nonrel force-residual slope: "
              f"{fmt_bare(bundle['limits']['nonrel']['force_slope'])}",
              f"infinite-step candidate-error slope: "
              f"{fmt_bare(bundle['limits']['infinite_step']['error_slope'])}",
              f"ehrenfest dt-halving ratio: "
              f"{fmt_bare(bundle['ehrenfest']['dt_halving_ratio'])}"]
    # the wall clock goes to its own file: report.json stays deterministic
    return lines, {"report.json": dumps_json(bundle),
                   "report_timing.txt": f"wall_clock_seconds {elapsed:.3f}\n"}


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "mode": (cmd_mode, "solve one sharp-step mode, print all interface "
                       "quantities"),
    "converge": (cmd_converge, "force on smoothed steps over a width sweep, "
                               "extrapolated"),
    "limits": (cmd_limits, "nonrelativistic or hard-wall limit tables"),
    "ehrenfest": (cmd_ehrenfest, "packet evolution with the momentum-balance "
                                 "audit (--case free has its own defaults)"),
    "report": (cmd_report, "full verification bundle as deterministic JSON"),
}


def _flag_type(default):
    """Parser of the flag for a config key: the type of its default, or
    for a list comma-separated items of its items' type."""
    if not isinstance(default, list):
        return type(default)
    item = type(default[0])

    def items(text: str) -> list:
        return [item(tok.strip()) for tok in text.split(",") if tok.strip()]

    items.__name__ = f"comma-separated {item.__name__}"
    return items


# a flag value that begins with a minus sign: a number or a list of numbers
_SIGNED_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    """One --key-with-dashes flag per key of each command's DEFAULTS table;
    only the flags given reach the namespace; all follow the subcommand,
    and only report takes --seed.  A flag takes a value that begins with
    a minus sign (``--v0-list -5,20``, ``--energy -1e3``) as its separate
    argument, as in its ``--flag=value`` form; an option name after a
    flag is still an error."""
    parser = argparse.ArgumentParser(
        prog="stepforce",
        description="mean-force verification laboratory for the step "
                    "potential")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=text,
                               argument_default=argparse.SUPPRESS)
        p_cmd.add_argument("--config", help="JSON config file")
        p_cmd.add_argument("--out", help="output directory (default .)")
        if command == "report":
            p_cmd.add_argument("--seed", type=int,
                               help="seed for the random sweeps (default 0)")
        # argparse reads such a value as an argument only when it matches
        # this pattern, by default a plain decimal
        p_cmd._negative_number_matcher = _SIGNED_VALUE
        for key, default in DEFAULTS[command].items():
            # a key the command never reads: _resolve refuses it if given
            hidden = key in _UNREAD.get(command, ())
            p_cmd.add_argument("--" + key.replace("_", "-"),
                               type=_flag_type(default),
                               help=argparse.SUPPRESS if hidden
                               else f"default {default}")
    return parser


def _resolve(args: argparse.Namespace) -> tuple:
    """(cfg, seed, out_dir, command): defaults, then the config file, then
    the flags given, all through one check."""
    flags = vars(args)
    command = flags.pop("command")
    user = _read_config(flags.pop("config", None))
    seed = flags.pop("seed", 0)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    out_dir = flags.pop("out", ".")
    cfg = copy.deepcopy(DEFAULTS)
    _merge_into(cfg, user)
    _merge_into(cfg, {command: flags})
    given = set(user.get(command, {})) | set(flags)
    if command == "limits":
        # a log-log slope needs two abscissae
        for key in ("speeds", "v0_list"):
            if len(set(cfg["limits"][key])) < 2:
                raise ConfigError(f"config key limits.{key} needs at least 2 "
                                  f"distinct values")
    # the kind or case a command runs reads its keys, else the command
    selector = {"limits": "kind", "ehrenfest": "case"}.get(command)
    reader = cfg[command][selector] if selector else command
    unread = sorted(given.intersection(_UNREAD.get(reader, ())))
    if unread:
        raise ConfigError(f"{command}.{unread[0]} has no effect"
                          + (f" for {selector} {reader}" if selector else ""))
    if reader == "free":
        # the free case's own defaults, overlaid with every key given
        cfg["ehrenfest"] = {**_EHRENFEST_FREE,
                            **{key: cfg["ehrenfest"][key] for key in given}}
    if command == "report":
        # report runs every experiment on its own fixed inputs
        for section, table in user.items():
            if section not in ("params", "report") and table:
                raise ConfigError(
                    f"report does not read {section}.{next(iter(table))}")
    return cfg, seed, out_dir, command


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg, seed, out_dir, command = _resolve(args)
        # an overflow, invalid operation or division by zero fails the run;
        # underflow does not, as evanescent tails underflow by design
        with np.errstate(over="raise", invalid="raise", divide="raise",
                         under="ignore"):
            lines, files = _COMMANDS[command][0](cfg, seed)
        # the one place that writes: only once the command has returned
        os.makedirs(out_dir, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(out_dir, name), "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: config: cannot write {exc.filename or out_dir!r}: "
              f"{exc.strerror}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # library precondition failures triggered by bad parameter values
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except StepForceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"error: floating-point: {command}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_echo_config(command, cfg, seed, out_dir))
    for line in lines + [f"wrote {os.path.join(out_dir, name)}"
                         for name in files]:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
