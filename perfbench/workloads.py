"""The benchmark's workloads and layer probes, driven through public calls.

Every call into stepforce goes through a module attribute looked up at call
time (``regularized.route_b_sweep``, not a name imported once), so the
traced run sees the wrappers that ``tracing.Tracer`` installs there.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

from stepforce import cli, force, modes, regularized, reporting, timeevo
from stepforce.core import GridSpec, PhysicalParams, RegularizedPotential

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_DIR = os.path.join(HERE, "oracle")

THEORIES = ("s", "kfg", "dirac")
ROUTE_B_V0 = 0.5
# The report's seven route-B width sweeps: (theory, energy, shape).
ROUTE_B_SWEEPS = (
    ("s", 1.0, "logistic"), ("s", 1.0, "erf"),
    ("kfg", 2.0, "logistic"), ("kfg", 2.0, "erf"), ("kfg", 2.0, "ramp"),
    ("dirac", 2.0, "logistic"), ("dirac", 2.0, "erf"),
)
# rng.uniform draws random_mode makes per rejection-sampling attempt.
DRAWS_PER_ATTEMPT = {"s": 2, "kfg": 3, "dirac": 3}
# Sharp ops whose draws define the repeatable counters (100 per theory).
SHARP_COUNTER_OPS = 300


def load_oracle() -> tuple:
    with open(os.path.join(ORACLE_DIR, "oracle.json")) as fh:
        oracle = json.load(fh)
    with open(os.path.join(ORACLE_DIR, "report_seed0.json")) as fh:
        bundle = json.load(fh)
    return oracle, bundle


class CountingRng:
    """Generator proxy that counts the uniform draws random_mode makes."""

    def __init__(self, seed: int):
        self._gen = np.random.default_rng(seed)
        self.calls = 0

    def uniform(self, low=0.0, high=1.0, size=None):
        self.calls += 1
        return self._gen.uniform(low, high, size)


# ---------------------------------------------------------------------------
# workloads: setup builds the inputs, op(i) is the timed call, check(i, r)
# lists what is wrong with its result, work(r) counts its units of work
# ---------------------------------------------------------------------------

class Report:
    name = "report"
    pass_len = 1
    work_unit = "passes"
    tail_cap = 90.0
    counter_ops = 1
    probes = ("evolve", "sharp")
    reference = "crank_nicolson"

    def __init__(self, seed: int, oracle: dict, oracle_bundle: dict):
        self.seed = seed
        self.oracle = oracle
        self.oracle_bundle = oracle_bundle
        self.above_unscaled = 0

    def op(self, i: int) -> str:
        return reporting.dumps_json(
            cli.run_report(cli.load_config(None), self.seed))

    def check(self, i: int, text: str) -> list:
        if self.seed == 0:
            return stats.check_report(text, 0, self.oracle, self.oracle_bundle)
        bundle = json.loads(text)
        problems, scales = self.redraw_sweeps(bundle)
        return problems + stats.check_report(
            text, self.seed, self.oracle, self.oracle_bundle, scales)

    def redraw_sweeps(self, bundle: dict) -> tuple:
        """Redraw the report's random sweeps and check every draw.

        The report keeps only worst residuals.  Its draws come from
        default_rng(seed), n_draws per theory in theory order, so they are
        redrawn here, each checked like a sharp op, and the largest
        amplitude scale per theory bounds the report's worst values.
        """
        sharp = Sharp(self.seed)
        problems, scales = [], {}
        for theory in THEORIES:
            block = bundle["random_sweeps"][theory]
            regimes, scale = {}, 1.0
            for _ in range(block["n_draws"]):
                res = sharp.draw(theory)
                problems += sharp.check(0, res)
                regimes[res.mode.regime] = regimes.get(res.mode.regime, 0) + 1
                scale = max(scale, stats.amplitude_scale(abs(res.mode.r) ** 2))
            if regimes != block["regime_counts"]:
                problems.append(f"{theory} sweep regimes {block['regime_counts']}"
                                f" are not the redrawn {regimes}")
            scales[theory] = scale
        self.above_unscaled += sharp.above_unscaled
        return problems, scales

    def work(self, text: str) -> int:
        return 1

    def properties(self) -> dict:
        cfg = cli.load_config(None)
        grids = {}
        blocks = (("free", getattr(cli, "_EHRENFEST_FREE", None), 1.0),
                  ("scattering", cfg["ehrenfest"], 1.0),
                  ("scattering_half_dt", cfg["ehrenfest"], 0.5),
                  ("packet_rt", getattr(cli, "_RT_CASE", None), 1.0))
        for name, blk, dt_scale in blocks:
            if blk is None:
                continue
            dt = blk["dt"] * dt_scale
            stride = int(blk["save_stride"])
            steps = int(math.ceil(blk["t_final"] / dt - 1e-12))
            steps += (-steps) % stride
            grids[name] = {"n_points": int(blk["n_points"]), "dt": dt,
                           "cn_steps": steps, "saves": steps // stride + 1}
        return {"seed": self.seed, "n_random": cfg["report"]["n_random"],
                "packet_audits": grids,
                "draws_above_unscaled_criteria": self.above_unscaled}


class RouteB:
    name = "routeb"
    pass_len = len(ROUTE_B_SWEEPS)
    work_unit = "smooth solves"
    tail_cap = 90.0
    counter_ops = len(ROUTE_B_SWEEPS)
    probes = ("timeevo", "evolve", "jump", "sharp", "limits", "dumps")
    reference = "transfer"

    def __init__(self, seed: int, oracle: dict, oracle_bundle: dict):
        self.order = list(range(len(ROUTE_B_SWEEPS)))
        random.Random(seed).shuffle(self.order)
        self.records = oracle["route_b"]
        self.pars = PhysicalParams(v0=ROUTE_B_V0)

    def case(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def op(self, i: int):
        theory, energy, shape = ROUTE_B_SWEEPS[self.case(i)]
        return regularized.route_b_sweep(theory, energy, shape, ROUTE_B_V0,
                                         self.pars)

    def check(self, i: int, series) -> list:
        record = self.records[self.case(i)]
        if (series.theory, series.shape) != (record["theory"], record["shape"]):
            return [f"sweep answered {series.theory}/{series.shape}"]
        return stats.check_route_b(series.extrapolated, record)

    def work(self, series) -> int:
        return len(series.values)

    def properties(self) -> dict:
        segments = {}
        for theory, energy, shape in ROUTE_B_SWEEPS:
            counts = []
            for eps in regularized.DEFAULT_EPSILONS:
                reg = RegularizedPotential(v0=ROUTE_B_V0, eps=eps, shape=shape)
                model = regularized.build_piecewise_model(theory, energy, reg,
                                                          self.pars)
                counts.append(len(model.values))
            segments[f"{theory}/{shape}"] = counts
        return {"order": [ROUTE_B_SWEEPS[k] for k in self.order],
                "epsilons": list(regularized.DEFAULT_EPSILONS),
                "segments_per_width": segments}


class SharpResult:
    __slots__ = ("mode", "attempts", "probe", "terms", "delta", "closed",
                 "jump", "bc")


class Sharp:
    name = "sharp"
    pass_len = len(THEORIES)
    work_unit = "modes"
    tail_cap = 99.0
    counter_ops = SHARP_COUNTER_OPS
    probes = ("timeevo", "evolve", "routeb", "jump", "limits", "dumps")
    reference = "transfer"

    def __init__(self, seed: int, oracle: dict = None, oracle_bundle=None):
        self.rng = CountingRng(seed)
        self.pars = PhysicalParams(v0=ROUTE_B_V0)
        self.regimes = {t: {} for t in THEORIES}
        self.above_unscaled = 0

    def op(self, i: int) -> SharpResult:
        return self.draw(THEORIES[i % len(THEORIES)])

    def draw(self, theory: str) -> SharpResult:
        out = SharpResult()
        before = self.rng.calls
        mode = modes.random_mode(theory, self.rng, self.pars)
        out.attempts = (self.rng.calls - before) / DRAWS_PER_ATTEMPT[theory]
        out.mode = mode
        out.probe = force.interface_probe(mode)
        out.terms = force.boundary_terms(mode)
        out.delta = force.delta_conventions(mode)
        out.closed = force.mean_force_closed(mode)
        out.jump = out.bc = None
        if theory == "kfg":
            out.jump = force.kfg_density_jump(mode)
            out.bc = modes.bc_residuals(modes.fv_lift(mode), mode.params)
        return out

    def check(self, i: int, res: SharpResult) -> list:
        mode = res.mode
        counts = self.regimes[mode.theory]
        counts[mode.regime] = counts.get(mode.regime, 0) + 1
        problems, above_unscaled = criteria_problems(res)
        self.above_unscaled += above_unscaled
        return problems

    def work(self, res) -> int:
        return 1

    def counters(self, res) -> dict:
        return {"modes.draw_attempts": res.attempts,
                "modes.draws_accepted": 1}

    def properties(self) -> dict:
        return {"regime_counts": self.regimes,
                "draws_per_attempt": DRAWS_PER_ATTEMPT,
                "draws_above_unscaled_criteria": self.above_unscaled}


def criteria_problems(res: SharpResult) -> tuple:
    """Criteria 01-04 of the acceptance suite for one sharp-mode op.

    Returns the problems and whether any residual exceeded the criteria's
    own tolerance before ``stats.amplitude_scale`` widened it.
    """
    tol = stats.RESIDUAL_TOL
    mode, mp, rep = res.mode, res.mode.params, res.terms
    problems = []
    if res.attempts != int(res.attempts):
        problems.append(f"{res.attempts} attempts is not whole")
    if mode.theory == "dirac":
        cont = max(abs((1.0 + mode.r) - mode.t),
                   abs(mode.lam_left * (1.0 - mode.r) - mode.lam_right * mode.t))
        w_t = (abs(mode.t) ** 2 * mode.lam_right.real / mode.lam_left.real
               if mode.q.imag == 0.0 else 0.0)
    else:
        cont = max(abs((1.0 + mode.r) - mode.t),
                   abs(mode.k * (1.0 - mode.r) - mode.q * mode.t) / abs(mode.k))
        w_t = (abs(mode.t) ** 2 * (mode.q.real / mode.k.real)
               if mode.q.imag == 0.0 else 0.0)
    flux = abs(1.0 - abs(mode.r) ** 2 - w_t)
    checks = [("continuity", cont, tol), ("flux", flux, tol)]
    if mode.regime == "evanescent":
        checks.append(("evanescent |r|", abs(abs(mode.r) - 1.0), tol))
    scale = max(abs(rep.route_a), abs(rep.mass_term), abs(rep.potential_term),
                1.0)
    checks.append(("identity", abs(rep.identity_residual), tol * scale))
    if mode.theory == "kfg":
        probe = res.probe
        closed_jump = -(mp.v0 / mp.rest_energy) * abs(mode.psi0) ** 2
        jump_scale = max(abs(probe.rho_left), abs(probe.rho_right),
                         abs(closed_jump), 1.0)
        restated = (mp.v0 ** 2 / (2.0 * mp.rest_energy)) * abs(mode.psi0) ** 2
        kin_scale = (mp.hbar ** 2 / (2.0 * mp.mass)) * (1.0 + abs(mode.psix0) ** 2)
        checks += [
            ("bc residual", res.bc.max(), tol),
            ("density jump", abs((probe.rho_right - probe.rho_left)
                                 - closed_jump), tol * jump_scale),
            ("kfg_density_jump", abs(res.jump - closed_jump), tol * jump_scale),
            ("half-jump force", abs(res.closed - restated),
             tol * abs(restated)),
            ("midpoint", abs(rep.mass_term + mp.v0 * res.delta["midpoint"]),
             tol * max(abs(rep.mass_term), 1.0)),
            ("kinetic term", abs(rep.kinetic_term), tol * kin_scale),
        ]
    widen = stats.amplitude_scale(abs(mode.r) ** 2)
    above_unscaled = False
    for name, value, bound in checks:
        above_unscaled |= not value <= bound
        if not value <= bound * widen:
            problems.append(f"{mode.theory} {mode.regime} {name} "
                            f"{value:.3e} > {bound * widen:.3e}")
    return problems, above_unscaled


WORKLOADS = {w.name: w for w in (Report, RouteB, Sharp)}


# ---------------------------------------------------------------------------
# layer probes: fixed, small runs of the layers a workload does not reach,
# so that every traced run reports every per-layer metric
# ---------------------------------------------------------------------------

_FREE = dict(x0=-10.0, sigma=2.0, k0=1.0, grid=(-40.0, 40.0, 2001), reg=None,
             dt=1.0e-3, stride=40)
_SCATTER = dict(x0=-12.0, sigma=2.0, k0=1.0, grid=(-60.0, 44.0, 5201),
                reg=(0.5, 0.1), dt=4.0e-4, stride=100)
_RT = dict(x0=-25.0, sigma=5.0, k0=2.0, grid=(-95.0, 95.0, 9501),
           reg=(0.5, 0.1), dt=4.0e-4, stride=250)
PROBE_STEPS = 1000
PROBE_EVOLVE_STEPS = 500


def _packet(case: dict):
    spec = timeevo.PacketSpec(x0=case["x0"], sigma=case["sigma"],
                              k0=case["k0"], grid=GridSpec(*case["grid"]))
    reg = (None if case["reg"] is None else
           RegularizedPotential(v0=case["reg"][0], eps=case["reg"][1]))
    return spec, reg


def probe_timeevo(ctx):
    for case in (_FREE, _SCATTER, _RT):
        spec, reg = _packet(case)
        timeevo.ehrenfest_report(spec, reg, case["dt"],
                                 PROBE_STEPS * case["dt"], case["stride"])


def probe_evolve(ctx):
    for case in (_SCATTER, _RT):
        spec, reg = _packet(case)
        state = timeevo.gaussian_packet(spec, reg)
        timeevo.evolve(state, case["dt"], PROBE_EVOLVE_STEPS)


def probe_routeb(ctx):
    pars = PhysicalParams(v0=ROUTE_B_V0)
    for theory, energy, shape in ROUTE_B_SWEEPS:
        regularized.route_b_sweep(theory, energy, shape, ROUTE_B_V0, pars)


def probe_jump(ctx):
    pars = PhysicalParams(v0=ROUTE_B_V0)
    for eps in (0.01, 0.005, 0.0025):
        reg = RegularizedPotential(v0=ROUTE_B_V0, eps=eps, shape="logistic")
        regularized.smooth_jump_diagnostics(2.0, reg, pars, probe_offset=0.2)


def probe_sharp(ctx):
    sharp = Sharp(0)
    attempts = 0.0
    for i in range(SHARP_COUNTER_OPS):
        res = sharp.op(i)
        attempts += res.attempts
    ctx.count("modes.draw_attempts", attempts)
    ctx.count("modes.draws_accepted", SHARP_COUNTER_OPS)


def probe_limits(ctx):
    force.nonrel_residuals(0.1, (10.0, 100.0, 1000.0), PhysicalParams(v0=0.05))
    force.infinite_step_sweep(1.0, (10.0, 100.0, 1000.0))
    for eps in (0.004, 0.002, 0.001):
        reg = RegularizedPotential(v0=1.0e4, eps=eps, shape="logistic")
        force.weak_product_check(1.0, reg)


def probe_dumps(ctx):
    text = reporting.dumps_json(ctx.oracle_bundle)
    if stats.sha256_text(text) != ctx.oracle["report_seed0_sha256"]:
        raise AssertionError("dumps_json of the seed-0 bundle lost its bytes")


PROBES = {
    "timeevo": probe_timeevo, "evolve": probe_evolve, "routeb": probe_routeb,
    "jump": probe_jump, "sharp": probe_sharp, "limits": probe_limits,
    "dumps": probe_dumps,
}
