"""Mean force exerted by the step on a stationary scattering mode.

The force observable is minus the derivative of the potential, a delta
spike of weight -v0 at the interface, so its mean value in a mode is an
interface quantity.  This module evaluates it along two independent closed
routes:

* route A: the closed interface formula.  For the spin-0 theory the
  density itself jumps at the interface and the stationary equations assign
  the delta integral half the jump; for the other two theories the density
  is continuous and the formula is just -v0 times the interface density.
* route C: integrating the force density by parts against the stationary
  equations splits the mean force into kinetic, mass and potential boundary
  terms whose sum must cancel route A identically.

It also hosts the closed-form limit studies: the nonrelativistic reduction
of the spin-0 theory, the impenetrable-wall limit of the nonrelativistic
step, and the weak-star factorization of potential times wave that powers
the hard-wall boundary formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import PhysicalParams, RegularizedPotential
from .errors import (BelowThreshold, CrossCheckFailed, UndefinedAtOrigin,
                     UnresolvedWindow)
from .modes import (_TAU1, _TAU3, ScatterMode, _charge_weight,
                    _check_incidence, _plateau_k2, fv_lift, solve_step_mode)

__all__ = [
    "DensityProbe",
    "MeanForceReport",
    "NonrelRow",
    "InfiniteStepRow",
    "SweepReport",
    "WeakProductReport",
    "density",
    "interface_probe",
    "kfg_density_jump",
    "mean_force_closed",
    "boundary_terms",
    "delta_conventions",
    "nonrel_residuals",
    "infinite_step_sweep",
    "weak_product_check",
]


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def density(mode: ScatterMode, x: float) -> float:
    """Charge density (E - phi)/mc^2 |u|^2 of a spin-0 mode at x; it jumps
    with phi, so it is two-valued at x = 0."""
    if mode.theory != "kfg":
        raise ValueError("the charge density is specific to the spin-0 theory")
    if x == 0.0:
        raise UndefinedAtOrigin(
            "density is two-valued at the interface; probe 0- or 0+ "
            "via interface_probe")
    phi = mode.params.v0 if x > 0 else 0.0
    return _charge_weight(mode.energy, phi, mode.params) * abs(mode.u(x)) ** 2


@dataclass(frozen=True)
class DensityProbe:
    """One-sided interface values of density and current."""

    theory: str
    rho_left: float
    rho_right: float
    current_left: float
    current_right: float

    @property
    def density_jump(self) -> float:
        return self.rho_right - self.rho_left


def _quad(vec: np.ndarray, m: np.ndarray) -> float:
    """Real part of the form conj(vec) . (m vec)."""
    return float(np.real(np.conj(vec) @ (m @ vec)))


def _dirac_sides(mode: ScatterMode) -> tuple[np.ndarray, np.ndarray]:
    """The spin-1/2 mode's one-sided interface spinors psi(0-), psi(0+)."""
    return (np.array([1.0 + mode.r, mode.lam_left * (1.0 - mode.r)],
                     dtype=complex),
            mode.t * np.array([1.0, mode.lam_right], dtype=complex))


def interface_probe(mode: ScatterMode) -> DensityProbe:
    """Limits of density and current from both sides of the interface."""
    p = mode.params
    if mode.theory == "dirac":
        psi_l, psi_r = _dirac_sides(mode)
        rho_l = float(np.real(np.vdot(psi_l, psi_l)))
        rho_r = float(np.real(np.vdot(psi_r, psi_r)))
        j_l = p.c * _quad(psi_l, _TAU1)     # the Dirac alpha
        j_r = p.c * _quad(psi_r, _TAU1)
        return DensityProbe("dirac", rho_l, rho_r, j_l, j_r)

    u0 = mode.psi0
    cur = p.hbar / p.mass
    j_l = cur * float(np.imag(np.conj(u0) * mode.psix0))
    j_r = cur * float(np.imag(np.conj(u0) * (1j * mode.q * mode.t)))
    rho = abs(u0) ** 2
    if mode.theory == "s":
        return DensityProbe("s", rho, rho, j_l, j_r)
    return DensityProbe("kfg", _charge_weight(mode.energy, 0.0, p) * rho,
                        _charge_weight(mode.energy, p.v0, p) * rho, j_l, j_r)


def kfg_density_jump(mode: ScatterMode) -> float:
    """rho(0+) - rho(0-) for the spin-0 mode: equals -(v0/mc^2)|psi(0)|^2.

    Both expressions are evaluated and compared; a disagreement beyond
    rounding means the mode data is corrupt, so it raises instead of
    returning silently.
    """
    if mode.theory != "kfg":
        raise ValueError("density jump is specific to the spin-0 theory")
    probe = interface_probe(mode)
    jump = probe.density_jump
    p = mode.params
    closed = -(p.v0 / p.rest_energy) * abs(mode.psi0) ** 2
    # the jump is a difference of one-sided densities, so its rounding
    # floor is set by their size, not by the (possibly tiny) jump itself
    scale = max(abs(jump), abs(closed),
                abs(probe.rho_left), abs(probe.rho_right), 1e-300)
    if abs(jump - closed) > 1e-12 * scale:
        raise CrossCheckFailed(
            f"density jump rho(0+) - rho(0-) = {jump!r} vs "
            f"-(v0/mc^2)|psi(0)|^2 = {closed!r}: difference "
            f"{abs(jump - closed):.3e} exceeds 1e-12 * {scale:.3e}")
    return jump


# ---------------------------------------------------------------------------
# route A: closed interface formulas
# ---------------------------------------------------------------------------

def mean_force_closed(mode: ScatterMode) -> float:
    """Mean force on the mode from the closed interface formula (route A).

    For the spin-0 theory the half-jump form and its one-component
    restatement +(v0^2/2mc^2)|psi(0)|^2 are both computed and must agree to
    rounding; the other theories use -v0 times the (continuous) interface
    density.
    """
    p = mode.params
    v0 = p.v0
    probe = interface_probe(mode)
    if mode.theory == "kfg":
        value = -0.5 * v0 * kfg_density_jump(mode)
        restated = (v0**2 / (2.0 * p.rest_energy)) * abs(mode.psi0) ** 2
        # rounding floor of the half-jump form: half v0 times the size of
        # the densities it subtracts
        floor = 0.5 * v0 * max(abs(probe.rho_left), abs(probe.rho_right))
        scale = max(abs(value), abs(restated), floor, 1e-300)
        if abs(value - restated) > 1e-12 * scale:
            raise CrossCheckFailed(
                f"half-jump force -(v0/2)(rho(0+) - rho(0-)) = {value!r} vs "
                f"(v0^2/2mc^2)|psi(0)|^2 = {restated!r}: difference "
                f"{abs(value - restated):.3e} exceeds 1e-12 * {scale:.3e}")
        return value
    return -v0 * probe.rho_left


# ---------------------------------------------------------------------------
# route C: boundary-term decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanForceReport:
    """Boundary-term split of the mean force.

    ``kinetic_term``, ``mass_term`` and ``potential_term`` are the interface
    jumps of the respective pieces of the energy-momentum bookkeeping;
    ``route_a`` is the closed formula.  The four must sum to zero:
    ``identity_residual`` collects the failure.  ``delta_integral`` records
    the candidate values a delta spike at the interface can be assigned
    against this mode's density (see :func:`delta_conventions`).
    """

    theory: str
    energy: float
    v0: float
    route_a: float
    kinetic_term: float
    mass_term: float
    potential_term: float
    delta_integral: dict

    @property
    def identity_residual(self) -> float:
        return (self.route_a + self.kinetic_term + self.mass_term
                + self.potential_term)


def boundary_terms(mode: ScatterMode) -> MeanForceReport:
    """Split the mean force into its interface boundary terms (route C).

    For ``s`` and ``kfg`` u' is continuous at a sharp step, so the kinetic
    term is zero up to rounding and the identity checks the mass and
    potential terms alone."""
    p = mode.params
    v0 = p.v0
    delta = delta_conventions(mode)
    if mode.theory == "s":
        ux_l = mode.psix0
        ux_r = 1j * mode.q * mode.t
        kin = -(p.hbar**2 / (2.0 * p.mass)) * (abs(ux_r) ** 2 - abs(ux_l) ** 2)
        pot = v0 * abs(mode.t) ** 2
        return MeanForceReport("s", mode.energy, v0, mean_force_closed(mode),
                               float(kin), 0.0, float(pot), delta)

    if mode.theory == "kfg":
        b = fv_lift(mode)
        one_plus_tau1 = np.eye(2) + _TAU1
        kin = -(p.hbar**2 / (2.0 * p.mass)) * (
            _quad(b.Psix_right, one_plus_tau1)
            - _quad(b.Psix_left, one_plus_tau1))
        mass = p.rest_energy * (
            float(np.real(np.vdot(b.Psi_right, b.Psi_right)))
            - float(np.real(np.vdot(b.Psi_left, b.Psi_left))))
        rho_r = _quad(b.Psi_right, _TAU3)
        rho_l = _quad(b.Psi_left, _TAU3)
        pot = v0 * rho_r
        route_a = -0.5 * v0 * (rho_r - rho_l)
        return MeanForceReport("kfg", mode.energy, v0, float(route_a),
                               float(kin), float(mass), float(pot), delta)

    psi_l, psi_r = _dirac_sides(mode)
    mass = p.rest_energy * (_quad(psi_r, _TAU3) - _quad(psi_l, _TAU3))
    pot = v0 * float(np.real(np.vdot(psi_r, psi_r)))
    return MeanForceReport("dirac", mode.energy, v0, mean_force_closed(mode),
                           0.0, mass, pot, delta)


# ---------------------------------------------------------------------------
# delta-function conventions at a discontinuous density
# ---------------------------------------------------------------------------

def delta_conventions(mode: ScatterMode) -> dict:
    """Candidate values of the delta integral against the mode's density.

    Returns the value each convention assigns to the integral of
    delta(x) rho(x): the two one-sided picks, the midpoint average, and the
    half-jump that the stationary two-component algebra extracts.  For
    continuous densities the first three coincide and the half-jump is zero.
    """
    probe = interface_probe(mode)
    return {
        "left_value": probe.rho_left,
        "right_value": probe.rho_right,
        "midpoint": 0.5 * (probe.rho_left + probe.rho_right),
        "half_jump": 0.5 * (probe.rho_right - probe.rho_left),
    }


# ---------------------------------------------------------------------------
# nonrelativistic reduction of the spin-0 theory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonrelRow:
    """Spin-0 vs nonrelativistic comparison at one light speed."""

    c: float
    residual_density: float
    residual_force: float
    tag: str


@dataclass(frozen=True)
class SweepReport:
    """The rows of a limit sweep and the log-log slope fitted through the
    residual of its computed rows."""

    rows: tuple
    slope: float


_NONREL_PROBES = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def _log_pair(quantity: str, var: str, x: float, y: float) -> tuple:
    """(log x, log y) of one sweep row; ValueError naming y if it is 0."""
    if y == 0.0:
        raise ValueError(f"the {quantity} at {var} = {x!r} rounds to 0, so "
                         f"it has no logarithm; the sweep goes past double "
                         f"precision")
    return math.log(x), math.log(y)


def _loglog_slope(logs: list) -> float:
    """Least-squares slope through (log x, log y) pairs; nan below two."""
    if len(logs) < 2:
        return math.nan
    xs, ys = np.array(logs).T
    return float(np.polyfit(xs, ys, 1)[0])


def nonrel_residuals(energy_nr: float, c_list=(10.0, 100.0, 1000.0),
                     params: PhysicalParams | None = None) -> SweepReport:
    """Compare spin-0 modes at kinetic energy ``energy_nr`` against the
    nonrelativistic mode as the light speed grows.

    ``params`` supplies hbar, mass and the step height; its light speed is
    replaced by each entry of ``c_list`` in turn.  The density residual
    compares rho_kfg against (1 - phi/mc^2) |psi_s|^2 at a fixed set of
    probes plus both interface sides; the force residual compares the
    spin-0 mean force against its leading nonrelativistic form
    (v0^2 / 2mc^2) |psi_s(0)|^2.  Both must fall off like 1/c^2: the report
    fits the force-residual slope in log-log.  A positive ``energy_nr``
    that mc^2 + energy_nr rounds away raises ValueError.
    """
    if energy_nr <= 0.0:
        # checked apart from E = mc^2 + E_nr, which can round E_nr away
        raise BelowThreshold(f"incidence needs E > mc^2, that is E_nr > 0, "
                             f"got E_nr = {energy_nr}")
    if params is None:
        params = PhysicalParams(v0=0.05)
    mass, v0 = params.mass, params.v0
    rows = []
    logs = []
    for c in c_list:
        pars = replace(params, c=c)
        mc2 = pars.rest_energy
        # a row tagged below still names a spin-0 energy, which must give a
        # finite k^2 like every computed one
        for phi in (0.0, v0):
            _plateau_k2("kfg", mc2 + energy_nr, phi, pars)
        if mc2 + energy_nr == mc2:
            raise ValueError(
                f"the spin-0 energy mc^2 + E_nr rounds to mc^2 = {mc2!r} at "
                f"E_nr = {energy_nr!r} and c = {c!r}; E_nr is below the "
                f"precision of the sum")
        if energy_nr >= mc2:
            rows.append(NonrelRow(c, math.nan, math.nan, "not-nonrelativistic"))
            continue
        mode_k = solve_step_mode("kfg", mc2 + energy_nr, pars)
        mode_s = solve_step_mode("s", energy_nr, pars)

        dens_resid = 0.0
        for x in _NONREL_PROBES:
            phi = v0 if x > 0 else 0.0
            ref = (1.0 - phi / mc2) * abs(mode_s.u(x)) ** 2
            dens_resid = max(dens_resid,
                             abs(density(mode_k, x) - ref) / abs(ref))
        probe_k = interface_probe(mode_k)
        rho_s0 = abs(mode_s.psi0) ** 2
        for got, phi in ((probe_k.rho_left, 0.0), (probe_k.rho_right, v0)):
            ref = (1.0 - phi / mc2) * rho_s0
            dens_resid = max(dens_resid, abs(got - ref) / abs(ref))

        force_k = mean_force_closed(mode_k)
        if v0 == 0.0:
            rows.append(NonrelRow(c, float(dens_resid), 0.0, "degenerate"))
            continue
        if force_k == 0.0:
            raise ValueError(f"the spin-0 force underflows to 0 at v0 = "
                             f"{v0!r} and c = {c!r}")
        leading = (v0**2 / (2.0 * mass * c**2)) * rho_s0
        force_resid = abs(force_k - leading) / abs(force_k)
        rows.append(NonrelRow(c, float(dens_resid), float(force_resid), "ok"))
        logs.append(_log_pair("force residual", "c", c, force_resid))
    return SweepReport(rows=tuple(rows), slope=_loglog_slope(logs))


# ---------------------------------------------------------------------------
# impenetrable-wall limit of the nonrelativistic step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InfiniteStepRow:
    """One height in the hard-wall sweep of the nonrelativistic step."""

    v0: float
    route_a: float
    wall_value: float
    candidate: float
    candidate_error: float
    tag: str


def infinite_step_sweep(energy: float, v0_list,
                        params: PhysicalParams | None = None) -> SweepReport:
    """Push the nonrelativistic step height to the hard-wall regime.

    For every height above the energy the closed mean force equals the
    hard-wall value -2 hbar^2 k^2 / m exactly; the naive candidate built
    from the one-sided slope, -(hbar^2/2m)|psi'(0-)|^2, misses it by a
    relative error that decays like 1/v0.  Heights at or below the energy
    are tagged and skipped.  ``params`` supplies hbar and mass; its step
    height is replaced by each entry of ``v0_list`` in turn.
    """
    if params is None:
        params = PhysicalParams()
    hbar, mass = params.hbar, params.mass
    _check_incidence("s", energy, params)
    _plateau_k2("s", energy, 0.0, params)
    k = math.sqrt(2.0 * mass * energy) / hbar
    wall = -2.0 * hbar**2 * k**2 / mass
    rows = []
    logs = []
    for v0 in v0_list:
        if v0 <= energy:
            rows.append(InfiniteStepRow(v0, math.nan, wall, math.nan,
                                        math.nan, "rejected"))
            continue
        pars = replace(params, v0=float(v0))
        mode = solve_step_mode("s", energy, pars)
        route_a = mean_force_closed(mode)
        candidate = -(hbar**2 / (2.0 * mass)) * abs(mode.psix0) ** 2
        err = abs(candidate - wall) / abs(wall)
        rows.append(InfiniteStepRow(float(v0), route_a, wall,
                                    float(candidate), float(err), "ok"))
        logs.append(_log_pair("candidate error", "v0", v0, err))
    return SweepReport(rows=tuple(rows), slope=_loglog_slope(logs))


# ---------------------------------------------------------------------------
# weak-star product underlying the hard-wall formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakProductReport:
    """Windowed integral of potential times smooth mode vs its weak limit."""

    integral: complex
    deviation: float
    window: float


def weak_product_check(energy: float, reg: RegularizedPotential,
                       params: PhysicalParams | None = None
                       ) -> WeakProductReport:
    """Check the windowed product of potential and mode against its limit.

    In the hard-wall regime the product phi_eps * psi_eps concentrates at
    the interface with total weight -(hbar^2/2m) psi'(0-) of the sharp hard
    wall (integrate the stationary equation over the window: the energy term
    is O(window^2) because psi vanishes at the wall, the right-edge slope is
    dead, only the left-edge slope survives).  The window is 0.1/k, small
    against the wavelength so the sharp-side lobe of psi does not re-enter
    the integral; a smoothing width it does not exceed raises
    ``UnresolvedWindow``, and more than 10^6 quadrature panels (2 window
    over the panel width, which grows without bound as E -> 0) ``ValueError``.
    ``params`` supplies hbar and mass; the step height is that of ``reg``.
    """
    from .regularized import (_MAX_SEGMENTS, _gl_panels, _running_sum,
                              build_piecewise_model, solve_smooth_mode)

    if params is None:
        params = PhysicalParams()
    _check_incidence("s", energy, params)
    hbar, mass, v0 = params.hbar, params.mass, reg.v0
    if not v0 >= 100.0 * energy:
        raise ValueError(
            f"weak-product regime needs v0/energy >= 100; got {v0 / energy:g}")
    k = math.sqrt(2.0 * mass * energy) / hbar
    window = 0.1 / k
    if window <= reg.eps:
        raise UnresolvedWindow(
            f"window {window} does not clear the smoothing width {reg.eps}")

    kappa = math.sqrt(2.0 * mass * (v0 - energy)) / hbar
    width = min(reg.eps, 0.25 / kappa)
    needed = 2.0 * window / width
    if not needed <= _MAX_SEGMENTS:
        raise ValueError(
            f"the quadrature needs {needed:.3g} panels at energy {energy!r}; "
            f"the bound is {_MAX_SEGMENTS:.0e}")
    pars = replace(params, v0=v0)
    nm = solve_smooth_mode(build_piecewise_model("s", energy, reg, pars))
    x, weights = _gl_panels(window, width, 16, 10)
    u, _ = nm.eval_scalar(x)
    total = _running_sum(weights * reg.eval(x) * u, 0.0j)

    sharp = solve_step_mode("s", energy, pars)
    target = -(hbar**2 / (2.0 * mass)) * sharp.psix0
    deviation = abs(total - target) / abs(target)
    return WeakProductReport(integral=complex(total),
                             deviation=float(deviation), window=float(window))
