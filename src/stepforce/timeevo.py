"""Time-dependent cross-check of the stationary force formulas.

A Gaussian packet is propagated through the smoothed step with a
Crank-Nicolson scheme (unconditionally stable, norm preserving, second
order in the time step), and the momentum balance

    d<p>/dt = <-phi'(x)>

is monitored along the trajectory.  With the smoothing resolved by the
grid, every deviation term scales like the square of the time step when
the save interval is a fixed multiple of it, so halving the step must cut
the worst deviation by about four: that scaling, not just the size of the
deviation, is what the checks assert.

The final packet also yields reflection and transmission weights that are
compared against stationary probabilities at the carrier momentum.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .core import GridSpec, PhysicalParams, RegularizedPotential
from .errors import BoxTooSmall, UnderResolved
from .modes import solve_step_mode

__all__ = [
    "PacketSpec",
    "EvolutionState",
    "EhrenfestReport",
    "gaussian_packet",
    "evolve",
    "expectation_momentum",
    "expectation_position",
    "expectation_force",
    "ehrenfest_report",
    "packet_rt",
    "compare_packet_rt",
]

# the amplitude next to a hard wall past which an evolution aborts
_WALL_TOL = 1e-6
# far above the report's 9,501 points; complex arrays of 16 MB at the bound
_MAX_POINTS = 10**6
# far above the report's audits, of at most 100,000 steps
_MAX_STEPS = 10**7


@dataclass(frozen=True)
class PacketSpec:
    """Initial Gaussian wave packet and the box it lives in.

    The grid has at most _MAX_POINTS points, the packet starts clear of the
    interface (|x0| >= 5 sigma), the box holds its initial tails with room,
    and dx resolves the packet (dx <= sigma/4) and its carrier (|k0| dx <
    pi); the wall guard enforces travel room during evolution.
    """

    x0: float
    sigma: float
    k0: float
    grid: GridSpec

    def __post_init__(self):
        if self.grid.n_points > _MAX_POINTS:
            raise ValueError(f"the packet grid has {self.grid.n_points} "
                             f"points; the bound is {_MAX_POINTS:.0e}")
        if self.sigma <= 0.0:
            raise ValueError(f"packet width must be positive, got {self.sigma}")
        if abs(self.x0) < 5.0 * self.sigma:
            raise ValueError(
                f"packet center {self.x0} sits on the interface; "
                f"need |x0| >= 5*sigma = {5.0 * self.sigma}")
        if (self.grid.x_min > self.x0 - 10.0 * self.sigma
                or self.grid.x_max < max(self.x0, 0.0) + 10.0 * self.sigma):
            raise BoxTooSmall(
                f"grid [{self.grid.x_min}, {self.grid.x_max}] too tight for "
                f"a packet at {self.x0} of width {self.sigma}")
        if self.grid.dx > self.sigma / 4.0:
            raise UnderResolved(
                f"grid spacing {self.grid.dx} does not resolve the packet "
                f"width {self.sigma}; need dx <= sigma/4 = {self.sigma / 4.0}")
        if not abs(self.k0) * self.grid.dx < math.pi:      # NaN fails too
            raise UnderResolved(
                f"grid spacing {self.grid.dx} does not resolve the carrier "
                f"k0 = {self.k0}; need |k0| < pi/dx = {math.pi / self.grid.dx}")


@dataclass(frozen=True)
class EvolutionState:
    """Wave function snapshot on its grid, plus the evolution ingredients:
    the potential and the constants (only hbar and mass enter)."""

    x: np.ndarray
    psi: np.ndarray
    t: float
    reg: RegularizedPotential | None = None
    params: PhysicalParams = PhysicalParams()

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def norm(self) -> float:
        return float(np.trapezoid(np.abs(self.psi) ** 2, self.x))

    def wall_amplitude(self) -> float:
        return float(max(abs(self.psi[1]), abs(self.psi[-2])))


def gaussian_packet(spec: PacketSpec, reg: RegularizedPotential | None = None,
                    params: PhysicalParams | None = None) -> EvolutionState:
    """Normalized Gaussian packet at t = 0 on the grid of ``spec``."""
    x = np.linspace(spec.grid.x_min, spec.grid.x_max, spec.grid.n_points)
    psi = np.exp(-((x - spec.x0) ** 2) / (4.0 * spec.sigma**2)
                 + 1j * spec.k0 * x)
    psi[0] = 0.0
    psi[-1] = 0.0
    norm = math.sqrt(float(np.trapezoid(np.abs(psi) ** 2, x)))
    return EvolutionState(x=x, psi=psi / norm, t=0.0, reg=reg,
                          params=params or PhysicalParams())


def _derivative_4th(psi: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative with the hard-wall (zero) padding."""
    padded = np.concatenate([[0.0, 0.0], psi, [0.0, 0.0]])
    return (-padded[4:] + 8.0 * padded[3:-1]
            - 8.0 * padded[1:-3] + padded[:-4]) / (12.0 * h)


def _momentum_integral(state: EvolutionState) -> complex:
    integrand = np.conj(state.psi) * _derivative_4th(state.psi, state.dx)
    return complex(-1j * state.params.hbar * np.trapezoid(integrand, state.x))


def expectation_momentum(state: EvolutionState) -> float:
    return float(_momentum_integral(state).real)


def expectation_position(state: EvolutionState) -> float:
    return float(np.trapezoid(state.x * np.abs(state.psi) ** 2, state.x))


def expectation_force(state: EvolutionState) -> float:
    """Mean of the force density -phi'(x) in the current packet."""
    if state.reg is None:
        return 0.0
    dphi = state.reg.deriv(state.x)
    return float(-np.trapezoid(dphi * np.abs(state.psi) ** 2, state.x))


def _check_smoothing(state: EvolutionState):
    """UnderResolved unless the state's grid resolves the smoothing width
    of its step, eps >= 4 h."""
    if state.reg is not None and state.reg.eps < 4.0 * state.dx:
        raise UnderResolved(
            f"grid spacing {state.dx} does not resolve the smoothing width "
            f"{state.reg.eps}; need eps >= 4*h")


def _cn_arrays(state: EvolutionState, dt: float):
    """Factored Crank-Nicolson matrix for the state's grid and potential.

    The matrix is constant over a run, so it is LU-factored once here
    (LAPACK ``zgttrf``) and every step only back-substitutes.  Returns the
    factors, the interior diagonal of the explicit half-step and the
    off-diagonal coupling.  dt must resolve both the kinetic scale,
    dt <= m h^2/hbar, and the potential's phase per step,
    dt <= hbar/max|phi|; dt/(2 hbar) must be finite and hbar^2/(m h^2) a
    positive normal double.
    """
    x = state.x
    h = state.dx
    n = len(x)
    hbar, mass = state.params.hbar, state.params.mass
    bound = mass * h * h / hbar
    if dt > bound * (1.0 + 1e-12):
        raise UnderResolved(
            f"time step {dt} exceeds the resolution bound {bound}")
    _check_smoothing(state)
    phi = np.zeros(n) if state.reg is None else state.reg.eval(x)
    phi_max = float(np.max(np.abs(phi)))
    if dt * phi_max > hbar:
        raise UnderResolved(
            f"time step {dt} exceeds the potential's phase bound "
            f"hbar/max|phi| = {hbar / phi_max}")

    # alpha's scale and kin are refused before alpha (kin + phi) is
    # formed, where inf * 0 is NaN (a NaN dt is the matrix check's)
    scale = dt / (2.0 * hbar)
    if math.isinf(scale):
        raise ValueError(f"the Crank-Nicolson phase scale dt/(2 hbar) = "
                         f"{scale!r} at dt {dt!r} and hbar {hbar!r} is not "
                         f"finite")
    try:
        kin = hbar**2 / (mass * h * h)
    except OverflowError:           # hbar**2 leaves the doubles
        kin = math.inf
    if not sys.float_info.min <= kin < math.inf:
        raise ValueError(f"the kinetic coefficient hbar^2/(m h^2) = {kin!r} "
                         f"at hbar {hbar!r}, mass {mass!r} and h {h!r} is "
                         f"not a positive normal double")
    alpha = 1j * dt / (2.0 * hbar)
    off = alpha * (-(hbar**2) / (2.0 * mass * h * h))
    diag_a = 1.0 + alpha * (kin + phi)
    diag_b = 1.0 - alpha * (kin + phi)
    upper = np.full(n - 1, off, dtype=complex)
    lower = np.full(n - 1, off, dtype=complex)
    # hard walls: identity edge rows clamp the edge values
    diag_a[0] = 1.0
    diag_a[-1] = 1.0
    upper[0] = 0.0
    lower[-1] = 0.0
    if not (np.isfinite(diag_a).all() and np.isfinite(off)):
        raise ValueError(
            f"Crank-Nicolson matrix is not finite (dt = {dt}, h = {h})")
    # LAPACK loads with the first packet, not with the package
    from scipy.linalg.lapack import zgttrf

    *factors, info = zgttrf(lower, diag_a, upper)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"Crank-Nicolson matrix is singular at row {info}")
    return factors, diag_b[1:-1], off


def _cn_steps(state: EvolutionState, dt: float,
              n_steps: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (step, psi) after each of n_steps Crank-Nicolson steps.

    The steps take two (n, 1) buffers in turn: each builds the explicit
    half-step in one and ``zgttrs`` solves there in place.  A yielded psi
    is a view of its buffer, valid until the next-but-one step overwrites
    it; a caller that keeps psi must copy it.  Raises ``ValueError`` as
    soon as a step leaves psi not finite, and ``BoxTooSmall`` as soon as
    one leaves more than _WALL_TOL of amplitude next to a wall.
    """
    from scipy.linalg.lapack import zgttrs

    factors, diag_b, off = _cn_arrays(state, dt)
    # per buffer: the rhs, its column (the solved psi), the column's
    # interior and its left and right neighbours; the edge rows stay 0,
    # as the identity edge rows solve 0 to 0
    buffers = [(rhs, rhs[:, 0], rhs[1:-1, 0], rhs[:-2, 0], rhs[2:, 0])
               for rhs in np.zeros((2, len(state.psi), 1), dtype=complex)]
    pair = np.empty(len(state.psi) - 2, dtype=complex)
    mid, left, right = state.psi[1:-1], state.psi[:-2], state.psi[2:]
    for step in range(1, n_steps + 1):
        t = state.t + step * dt
        rhs, psi, inner, below, above = buffers[step & 1]
        np.multiply(diag_b, mid, out=inner)
        np.add(left, right, out=pair)
        pair *= off
        inner -= pair
        # rhs is Fortran-contiguous complex128, so f2py hands LAPACK the
        # buffer itself and the solution overwrites it
        zgttrs(*factors, rhs, overwrite_b=1)
        # a non-finite rhs entry spreads through both sweeps to every
        # interior point, the two next to the walls included; each is
        # tested alone, as max() drops a NaN in its second argument
        a1, a2 = abs(psi[1]), abs(psi[-2])
        if not (math.isfinite(a1) and math.isfinite(a2)):
            raise ValueError(f"wave function is not finite at t = {t:g}")
        amp = max(a1, a2)
        if amp > _WALL_TOL:
            raise BoxTooSmall(
                f"wall amplitude {amp:.3e} exceeds {_WALL_TOL} at t = {t:g}")
        yield step, psi
        mid, left, right = inner, below, above


def evolve(state: EvolutionState, dt: float, n_steps: int) -> EvolutionState:
    """Advance the state by n_steps Crank-Nicolson steps.

    Aborts if the wave function climbs the hard walls above _WALL_TOL:
    Dirichlet walls reflect silently, so contamination must be fatal.
    """
    if dt <= 0.0:
        raise ValueError(f"time step must be positive, got {dt}")
    if n_steps < 0:
        raise ValueError(f"step count must be non-negative, got {n_steps}")
    if n_steps > _MAX_STEPS:
        raise ValueError(f"{n_steps} steps exceed the bound {_MAX_STEPS:.0e}")
    psi = state.psi
    for _, psi in _cn_steps(state, dt, n_steps):
        pass
    return replace(state, psi=psi.copy(), t=state.t + n_steps * dt)


@dataclass(frozen=True)
class EhrenfestReport:
    """Observable series of one propagation plus the momentum-balance audit.

    ``dpdt`` holds centered differences of the momentum series at the save
    times (nan at the ends); ``max_deviation`` is the worst interior
    |dpdt - force|, and ``max_deviation_rel`` divides it by the force peak,
    or equals it when the force is identically zero (no step).
    """

    times: np.ndarray
    momenta: np.ndarray
    forces: np.ndarray
    norms: np.ndarray
    dpdt: np.ndarray
    max_deviation: float
    max_deviation_rel: float
    norm_drift: float
    wall_amplitude: float
    dt: float
    save_stride: int
    final_state: EvolutionState

    def rows(self):
        """(t, momentum, dpdt, force, norm) tuples for tabular output."""
        return zip(*(a.tolist() for a in (self.times, self.momenta, self.dpdt,
                                           self.forces, self.norms)))


def ehrenfest_report(spec: PacketSpec, reg: RegularizedPotential | None,
                     dt: float, t_final: float, save_stride: int = 50,
                     params: PhysicalParams | None = None,
                     checkpoint: Callable[[int], None] | None = None,
                     ) -> EhrenfestReport:
    """Propagate the packet and audit the momentum balance along the way.

    dp/dt is a central difference of the saved momenta, so a run of fewer
    than 3 saves, which audits no point, raises ValueError before it steps.
    ``checkpoint``, if given, is called after each save but the last with
    the work still to go, grid points times steps left: a point where a
    scheduler may pause the audit.  It does not change the result."""
    if save_stride < 1:
        raise ValueError(f"save_stride must be at least 1, got {save_stride}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"time step must be positive and finite, got {dt}")
    if not 0.0 < t_final < math.inf:
        raise ValueError(
            f"final time must be positive and finite, got {t_final}")
    if not t_final / dt <= _MAX_STEPS:
        raise ValueError(f"t_final = {t_final!r} and dt = {dt!r} take more "
                         f"than {_MAX_STEPS:.0e} steps")
    n_steps = int(math.ceil(t_final / dt - 1e-12))
    n_steps += (-n_steps) % save_stride
    saves = n_steps // save_stride + 1
    if saves < 3:
        raise ValueError(
            f"the audit needs at least 3 saves, got {saves} from t_final = "
            f"{t_final!r}, dt = {dt!r} and save_stride = {save_stride}")
    state = gaussian_packet(spec, reg, params)

    # expectation_force and norm with phi' once per run, |psi|^2 once a save;
    # phi' only on a grid that resolves it, as unresolved it can overflow
    rows, x = [], state.x
    _check_smoothing(state)
    dphi = None if reg is None else reg.deriv(x)

    def record(cur: EvolutionState):    # one row a save
        rho = np.abs(cur.psi) ** 2
        force = 0.0 if dphi is None else float(-np.trapezoid(dphi * rho, x))
        rows.append((cur.t, expectation_momentum(cur), force,
                     float(np.trapezoid(rho, x)), cur.wall_amplitude()))

    record(state)
    for step, psi in _cn_steps(state, dt, n_steps):
        if step % save_stride == 0:
            state = replace(state, psi=psi.copy(), t=step * dt)
            record(state)
            if checkpoint is not None and step < n_steps:
                checkpoint(len(x) * (n_steps - step))

    times, momenta, forces, norms, walls = np.array(rows).T
    dpdt = np.full_like(momenta, np.nan)
    dpdt[1:-1] = (momenta[2:] - momenta[:-2]) / (2.0 * save_stride * dt)
    max_dev = float(np.max(np.abs(dpdt[1:-1] - forces[1:-1])))
    fmax = float(np.max(np.abs(forces)))
    return EhrenfestReport(
        times=times, momenta=momenta, forces=forces, norms=norms, dpdt=dpdt,
        max_deviation=max_dev, wall_amplitude=float(walls.max()),
        max_deviation_rel=(max_dev / fmax if fmax > 0.0 else max_dev),
        norm_drift=float(np.max(np.abs(norms - norms[0]))), dt=dt,
        save_stride=save_stride, final_state=state)


def packet_rt(state: EvolutionState) -> tuple[float, float]:
    """Fraction of the packet's norm left and right of the interface."""
    rho = np.abs(state.psi) ** 2
    total = float(np.trapezoid(rho, state.x))
    left = float(np.trapezoid(np.where(state.x < 0.0, rho, 0.0), state.x))
    r = left / total
    return r, 1.0 - r


def compare_packet_rt(state: EvolutionState, spec: PacketSpec) -> dict:
    """Compare the reflected weight of a packet that scattered on the step
    ``state.reg`` with stationary probabilities.

    Meaningful only for packets narrow in momentum: requires
    k0 * sigma >= 10.  Both references are reported: the smooth-profile
    stationary probability at the carrier momentum (same potential the
    packet actually scattered on) and the sharp-step one (its limit).
    """
    from .regularized import build_piecewise_model, solve_smooth_mode

    if state.reg is None:
        raise ValueError("compare_packet_rt needs a state with a step, "
                         "got reg = None")
    if spec.k0 * spec.sigma < 10.0:
        raise UnderResolved(
            f"momentum spread too broad for a single-momentum comparison: "
            f"k0*sigma = {spec.k0 * spec.sigma:g} < 10")
    r_packet, t_packet = packet_rt(state)
    pars = replace(state.params, v0=state.reg.v0)
    energy = (pars.hbar * spec.k0) ** 2 / (2.0 * pars.mass)
    nm = solve_smooth_mode(build_piecewise_model("s", energy, state.reg, pars))
    sharp = solve_step_mode("s", energy, pars)
    r_smooth = float(abs(nm.r) ** 2)
    r_sharp = float(abs(sharp.r) ** 2)
    return {
        "r_packet": r_packet,
        "t_packet": t_packet,
        "r_stationary_smooth": r_smooth,
        "r_stationary_sharp": r_sharp,
        "t_stationary_sharp": 1.0 - r_sharp,
        "rel_difference_smooth": abs(r_packet - r_smooth) / r_smooth,
        "abs_difference_sharp": abs(r_packet - r_sharp),
    }
