"""Exact stationary scattering modes for the sharp step.

Three one-particle theories share the same scattering geometry: a unit wave
comes in from the left, the potential jumps from 0 to v0 at x = 0.

* ``s``     nonrelativistic, scalar, second order in space,
            hbar^2 k^2 / 2m = E - phi
* ``kfg``   relativistic spin-0 in the two-component (Hamiltonian) form;
            its scalar wave function obeys (hbar c k)^2 = (E - phi)^2 - (mc^2)^2
            and stays C^1 across the step, while the two-component object
            built by :func:`fv_lift` jumps
* ``dirac`` relativistic spin-1/2, first order, same relativistic dispersion,
            two-component spinor continuous across the step

Transmitted-side regimes: ``propagating`` (real wavenumber, group velocity
away from the interface), ``evanescent`` (decaying exponential, |r| = 1),
``klein`` (E - v0 < -mc^2; the wavenumber sign is chosen so the transmitted
group velocity points in +x, which makes it negative), and the measure-zero
``threshold`` (q = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import PhysicalParams
from .errors import BelowThreshold, CrossCheckFailed

__all__ = [
    "THEORIES",
    "ScatterMode",
    "FVBoundary",
    "BCResiduals",
    "dispersion",
    "solve_step_mode",
    "fv_lift",
    "bc_residuals",
    "matching_residuals",
    "random_mode",
]

THEORIES = ("s", "kfg", "dirac")

# Pauli-type matrices of the two-component spin-0 form; the Dirac pair is
# alpha = tau1, beta = tau3.
_TAU1 = np.array([[0, 1], [1, 0]], dtype=complex)
_TAU2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_TAU3 = np.array([[1, 0], [0, -1]], dtype=complex)
# annihilates the spin-0 jump direction [-1, +1]
_PROJECTOR = _TAU3 + 1j * _TAU2
_JUMP_DIRECTION = np.array([-1.0, 1.0], dtype=complex)


def _check_theory(theory: str):
    """ValueError naming ``theory`` unless it is one of THEORIES."""
    if theory not in THEORIES:
        raise ValueError(f"unknown theory {theory!r}; expected one of {THEORIES}")


def _plateau_k2(theory: str, energy: float, phi: float,
                params: PhysicalParams) -> float:
    """Squared wavenumber (Dirac: q^2) where the potential equals ``phi``;
    ValueError unless it is finite.  The one energy check of the sharp and
    the smooth solvers."""
    try:
        if theory == "s":
            k2 = 2.0 * params.mass * (energy - phi) / params.hbar**2
        else:
            mc2 = params.rest_energy
            k2 = ((energy - phi) ** 2 - mc2**2) / (params.hbar * params.c) ** 2
    except ArithmeticError:     # ** overflowed, or hbar * c underflowed
        k2 = math.inf
    if not math.isfinite(k2):
        raise ValueError(f"k^2 on the plateau phi = {phi!r} at energy "
                         f"{energy!r} is {k2!r}; it must be finite")
    return k2


def _spinor_ratio(k, energy: float, phi, params: PhysicalParams):
    """Spin-1/2 component ratio hbar c k / ((E - phi) + mc^2) on plateau phi;
    ValueError at the Klein edge E - phi = -mc^2, where it is 0/0."""
    denom = energy - phi + params.rest_energy
    if denom == 0.0:
        raise ValueError(
            f"the spinor ratio hbar c k / (E - phi + mc^2) is 0/0 at E = "
            f"{energy!r}, phi = {phi!r} and mc^2 = {params.rest_energy!r}")
    return params.hbar * params.c * k / denom


def _charge_weight(energy: float, phi, params: PhysicalParams):
    """Spin-0 charge weight (E - phi)/mc^2 of |u|^2; ``phi`` a float or array."""
    return (energy - phi) / params.rest_energy


def _transmitted_weight(t: complex, k: complex, q: complex, lams=None) -> float:
    """Transmitted current share, 0 unless q is real: |t|^2 Re lam_R / Re lam_L
    for spin-1/2 (``lams`` = (lam_L, lam_R)), else |t|^2 (Re q / Re k)."""
    if q.imag != 0.0:
        return 0.0
    if lams is not None:
        return abs(t) ** 2 * lams[1].real / lams[0].real
    return abs(t) ** 2 * (q.real / k.real)


def _check_incidence(theory: str, energy: float, params: PhysicalParams):
    """BelowThreshold naming E and the threshold unless a wave comes in on
    the left plateau, where the potential is 0: E > 0, relativistically
    E > mc^2.  The one incidence check of every solver."""
    mc2 = 0.0 if theory == "s" else params.rest_energy
    if energy <= mc2:
        bound = "0" if theory == "s" else f"mc^2 = {mc2}"
        raise BelowThreshold(f"incidence needs E > {bound}, got E = {energy}")


def _check_incident_k(k: complex, energy: float):
    """ValueError unless the incident wavenumber ``k`` is nonzero: past
    _check_incidence, its k^2 underflowed.  Both solvers call it."""
    if k == 0.0:
        raise ValueError(f"k^2 on the plateau phi = 0.0 at energy "
                         f"{energy!r} underflows to 0")


def dispersion(theory: str, energy: float, phi: float,
               params: PhysicalParams) -> complex:
    """Wavenumber on a side where the potential equals ``phi``.

    Returns a complex number: real positive for ordinary propagation, real
    negative in the klein regime, i*kappa (kappa > 0) for evanescent decay
    and exactly 0 at a regime threshold.
    """
    _check_theory(theory)
    d = _plateau_k2(theory, energy, phi, params)
    if d == 0.0:
        return 0.0 + 0.0j
    if d > 0.0:
        root = np.sqrt(d)
        if theory != "s" and (energy - phi) < 0.0:
            # transmitted group velocity ~ q / (E - phi) must point in +x
            return complex(-root)
        return complex(root)
    return 1j * np.sqrt(-d)


def _regime(q: complex) -> str:
    """Regime of a side, read off the wavenumber ``dispersion`` gives it."""
    if q == 0.0:
        return "threshold"
    if q.imag != 0.0:
        return "evanescent"
    if q.real < 0.0:
        return "klein"
    return "propagating"


@dataclass(frozen=True)
class ScatterMode:
    """Exact stationary mode with unit incident amplitude.

    The left side carries exp(ikx) + r exp(-ikx), the right side t times the
    transmitted exponential; for the spin-1/2 theory these factors multiply
    the matching 2-spinors.  Amplitudes satisfy the interface matching
    identically, so r and t are the single source of truth for everything
    downstream.
    """

    theory: str
    energy: float
    k: complex
    q: complex
    r: complex
    t: complex
    regime: str
    params: PhysicalParams

    # -- scalar theories -------------------------------------------------
    def u(self, x: float) -> complex:
        """Scalar wave function (theories ``s`` and ``kfg``); continuous."""
        self._require_scalar()
        if x < 0.0:
            return np.exp(1j * self.k * x) + self.r * np.exp(-1j * self.k * x)
        return self.t * np.exp(1j * self.q * x)

    def ux(self, x: float) -> complex:
        """Spatial derivative of :meth:`u`; continuous for these theories."""
        self._require_scalar()
        if x < 0.0:
            return 1j * self.k * (np.exp(1j * self.k * x)
                                  - self.r * np.exp(-1j * self.k * x))
        return 1j * self.q * self.t * np.exp(1j * self.q * x)

    @property
    def psi0(self) -> complex:
        """Interface value of the scalar wave function (= 1 + r = t)."""
        self._require_scalar()
        return 1.0 + self.r

    @property
    def psix0(self) -> complex:
        """Interface value of its derivative (= ik(1 - r) = iqt)."""
        self._require_scalar()
        return 1j * self.k * (1.0 - self.r)

    def _require_scalar(self):
        if self.theory == "dirac":
            raise ValueError("scalar wave function undefined for the spin-1/2 theory")

    # -- spin-1/2 --------------------------------------------------------
    @property
    def lam_left(self) -> complex:
        return _spinor_ratio(self.k, self.energy, 0.0, self.params)

    @property
    def lam_right(self) -> complex:
        return _spinor_ratio(self.q, self.energy, self.params.v0, self.params)


def solve_step_mode(theory: str, energy: float,
                    params: PhysicalParams) -> ScatterMode:
    """Construct the exact left-incident mode at the given energy.

    Raises ``below-threshold`` when the incident side cannot propagate
    (E <= 0 nonrelativistically, E <= mc^2 relativistically).
    """
    _check_theory(theory)
    _check_incidence(theory, energy, params)

    k = dispersion(theory, energy, 0.0, params)
    _check_incident_k(k, energy)
    q = dispersion(theory, energy, params.v0, params)

    if theory in ("s", "kfg"):
        if abs(k + q) < 1e-12 * abs(k):
            raise ValueError(
                f"incident and transmitted exponentials coincide (k + q = 0) "
                f"at energy {energy!r} and v0 {params.v0!r}; the stationary "
                f"matching is singular here")
        r = (k - q) / (k + q)
        t = 2.0 * k / (k + q)
    else:
        lam = _spinor_ratio(k, energy, 0.0, params)
        lamp = _spinor_ratio(q, energy, params.v0, params)
        r = (lam - lamp) / (lam + lamp)
        t = 1.0 + r
    return ScatterMode(theory=theory, energy=float(energy), k=k, q=q,
                       r=complex(r), t=complex(t), regime=_regime(q),
                       params=params)


def matching_residuals(mode: ScatterMode) -> tuple[float, float]:
    """Continuity and current-budget defects of a sharp-step mode.

    Continuity: the value and the derivative (spin-1/2: the lower spinor
    component) agree from both sides, the derivative relative to |k|.
    Current budget: reflected plus transmitted current equals the incident
    one, the transmitted share being zero unless q is real.  Both vanish
    for exact modes.
    """
    lams = (mode.lam_left, mode.lam_right) if mode.theory == "dirac" else None
    if lams is not None:
        cont = max(abs((1.0 + mode.r) - mode.t),
                   abs(lams[0] * (1.0 - mode.r) - lams[1] * mode.t))
    else:
        cont = max(abs((1.0 + mode.r) - mode.t),
                   abs(mode.k * (1.0 - mode.r) - mode.q * mode.t)
                   / abs(mode.k))
    w_t = _transmitted_weight(mode.t, mode.k, mode.q, lams)
    return float(cont), float(abs(1.0 - abs(mode.r) ** 2 - w_t))


# ---------------------------------------------------------------------------
# two-component lift of the spin-0 scalar mode
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FVBoundary:
    """One-sided interface data of the lifted two-component spin-0 mode.

    psi0 / psix0 are the scalar boundary values, the midpoints of the two
    one-sided values (which a sharp mode shares); the Psi vectors are the
    lifted components evaluated from each side.  Their difference is the
    physical discontinuity the matricial interface conditions describe.
    """

    psi0: complex
    psix0: complex
    Psi_left: np.ndarray
    Psi_right: np.ndarray
    Psix_left: np.ndarray
    Psix_right: np.ndarray

    @property
    def jump_value(self) -> np.ndarray:
        return self.Psi_right - self.Psi_left

    @property
    def jump_deriv(self) -> np.ndarray:
        return self.Psix_right - self.Psix_left

    @property
    def projected_fraction_value(self) -> float:
        return _projected_fraction(self.jump_value)

    @property
    def projected_fraction_deriv(self) -> float:
        return _projected_fraction(self.jump_deriv)

    @property
    def component_ratio_value(self) -> complex:
        upper, lower = self.jump_value
        return complex("nan") if lower == 0.0 else complex(upper / lower)

    @classmethod
    def lift(cls, left, right, energy: float, v0: float,
             params: PhysicalParams) -> FVBoundary:
        """The lift of the one-sided (u, u') pairs at 0- and 0+, where the
        potential is 0 and v0; psi0 and psix0 are their midpoints."""
        (u_l, ux_l), (u_r, ux_r) = left, right
        return cls(0.5 * (u_l + u_r), 0.5 * (ux_l + ux_r),
                   *(_lift_pair(value, energy, phi, params) for value, phi in
                     ((u_l, 0.0), (u_r, v0), (ux_l, 0.0), (ux_r, v0))))


def _projected_fraction(jump: np.ndarray) -> float:
    """|(tau3 + i tau2) jump| / |jump|, 0 for a zero jump: the share of the
    jump that breaks the continuity of psi itself."""
    denom = float(np.linalg.norm(jump))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(_PROJECTOR @ jump)) / denom


def _lift_pair(value: complex, energy: float, phi: float,
               params: PhysicalParams) -> np.ndarray:
    """Stationary lift [psi +, psi -] -> components weighted by (E - phi)/mc^2."""
    w = _charge_weight(energy, phi, params)
    return 0.5 * np.array([(1.0 + w) * value, (1.0 - w) * value], dtype=complex)


def fv_lift(mode: ScatterMode) -> FVBoundary:
    """Lift the scalar spin-0 mode to its two-component interface data.

    Route C sums the lifted values' squares, up to (1 + w)^2 |psi(0)|^2/2,
    and the lifted derivatives' products with psi_x(0), up to
    (1 + w) |psi_x(0)|^2/2, w the larger |charge weight|: a lift that
    takes either out of the doubles is refused before numpy overflows."""
    if mode.theory != "kfg":
        raise ValueError("the two-component lift applies to the spin-0 theory only")
    E, v0, p = mode.energy, mode.params.v0, mode.params
    psi0, psix0 = mode.psi0, mode.psix0
    w = max(abs(_charge_weight(E, 0.0, p)), abs(_charge_weight(E, v0, p)))
    for name, value, other in (("psi(0)", psi0, (1.0 + w) * abs(psi0)),
                               ("psi_x(0)", psix0, abs(psix0))):
        if not math.isfinite(0.5 * (1.0 + w) * abs(value) * other):
            raise ValueError(
                f"the spin-0 lift of {name} = {value!r} by the charge weight "
                f"|E - phi|/mc^2 = {w!r} leaves the double range")
    return FVBoundary.lift((psi0, psix0), (psi0, psix0), E, v0, p)


def _expected_jump(v0: float, mc2: float, value) -> np.ndarray:
    """The lifted spin-0 components' interface jump (v0/2mc^2)[-1, +1] value."""
    return v0 / (2.0 * mc2) * _JUMP_DIRECTION * value


@dataclass(frozen=True)
class BCResiduals:
    """Max-abs defects of the four matricial interface conditions."""

    value_jump: float
    deriv_jump: float
    value_projected: float
    deriv_projected: float

    def max(self) -> float:
        return max(self.value_jump, self.deriv_jump,
                   self.value_projected, self.deriv_projected)


def bc_residuals(b: FVBoundary, params: PhysicalParams) -> BCResiduals:
    """Check the interface conditions of the lifted spin-0 boundary data.

    The component jump must equal (v0 / 2mc^2) [-1, +1] psi(0) (and the same
    with psi_x), while the (tau3 + i tau2)-projected combination must be
    continuous.  All four residuals vanish for exact modes.
    """
    expected_v = _expected_jump(params.v0, params.rest_energy, b.psi0)
    expected_d = _expected_jump(params.v0, params.rest_energy, b.psix0)
    return BCResiduals(
        value_jump=float(np.max(np.abs(b.jump_value - expected_v))),
        deriv_jump=float(np.max(np.abs(b.jump_deriv - expected_d))),
        value_projected=float(np.max(np.abs(_PROJECTOR @ b.jump_value))),
        deriv_projected=float(np.max(np.abs(_PROJECTOR @ b.jump_deriv))),
    )


def random_mode(theory: str, rng, params: PhysicalParams | None = None):
    """Draw a random admissible scattering mode for property sweeps.

    Energies and heights are drawn uniformly over a range that reaches all
    regimes of each theory (propagating, evanescent, and for the
    relativistic theories the strong-step regime).  Draws that land within
    1e-3 of a regime threshold are rejected and redrawn, as is the singular
    spin-0 matching point where the two wavenumbers cancel.
    """
    _check_theory(theory)
    base = params if params is not None else PhysicalParams()
    mc2 = base.rest_energy
    for _ in range(1000):
        v0 = float(rng.uniform(0.05, 3.0))
        if theory == "s":
            energy = float(rng.uniform(0.05, 3.0))
            if abs(energy - v0) < 1e-3:
                continue
        else:
            energy = mc2 + float(rng.uniform(0.05, 3.0))
            v0 = float(rng.uniform(0.05, energy + mc2 + 1.0))
            # reject near both propagation thresholds E - v0 = +-mc^2
            if min(abs(energy - v0 - mc2), abs(energy - v0 + mc2)) < 1e-3:
                continue
        pars = replace(base, v0=v0)
        k = dispersion(theory, energy, 0.0, pars)
        q = dispersion(theory, energy, v0, pars)
        if theory in ("s", "kfg") and abs(k + q) < 1e-3 * abs(k):
            continue  # singular matching point (strong-step pole)
        return solve_step_mode(theory, energy, pars)
    raise CrossCheckFailed(
        f"rejection sampling found no admissible {theory} mode in 1000 draws "
        f"(draws within 1e-3 of a threshold or of the k + q pole are "
        f"rejected)")
