"""Independent reference checks that only the tests read.

Each rebuilds a quantity the package computes by a second route: the
spin-1/2 observables in another matrix representation, the coupled
two-component spin-0 equations and density, the imaginary part of the
packet momentum, the smooth-step propagators in complex arithmetic, and
route E, the mean force as dE/da of a level in a box.  No command prints
them, so they live here rather than in ``src/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from stepforce.core import PhysicalParams
from stepforce.errors import UndefinedAtOrigin
from stepforce.modes import (ScatterMode, _charge_weight, _lift_pair,
                             _plateau_k2, dispersion, solve_step_mode)
from stepforce.regularized import PiecewiseModel, _complex
from stepforce.timeevo import EvolutionState, _momentum_integral

_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class MatrixSet:
    """The 2x2 matrices the two relativistic theories are written with.

    tau1, tau2, tau3 are the Pauli-type matrices of the two-component
    spin-0 form; alpha and beta are the Dirac pair, alpha^2 = beta^2 = 1
    and alpha beta + beta alpha = 0.
    """

    tau1: np.ndarray
    tau2: np.ndarray
    tau3: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @classmethod
    def default(cls) -> "MatrixSet":
        tau1 = np.array([[0, 1], [1, 0]], dtype=complex)
        tau2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
        tau3 = np.array([[1, 0], [0, -1]], dtype=complex)
        # default Dirac representation: alpha = tau1, beta = tau3
        return cls(tau1=tau1, tau2=tau2, tau3=tau3,
                   alpha=tau1.copy(), beta=tau3.copy())


DEFAULT_MATRICES = MatrixSet.default()


# ---------------------------------------------------------------------------
# two-component spin-0 form away from the interface
# ---------------------------------------------------------------------------

def fv_components(mode: ScatterMode, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Lifted two-component pair (Psi, Psi_x) away from the interface."""
    if mode.theory != "kfg":
        raise ValueError("the two-component lift applies to the spin-0 theory only")
    if x == 0.0:
        raise UndefinedAtOrigin("lifted components jump at x = 0; take one-sided data")
    phi = mode.params.v0 if x > 0.0 else 0.0
    Psi = _lift_pair(mode.u(x), mode.energy, phi, mode.params)
    Psix = _lift_pair(mode.ux(x), mode.energy, phi, mode.params)
    return Psi, Psix


def kfg_density_from_components(mode: ScatterMode, x: float) -> float:
    """Spin-0 density evaluated through the lifted two-component form.

    Independent route: build the two components at x and contract with the
    metric diag(1, -1).  Must agree with ``force.density`` everywhere off
    the interface.
    """
    if mode.theory != "kfg":
        raise ValueError("two-component density is specific to the spin-0 theory")
    comp, _ = fv_components(mode, x)
    return float(np.real(np.vdot(comp[0], comp[0]) - np.vdot(comp[1], comp[1])))


def _fv_equation_defects(energy: float, phi: float, u: complex, uxx: complex,
                         params: PhysicalParams) -> tuple[complex, complex]:
    """Defects of the two coupled first-order-in-time equations.

    The stationary mode turns the time derivative into multiplication by E.
    ``u`` and ``uxx`` are the scalar wave function and its second spatial
    derivative at the probe point; the components are rebuilt by the lift.
    """
    mc2 = params.rest_energy
    half = params.hbar**2 / (2.0 * params.mass)
    w = (energy - phi) / mc2
    comp_plus = 0.5 * (1.0 + w) * u
    comp_minus = 0.5 * (1.0 - w) * u
    d_plus = energy * comp_plus - (-half * uxx + phi * comp_plus + mc2 * comp_plus)
    d_minus = energy * comp_minus - (half * uxx + phi * comp_minus - mc2 * comp_minus)
    return d_plus, d_minus


def fv_system_residual(mode: ScatterMode, x: float) -> float:
    """Larger defect magnitude of the coupled two-component equations at x."""
    if mode.theory != "kfg":
        raise ValueError("the coupled-system residual applies to the spin-0 theory")
    if x == 0.0:
        raise UndefinedAtOrigin("equations hold on either side of the interface only")
    phi = mode.params.v0 if x > 0.0 else 0.0
    wavenumber = mode.k if x < 0.0 else mode.q
    u = mode.u(x)
    uxx = -(wavenumber**2) * u
    d_plus, d_minus = _fv_equation_defects(mode.energy, phi, u, uxx, mode.params)
    return float(max(abs(d_plus), abs(d_minus)))


# ---------------------------------------------------------------------------
# spin-1/2 representation independence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepSwapReport:
    """Observables of the same spin-1/2 mode in two matrix representations.

    Amplitudes are compared in the unit-spinor convention (incident,
    reflected and transmitted spinors normalized to unit 2-norm), which is
    the only convention that transfers between representations; the
    interface density is reported per unit incident density.
    """

    reflection_default: float
    reflection_alt: float
    transmission_default: float
    transmission_alt: float
    interface_density_default: float
    interface_density_alt: float

    def max_abs_diff(self) -> float:
        return max(abs(self.reflection_default - self.reflection_alt),
                   abs(self.transmission_default - self.transmission_alt),
                   abs(self.interface_density_default - self.interface_density_alt))


def _check_dirac_algebra(alpha: np.ndarray, beta: np.ndarray):
    for name, m in (("alpha", alpha), ("beta", beta)):
        if m.shape != (2, 2):
            raise ValueError(f"{name} must be 2x2")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError(f"{name} must be Hermitian")
        if np.max(np.abs(m @ m - _I2)) > 1e-12:
            raise ValueError(f"{name}^2 must be the identity")
    if np.max(np.abs(alpha @ beta + beta @ alpha)) > 1e-12:
        raise ValueError("alpha and beta must anticommute")


def _unit_eigenspinor(hmat: np.ndarray, target: float) -> np.ndarray:
    """Unit-norm eigenvector of ``hmat`` whose eigenvalue is nearest ``target``."""
    vals, vecs = np.linalg.eig(hmat)
    idx = int(np.argmin(np.abs(vals - target)))
    v = vecs[:, idx]
    # fix the arbitrary phase: first component of visible size real positive
    pivot = v[0] if abs(v[0]) > 1e-8 else v[1]
    v = v * (abs(pivot) / pivot)
    return v / np.linalg.norm(v)


def _solve_generic_dirac(energy: float, params: PhysicalParams,
                         alpha: np.ndarray, beta: np.ndarray):
    """Solve the step mode using only the algebra of (alpha, beta)."""
    hc = params.hbar * params.c
    mc2 = params.rest_energy
    v0 = params.v0
    k = dispersion("dirac", energy, 0.0, params)
    q = dispersion("dirac", energy, v0, params)

    def hmat(wavenumber: complex, phi: float) -> np.ndarray:
        return hc * wavenumber * alpha + mc2 * beta + phi * _I2

    w_inc = _unit_eigenspinor(hmat(k, 0.0), energy)
    w_ref = _unit_eigenspinor(hmat(-k, 0.0), energy)
    w_trn = _unit_eigenspinor(hmat(q, v0), energy)

    coeffs = np.linalg.solve(np.column_stack([w_ref, -w_trn]), -w_inc)
    r, t = complex(coeffs[0]), complex(coeffs[1])
    rho0 = float(np.linalg.norm(w_inc + r * w_ref) ** 2)
    return abs(r) ** 2, abs(t) ** 2, rho0


def representation_swap_check(energy: float, params: PhysicalParams,
                              alt: MatrixSet) -> RepSwapReport:
    """Same physics in the default and an alternate Dirac representation.

    The default numbers come from the closed-form matching, converted to the
    unit-spinor convention; the alternate numbers are computed from scratch
    by eigen-decomposition in the alternate representation.  Anything
    representation-dependent would show up as a mismatch.
    """
    _check_dirac_algebra(np.asarray(alt.alpha, dtype=complex),
                         np.asarray(alt.beta, dtype=complex))
    mode = solve_step_mode("dirac", energy, params)
    lam, lamp = mode.lam_left, mode.lam_right
    norm_in = 1.0 + abs(lam) ** 2
    refl_default = abs(mode.r) ** 2
    # transmission from right-side data, interface density from left-side
    # data, so the two representations are compared through independent paths
    trans_default = abs(mode.t) ** 2 * (1.0 + abs(lamp) ** 2) / norm_in
    rho_default = (abs(1.0 + mode.r) ** 2
                   + abs(lam) ** 2 * abs(1.0 - mode.r) ** 2) / norm_in

    refl_alt, trans_alt, rho_alt = _solve_generic_dirac(
        energy, params, np.asarray(alt.alpha, dtype=complex),
        np.asarray(alt.beta, dtype=complex))
    return RepSwapReport(
        reflection_default=refl_default,
        reflection_alt=refl_alt,
        transmission_default=trans_default,
        transmission_alt=trans_alt,
        interface_density_default=rho_default,
        interface_density_alt=rho_alt,
    )


# ---------------------------------------------------------------------------
# packet momentum
# ---------------------------------------------------------------------------

def momentum_imag_residue(state: EvolutionState) -> float:
    """Imaginary leakage of the momentum average (hermiticity check)."""
    p = _momentum_integral(state)
    return abs(p.imag) / max(abs(p.real), 1.0)


# ---------------------------------------------------------------------------
# smooth-step propagators in complex arithmetic
# ---------------------------------------------------------------------------
#
# The complex propagator body the real entries replaced: k^2 + 0j, the
# Dirac generator's entries i g, and CPython's complex quotient.  Each real
# entry must equal the nonzero part of its complex entry bit for bit.

def _cdiv_by_real(a, b):
    ratio = b.imag / b.real
    denom = b.real + b.imag * ratio
    return _complex((a.real + a.imag * ratio) / denom,
                    (a.imag - a.real * ratio) / denom)


def _cdiv_by_imag(a, b):
    ratio = b.real / b.imag
    denom = b.real * ratio + b.imag
    return _complex((a.real * ratio + a.imag) / denom,
                    (a.imag * ratio - a.real) / denom)


def cdiv(a, b):
    """a / b rounded as CPython rounds a complex quotient (b nonzero)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    by_real = np.abs(b.real) >= np.abs(b.imag)
    a, b, by_real = np.broadcast_arrays(a, b, by_real)
    out = np.empty(a.shape, dtype=complex)
    for mask, branch in ((by_real, _cdiv_by_real), (~by_real, _cdiv_by_imag)):
        out[mask] = branch(a[mask], b[mask])
    return out


def complex_propagators(k2, d, generator=None):
    """Entries (m00, m01, m10, m11) from the complex k2 and generator."""
    kk = np.sqrt(k2)
    z = kk * d
    with np.errstate(divide="ignore", invalid="ignore"):
        c, s_over_k = np.cos(z), cdiv(np.sin(z), kk)
    series = np.hypot(z.real, z.imag) < 1e-8
    if series.any():
        z2 = z[series] * z[series]
        c[series] = 1.0 - cdiv(z2, 2.0)
        s_over_k[series] = d[series] * (1.0 - cdiv(z2, 6.0))
    if generator is None:
        return c, s_over_k, -k2 * s_over_k, c
    g01, g10 = generator
    return c, s_over_k * g01, s_over_k * g10, c


def complex_model(model: PiecewiseModel):
    """The model's k^2 and Dirac generator as complex arrays: k^2 + 0j and
    (i / (hbar c)) (E - phi + mc^2, E - phi - mc^2), None for a scalar."""
    if model.theory != "dirac":
        return model.k2.astype(complex), None
    p, diff = model.params, model.energy - model.values
    return (model.k2.astype(complex), (1j / (p.hbar * p.c)) * np.array(
        (diff + p.rest_energy, diff - p.rest_energy)))


def assert_complex_parts(got, entries, dirac: bool):
    """Assert that the real entries ``got`` (m00, m01, m10, m11) carry the
    parts of the complex ``entries``: the real parts, and for Dirac's
    off-diagonal entries, which are i times a real number, the imaginary
    parts; bit for bit, save the sign of an entry that is exactly 0.  The
    complex product takes that sign from the zero parts of s_over_k and of
    the generator, which the real entries no longer form.  The other parts
    must be +-0."""
    for j, (g, m) in enumerate(zip(got, entries)):
        part, other = (m.imag, m.real) if dirac and j in (1, 2) else (m.real,
                                                                      m.imag)
        assert g.dtype == np.float64
        nonzero = part != 0.0
        assert np.array_equal(np.ascontiguousarray(g[nonzero]).view(np.int64),
                              np.ascontiguousarray(part[nonzero]).view(np.int64))
        assert np.array_equal(g == 0.0, ~nonzero)
        assert not other.any()


# ---------------------------------------------------------------------------
# route E: the mean force as dE/da of a level in a box
# ---------------------------------------------------------------------------
#
# The sharp step at x = a in the box [-L, L], u(+-L) = 0.  With l = a + L,
# r = L - a and, for k^2 of either sign, C = cos(k l) and S = sin(k l) / k
# (cosh and sinh(kappa l) / kappa for k = i kappa), the left solution
# S_q(r) sin(k (x + L)) / k and the right one S_k(l) sin(q (L - x)) / q
# meet in u(a) = S_k S_q, and their slopes match where
#
#     G(E, a) = C_k S_q + C_q S_k = 0,
#
# the level condition g over k q, real on both axes.  dG/da is
# (q^2 - k^2) S_k S_q; dG/dE goes through dC/dk^2 = -l S / 2 and
# dS/dk^2 = (l C - S) / (2 k^2), and int_0^l (sin(k t) / k)^2 dt is
# (l - S C) / (2 k^2).

def _cos_sinc(k2: float, d: float) -> tuple[float, float]:
    if k2 >= 0.0:
        k = math.sqrt(k2)
        return math.cos(k * d), math.sin(k * d) / k
    kappa = math.sqrt(-k2)
    return math.cosh(kappa * d), math.sinh(kappa * d) / kappa


def _box_sides(theory: str, energy: float, a: float, half_length: float,
               params: PhysicalParams):
    """(k^2, C, S) left of the step, over l = a + L, then right of it,
    over r = L - a."""
    return [(k2, *_cos_sinc(k2, d)) for k2, d in (
        (_plateau_k2(theory, energy, 0.0, params), a + half_length),
        (_plateau_k2(theory, energy, params.v0, params), half_length - a))]


def box_condition(theory: str, energy: float, a: float, half_length: float,
                  params: PhysicalParams) -> float:
    """G(E, a) of the step of height ``params.v0`` at x = a in the box
    [-half_length, half_length]: its levels are the roots."""
    (_, ck, sk), (_, cq, sq) = _box_sides(theory, energy, a, half_length,
                                          params)
    return ck * sq + cq * sk


def box_level(theory: str, lo: float, hi: float, a: float,
              half_length: float, params: PhysicalParams):
    """Route E in doubles: the level of ``theory`` (s or kfg) that
    ``brentq`` finds in the bracket [lo, hi] of box_condition, its
    dE/da = -G_a / G_E, and the one-sided densities at a, normalized to
    unit charge."""
    energy = brentq(lambda e: box_condition(theory, e, a, half_length, params),
                    lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    (k2, ck, sk), (q2, cq, sq) = _box_sides(theory, energy, a, half_length,
                                            params)
    l, r, v0 = a + half_length, half_length - a, params.v0
    if theory == "s":
        dk2 = dq2 = 2.0 * params.mass / params.hbar**2
        w_l = w_r = 1.0
    else:
        dk2, dq2 = (2.0 * (energy - phi) / (params.hbar * params.c) ** 2
                    for phi in (0.0, v0))
        w_l, w_r = (_charge_weight(energy, phi, params) for phi in (0.0, v0))
    g_e = (dk2 * (cq * (l * ck - sk) / (2.0 * k2) - 0.5 * l * sk * sq)
           + dq2 * (ck * (r * cq - sq) / (2.0 * q2) - 0.5 * r * sq * sk))
    charge = (w_l * sq**2 * (l - sk * ck) / (2.0 * k2)
              + w_r * sk**2 * (r - sq * cq) / (2.0 * q2))
    u2 = (sk * sq) ** 2
    return (energy, -(q2 - k2) * sk * sq / g_e, w_l * u2 / charge,
            w_r * u2 / charge)
