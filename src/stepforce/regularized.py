"""Scattering from smoothed steps and the sharp-step limit.

The smooth potential is approximated by a piecewise-constant profile whose
segments sample it at their midpoints.  Each segment is then crossed with
the exact constant-potential propagator, so the only discretization error is
the midpoint sampling itself.  Outside the smoothing window the profile
equals its plateaus to machine precision and the plane-wave forms are used
directly, which keeps deeply evanescent right sides (huge v0) finite: the
marching never crosses more than the smoothing window.

The force on the smooth profile is route B of the verification: the
quadrature

    <f>_eps = - integral of phi_eps'(x) * rho_eps(x) dx

must reproduce the closed interface formulas as eps -> 0.  For the
spin-0 theory this limit singles out which value a delta function probing a
discontinuous density takes: the smooth-family answer is the midpoint
average of the two one-sided densities, not the half-jump the stationary
two-component algebra produces.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass, replace
from functools import cache, reduce

import numpy as np

from .core import PhysicalParams, RegularizedPotential
from .errors import (InvalidWidth, NoConvergence, ProbeInsideSmoothing,
                     UnderResolved)
from .modes import (FVBoundary, _charge_weight, _check_incidence,
                    _check_incident_k, _check_theory, _plateau_k2,
                    _spinor_ratio, _transmitted_weight, dispersion)

__all__ = [
    "PiecewiseModel",
    "NumericalMode",
    "ConvergenceSeries",
    "DEFAULT_EPSILONS",
    "build_piecewise_model",
    "solve_smooth_mode",
    "route_b_integral",
    "route_b_sweep",
    "extrapolate",
    "smooth_jump_diagnostics",
]

DEFAULT_EPSILONS = (0.2, 0.1, 0.05, 0.025, 0.0125)
# far above the 640 fine segments of the largest model the report builds;
# it bounds the march's memory: its band holds 4 (2n + 2) complex numbers,
# 128 MB at n = 10^6
_MAX_SEGMENTS = 10**6
# the narrowest width a model is rescaled to (see the exact-rounding notes)
_RESCALE_FLOOR = 2.0**-950

# Gauss-Legendre nodes and weights by node count (callers only read them)
_leggauss = cache(np.polynomial.legendre.leggauss)


# ---------------------------------------------------------------------------
# piecewise-constant model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseModel:
    """Piecewise-constant sampling of a smoothed step, with every array a
    width reads (_model forms them).

    ``edges``/``values`` describe the fine segments inside the smoothing
    window, where the profile actually varies; outside the window the two
    half-line plateaus carry the profile's limits at -inf and +inf, exactly
    0 and ``reg.v0`` (the profile equals them to 1 ulp there), so the
    segment-width bound is imposed where it matters and the plateaus stay
    exact.
    """

    theory: str
    energy: float
    edges: np.ndarray          # fine-segment edges, [-xs ... +xs]
    values: np.ndarray         # potential per fine segment (midpoint samples)
    params: PhysicalParams
    reg: RegularizedPotential
    k: complex                 # plateau wavenumbers (dispersion) left ...
    q: complex                 # ... and right of the window
    # per-segment k^2 of the scalar theories, q^2 of the Dirac theory
    k2: np.ndarray
    # per-segment g01, g10 of the Dirac generator's off-diagonal entries
    # i g01 and i g10; None for the scalar theories
    generator: np.ndarray | None
    # route B's Gauss-Legendre nodes, weights and panel width
    nodes: tuple
    # reg.deriv_factors at the nodes: phi' there is reg.deriv_from of them
    slope_factors: tuple
    # what a scalar density needs of the nodes: _segments, and kfg's charge
    # weight there (None for s); None for Dirac
    node_sites: tuple | None

    @property
    def window(self) -> float:
        return float(self.edges[-1])


def _segments(edges: np.ndarray, x: np.ndarray):
    """Each point's segment and its distance from the segment's left edge,
    for points of a 1-D array inside the smoothing window ``edges``."""
    idx = np.minimum(np.searchsorted(edges, x, side="right") - 1,
                     len(edges) - 2)
    return idx, x - edges[idx]


def _model(theory: str, energy: float, edges: np.ndarray, values: np.ndarray,
           reg: RegularizedPotential, params: PhysicalParams, k: complex,
           q: complex) -> PiecewiseModel:
    """The model of these segments, every array a width reads formed once:
    k^2 elementwise as ``modes._plateau_k2`` (the spin-0 square through the
    C library's pow, as Python's ``**``), and route B's panels of twelve
    nodes over the window, at least 8, none wider than eps or a quarter of
    the shortest plateau wavelength (or decay length)."""
    p, diff = params, energy - values
    generator = None
    if theory == "s":
        k2 = 2.0 * p.mass * diff / p.hbar**2
    elif theory == "kfg":
        k2 = ((np.float_power(diff, 2.0) - p.rest_energy**2)
              / (p.hbar * p.c) ** 2)
    else:
        k2 = ((diff + p.rest_energy) * (diff - p.rest_energy)
              / (p.hbar * p.c) ** 2)
        generator = (1.0 / (p.hbar * p.c)) * np.array(
            (diff + p.rest_energy, diff - p.rest_energy))
    width = min(reg.eps, 2.0 * math.pi / (8.0 * max(abs(k), abs(q), 1e-6)))
    x, weights = _gl_panels(float(edges[-1]), width, 8, 12)
    sites = None if theory == "dirac" else (
        *_segments(edges, x), _charge_weight(energy, reg.eval(x), params)
        if theory == "kfg" else None)
    return PiecewiseModel(theory, energy, edges, values, params, reg, k, q,
                          k2, generator, (x, weights, width),
                          reg.deriv_factors(x), sites)


def build_piecewise_model(theory: str, energy: float, reg: RegularizedPotential,
                          params: PhysicalParams,
                          resolution: int = 8) -> PiecewiseModel:
    """Sample ``reg`` into segments fine enough for the transfer marching.

    ``resolution`` counts segments per smoothing width eps; widths are also
    capped at a twentieth of the shortest local wavelength (or decay length).
    """
    _check_theory(theory)
    eps, energy = reg.eps, float(energy)
    if resolution < 8:
        raise UnderResolved(
            f"resolution {resolution} too coarse; need >= 8 segments per eps")

    xs = max(reg.support_halfwidth(), 5.0 * eps)
    # the profile lies between its plateaus, so finite plateau k^2 (and
    # kfg's charge weights) bound every segment's (and every node's)
    k, q = (dispersion(theory, energy, phi, params) for phi in (0.0, reg.v0))
    w = max(abs(energy), abs(energy - reg.v0)) / params.rest_energy
    if theory == "kfg" and not w < math.inf:
        raise ValueError(f"the spin-0 charge weight |E - phi|/mc^2 = {w!r} "
                         f"at E = {energy!r} leaves the double range")
    kmax = max(abs(k), abs(q))
    width = eps / resolution
    if width == 0.0:
        raise ValueError(f"the segment width eps / {resolution} rounds to 0 "
                         f"at eps {eps!r}")
    if kmax > 0.0:
        width = min(width, 2.0 * math.pi / (20.0 * kmax))
    needed = 2.0 * xs / width
    if not needed <= _MAX_SEGMENTS:
        raise ValueError(
            f"the model needs {needed:.3g} segments at energy {energy!r}; "
            f"the bound is {_MAX_SEGMENTS:.0e}")
    # xs >= 5 eps, width <= eps/8: at least 80 segments, 79 in |x| < 5 eps
    n_seg = int(math.ceil(needed))
    edges = _linspace(-xs, xs, n_seg + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return _model(theory, energy, edges, reg.eval(mids), reg, params, k, q)


def _rescaled(prev: PiecewiseModel,
              reg: RegularizedPotential) -> PiecewiseModel | None:
    """build_piecewise_model's model of route_b_sweep's next, narrower width
    ``reg``, rescaled from the width before, or None where the two might
    differ in a bit (the exact-rounding notes give the conditions)."""
    (m, e), (m0, e0) = math.frexp(reg.eps), math.frexp(prev.reg.eps)
    if not (m == m0 and reg.eps >= _RESCALE_FLOOR
            and prev.nodes[2] == prev.reg.eps):
        return None
    s = math.ldexp(1.0, e - e0)
    sites = prev.node_sites
    return replace(prev, reg=reg, edges=prev.edges * s,
                   nodes=tuple(a * s for a in prev.nodes),
                   node_sites=None if sites is None
                   else (sites[0], sites[1] * s, sites[2]))


def _linspace(start: float, stop: float, num: int) -> np.ndarray:
    """np.linspace(start, stop, num) for num >= 2 without its Python-level
    argument handling: numpy's own formula, so the same doubles."""
    out = np.arange(num, dtype=float)
    out *= (stop - start) / (num - 1)
    out += start
    out[-1] = stop
    return out


# ---------------------------------------------------------------------------
# exact constant-potential propagators
# ---------------------------------------------------------------------------
#
# The batched arithmetic below rounds exactly as the scalar complex formulas
# it replaces:
#
# * k^2 is real, so c = cos(k d), s_over_k = sin(k d) / k and each entry
#   of a propagator are real, save Dirac's off-diagonal i g s_over_k, held
#   over i ((1 / (hbar c)) f rounds as the imaginary part of (i / (hbar c))
#   f).  The complex forms' other parts, signed zeros such as -0.0 sin or
#   (0.0 cos - 0.0 sin) / |k|, are not formed: a complex product adds them
#   as +-0 to its nonzero parts, which stay as they are.  Only an entry that
#   is exactly 0 (k^2 = 0 or d = +-0) may take the other sign, which no
#   output reads: the march and the carry add its products to nonzero ones;
# * on the real axis np.cos and np.sin equal the parts of the complex
#   exp(i k d), cos and sin bit for bit (10^6 seeded doubles with |x| <=
#   1e6, +-0, 5e-324, DBL_MIN and the neighbours of +-1e-8), save sin(-0.0)
#   = -0.0 where exp gives +0.0, an entry the |k d| < 1e-8 series
#   overwrites; on the imaginary axis c and s_over_k are parts of the
#   complex cos and sin of i kappa d, as numpy's real cosh and sinh differ
#   on 13-26 % of doubles; over |k| (kappa) they are the nonzero part of
#   CPython's complex quotient by k;
# * a product of a state and a real or an imaginary entry is formed as the
#   nonzero parts of numpy's complex multiply, which with one component
#   zero rounds alike fused or unfused (0 of 8,000,000 products with parts
#   over 1e-20 .. 1e20 differ); a product of two general factors (r or t
#   times an exponential) goes through _cmul, in CPython's order, because
#   numpy's multiply fuses products (140,849 of 1,000,000 differ);
# * squares are np.float_power(x, 2.0), which calls the C library's pow per
#   element as Python's x ** 2 does: of 3,000,006 doubles (uniform, negative,
#   log-uniform over 1e-130 .. 1e130, +-0, 5e-324, 1e+-150) none differs,
#   while numpy's SIMD pow with an array exponent differs on 106,399, and
#   x * x on 2,489 (about 0.08 %, e.g. 4.68625888565849, by one ulp);
# * np.hypot(re, im) is CPython's complex abs bit for bit (both call the C
#   library's hypot), while numpy's complex abs rounds differently;
# * np.add.accumulate adds strictly left to right, like a running loop,
#   whereas np.sum adds pairwise; route B's terms where phi' is exactly 0
#   are +-0 and left out: the sum starts at +0.0 and is never -0;
# * the march's BLAS ztbsv rounds as the per-segment 2x2 products (the
#   argument is in _march's docstring): the band's zero entries and parts
#   add +-0, which leaves every nonzero value as it is, and with one factor
#   on an axis a fused multiply-add rounds as the unfused product (0 of
#   897,600 float words differ from the per-segment loop over 495 marches:
#   every theory, shape and regime, k^2 < 0 segments, zero init components);
# * the scalar route-B density carries u alone, c a + s_over_k b: the
#   first row m00 a + m01 b of the full carry, whose u' row it skips;
# * _linspace is numpy 2.4's np.linspace for a nonzero step, arange(num) *
#   ((stop - start) / (num - 1)) + start with the last entry set to stop;
#   the build divides by its step, the segment width, before;
# * the model at eps = 2**j eps_prev is the one at eps_prev, replaced with
#   its edges and route B's nodes, weights, panel width and node offsets
#   times 2**j: route_b_sweep solves one problem at strictly decreasing
#   widths (j < 0).  Scaling normal doubles by 2**j commutes with each
#   rounding, so every ratio (segment and panel counts, u = x / eps) keeps
#   its bits and the fields of u alone carry over (values, k2, the Dirac
#   generator, node segments, kfg's charge weight, phi''s factors at the
#   nodes; k and q have no eps).  Not phi': 18 erf nodes a width have a
#   subnormal phi', so each width applies v0 / eps to the factors as
#   deriv does.  Each length formed is a multiple of a power of two
#   >= eps 2**-71 (the segment width is over 10 eps / _MAX_SEGMENTS), so
#   normal for eps >= 2**-950.  No width cap may bind: the segment cap
#   2 pi / (20 k_max) binds at resolution >= 8 only where the panel cap
#   2 pi / (8 k_max) does, so the panel width must be eps.

def _complex(re, im) -> np.ndarray:
    """Complex array with exactly these real and imaginary parts."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _cmul(a, b) -> np.ndarray:
    """a * b rounded as CPython rounds a complex product."""
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    return _complex(ar * br - ai * bi, ar * bi + ai * br)


def _cos_sinc(k2: np.ndarray, d: np.ndarray):
    """c = cos(k d) and s_over_k = sin(k d) / k, elementwise over the float
    arrays ``k2`` and ``d``.

    Both are taken by their series when |k d| < 1e-8, which keeps them
    smooth through k2 ~ 0: there the series round to c = 1 and
    s_over_k = d to the bit, k2 = 0 included, and overwrite the 0/0
    quotient taken there.
    """
    kabs = np.sqrt(np.abs(k2))
    kd = kabs * d                                 # |k| d
    imag = k2 < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        c, s_over_k = np.cos(kd), np.sin(kd) / kabs
        if np.count_nonzero(imag):
            # imaginary axis: the complex cos and sin of i kappa d
            z = np.sqrt(k2[imag].astype(complex)) * d[imag]
            c[imag] = np.cos(z).real
            s_over_k[imag] = np.sin(z).imag / kabs[imag]
    # below |k d| = 1e-8 the series' (k d)^2 terms are under half an ulp
    series = np.abs(kd) < 1e-8
    if np.count_nonzero(series):
        c[series] = 1.0
        s_over_k[series] = d[series]
    return c, s_over_k


def _propagators(k2: np.ndarray, d: np.ndarray, generator=None):
    """Entries (m00, m01, m10, m11) of exact constant-potential propagators.

    Elementwise over the arrays ``k2`` and ``d``: the matrix that carries a
    state across distance d where the local wavenumber squared is k2.  For
    the scalar theories the state is (u, u') with u'' = -k2 u; for Dirac,
    ``generator`` holds g01, g10 of the off-diagonal generator entries i g
    and k2 is q^2, and m01, m10 come over i.  In both cases
    M = c + s_over_k * G with _cos_sinc's c and s_over_k.
    """
    c, s_over_k = _cos_sinc(k2, d)
    if generator is None:
        return c, s_over_k, -k2 * s_over_k, c
    g01, g10 = generator
    return c, s_over_k * g01, s_over_k * g10, c


# ---------------------------------------------------------------------------
# numerical mode
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NumericalMode:
    """Scattering mode of the smoothed step, unit incident amplitude.

    Inside the smoothing window the mode is reconstructed exactly from the
    stored per-segment states; outside it the plateau plane-wave forms with
    the computed r and t apply.  ``defect`` is the global current
    conservation residual of the computed amplitudes (reflected plus
    transmitted flux against the incident flux), which accumulates every
    marching error and vanishes for a correct propagation.
    """

    r: complex
    t: complex
    defect: float
    model: PiecewiseModel
    seg_states: np.ndarray     # state at each fine segment's left edge

    @property
    def theory(self) -> str:
        return self.model.theory

    def _carry(self, idx, d, value_only=False):
        """Segment states carried to the window points: the two components,
        or with ``value_only`` (scalar theories) u = c a + (sin kd / k) b
        alone, the first row of the propagator, rounded as the full carry
        rounds it.  Each part is formed from real products."""
        ar, ai, br, bi = self.seg_states.take(idx, axis=0).view(float).T
        k2, gen = self.model.k2.take(idx), self.model.generator
        if value_only:
            c, s_over_k = _cos_sinc(k2, d)
            return _complex(c * ar + s_over_k * br, c * ai + s_over_k * bi)
        m00, m01, m10, _ = _propagators(
            k2, d, None if gen is None else gen.take(idx, axis=1))
        if gen is None:
            return (_complex(m00 * ar + m01 * br, m00 * ai + m01 * bi),
                    _complex(m10 * ar + m00 * br, m10 * ai + m00 * bi))
        # the off-diagonal entries are i m01 and i m10
        return (_complex(m00 * ar - m01 * bi, m00 * ai + m01 * br),
                _complex(m00 * br - m10 * ai, m00 * bi + m10 * ar))

    # -- scalar reconstruction -------------------------------------------
    def eval_scalar(self, x: np.ndarray):
        """(u, u') of a scalar theory at the points of the 1-D float array
        ``x``, on either plateau or in the window: two complex arrays."""
        if self.theory == "dirac":
            raise ValueError("scalar evaluation undefined for the spin-1/2 theory")
        edges = self.model.edges
        left = x <= edges[0]
        right = ~left & (x >= edges[-1])
        inside = ~(left | right)
        u = np.empty(x.shape, dtype=complex)
        ux = np.empty(x.shape, dtype=complex)
        if left.any():
            ik = 1j * self.model.k
            e_p = np.exp(ik * x[left])
            r_e_m = _cmul(self.r, np.exp(-1j * self.model.k * x[left]))
            u[left] = e_p + r_e_m
            ux[left] = ik * (e_p - r_e_m)
        if right.any():
            iq = 1j * self.model.q
            e_t = _cmul(self.t, np.exp(iq * x[right]))
            u[right] = e_t
            ux[right] = iq * e_t
        u[inside], ux[inside] = self._carry(*_segments(edges, x[inside]))
        return u, ux

    # -- spinor reconstruction ---------------------------------------------
    def eval_spinor(self, x: np.ndarray) -> np.ndarray:
        """Spinor at the points of the 1-D float array ``x``, all inside the
        smoothing window, where route B's nodes lie: shape x.shape + (2,)."""
        if self.theory != "dirac":
            raise ValueError("spinor evaluation defined only for the spin-1/2 theory")
        edges = self.model.edges
        # two reductions; NaN fails them too
        if x.size and not (edges[0] < x.min() and x.max() < edges[-1]):
            xs = self.model.window
            outside = float(x[~((edges[0] < x) & (x < edges[-1]))][0])
            raise ValueError(f"spinor evaluation covers the smoothing window "
                             f"({-xs!r}, {xs!r}) only, got x = {outside!r}")
        return np.stack(self._carry(*_segments(edges, x)), axis=-1)


def _march(model: PiecewiseModel, init_state: np.ndarray) -> np.ndarray:
    """Carry the transmitted-side state leftward across the fine segments.

    Returns the state at every segment's left edge.  All propagators come
    from one batched call, in marching order.  The recurrence
    s_{j+1} = M_j s_j over the interleaved unknowns (a_0, b_0, a_1, b_1, ...)
    is a unit lower-triangular system of bandwidth 3 (rows 2j+2 and 2j+3
    hold -m00, -m01 and -m10, -m00 to the left of the diagonal), solved by
    one BLAS ``ztbsv``.  Its column-oriented forward substitution forms each
    new component as 0 - a (-m) - b (-m'), the a-term first, as
    m00 * a + m01 * b does; negation is exact, and as k^2 is real each entry
    is real or (Dirac off-diagonal) imaginary, so the solve rounds exactly
    as a numpy 2x2 matmul of the same entries.  Marching right-to-left
    follows the growing (stable) direction when the right side is
    evanescent, so contamination by the spurious solution decays relative
    to the signal.
    """
    from scipy.linalg.blas import ztbsv

    edges = model.edges[::-1]
    gen = model.generator
    m00, m01, m10, _ = _propagators(model.k2[::-1], edges[1:] - edges[:-1],
                                    None if gen is None else gen[:, ::-1])
    n = len(m00)
    # band[j, c, i] is the i-th subdiagonal entry of column 2j + c, so the
    # transposed (2n + 2, 4) view is the Fortran-ordered band that ztbsv
    # reads without a copy
    band = np.zeros((n + 1, 2, 4), dtype=complex)
    # the scalar entries are real, Dirac's off-diagonal ones imaginary
    off = band.real if gen is None else band.imag
    np.negative(m01, out=off[:n, 1, 1])
    np.negative(m00, out=band.real[:n, 0, 2])
    np.negative(m00, out=band.real[:n, 1, 2])     # m11 = m00
    np.negative(m10, out=off[:n, 0, 3])
    x = np.zeros(2 * n + 2, dtype=complex)
    x[:2] = init_state
    x = ztbsv(3, band.reshape(-1, 4).T, x, lower=1, diag=1, overwrite_x=1)
    if not np.isfinite(x).all():
        raise _out_of_range(model)
    return x[2:].reshape(-1, 2)[::-1]


def _out_of_range(model: PiecewiseModel) -> ValueError:
    """The refusal of a march whose states leave the normal doubles."""
    return ValueError(
        f"the smooth-step march leaves the double range at eps "
        f"{model.reg.eps!r}, energy {model.energy!r}, v0 {model.reg.v0!r}")


def solve_smooth_mode(model: PiecewiseModel) -> NumericalMode:
    """Solve the left-incidence scattering problem for the smoothed step
    that ``model`` samples."""
    theory, energy, params = model.theory, model.energy, model.params
    _check_incidence(theory, energy, params)
    _check_incident_k(model.k, energy)

    k, q, xs = model.k, model.q, model.window
    # the transmitted wave at the window edge, which the march starts from:
    # on an evanescent right side it decays as exp(-kappa xs), and below the
    # normal doubles it has lost its digits (or is zero, and so is every state)
    wave = cmath.exp(1j * q * xs)
    if abs(wave) < sys.float_info.min:
        raise _out_of_range(model)

    # f: a plane wave's second over first component, ik or the spinor ratio
    if theory == "dirac":
        lams = (_spinor_ratio(k, energy, 0.0, params),
                _spinor_ratio(q, energy, model.reg.v0, params))
        f_l, f_r = lams
    else:
        f_l, f_r, lams = 1j * k, 1j * q, None
    states = _march(model, np.array([wave, f_r * wave]))
    s0, s1 = states[0]
    # split the left-edge state into incident and reflected plane waves
    a_loc = 0.5 * (s0 + s1 / f_l)
    b_loc = 0.5 * (s0 - s1 / f_l)
    a_coef = a_loc * cmath.exp(1j * k * xs)       # e^{ikx} coefficient
    b_coef = b_loc * cmath.exp(-1j * k * xs)      # e^{-ikx} coefficient
    r = b_coef / a_coef
    t = 1.0 / a_coef
    states = states / a_coef          # C-contiguous, for _carry's gathers
    w_t = _transmitted_weight(t, k, q, lams)
    flux_residual = abs(1.0 - abs(r) ** 2 - w_t) / (1.0 + abs(r) ** 2 + abs(w_t))

    return NumericalMode(r=complex(r), t=complex(t),
                         defect=float(flux_residual), model=model,
                         seg_states=states)


# ---------------------------------------------------------------------------
# route B: force from the smooth profile
# ---------------------------------------------------------------------------

def _smooth_density(mode: NumericalMode, on: np.ndarray) -> np.ndarray:
    """Density at the model's route-B nodes where the mask ``on``: they lie
    inside the smoothing window, so no plateau masks, and a scalar mode
    carries u alone from the nodes' sites."""
    if mode.theory == "dirac":
        psi = mode.eval_spinor(mode.model.nodes[0][on])
        return np.vecdot(psi, psi).real
    idx, d, charge = (a if a is None else a[on]
                      for a in mode.model.node_sites)
    u = mode._carry(idx, d, value_only=True)
    rho = np.float_power(np.hypot(u.real, u.imag), 2.0)
    return rho if charge is None else charge * rho


def _running_sum(terms: np.ndarray, start: float | complex = 0.0):
    """start + terms[0] + terms[1] + ..., added strictly left to right."""
    return np.add.accumulate(np.concatenate(([start], terms)))[-1].item()


def _gl_panels(half_width: float, width: float, min_panels: int,
               n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of Gauss-Legendre panels over [-half_width,
    half_width]: n_nodes a panel, panels no wider than ``width`` and at
    least ``min_panels`` of them, ordered panel by panel, node by node."""
    nodes, weights = _leggauss(n_nodes)
    n_panels = max(int(math.ceil(2.0 * half_width / width)), min_panels)
    edges = _linspace(-half_width, half_width, n_panels + 1)
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    mid = (0.5 * (edges[:-1] + edges[1:]))[:, None]
    return (mid + half * nodes).ravel(), (weights * half).ravel()


def route_b_integral(mode: NumericalMode) -> float:
    """- integral of phi_eps'(x) rho_eps(x) dx by panelled Gauss-Legendre.

    The integrand's support is the smoothing window; panel widths resolve
    both the smoothing scale and the local wavelength, so twelve-point
    panels are far below the 1e-8 relative tolerance this quadrature owes.
    The nodes where phi_eps' is not exactly 0 (elsewhere a term is +-0 for
    a finite density) are evaluated in one batch and summed panel by panel,
    node by node.  phi_eps' there is formed at this width from the model's
    factors of u alone.
    """
    model = mode.model
    slope = model.reg.deriv_from(model.slope_factors)
    on = slope != 0.0
    return -_running_sum((model.nodes[1] * slope)[on]
                         * _smooth_density(mode, on))


# ---------------------------------------------------------------------------
# extrapolation of the eps sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceSeries:
    """A sweep of one scalar quantity over decreasing smoothing widths."""

    theory: str
    energy: float
    v0: float
    shape: str
    epsilons: tuple
    values: tuple
    defects: tuple
    extrapolated: float
    order: float
    error_estimate: float

    def __post_init__(self):
        _check_widths(self.epsilons)


def _check_widths(epsilons, name: str = "epsilons") -> list:
    """The widths as floats, refused unless there are at least 3, each is
    positive and they strictly decrease, as the fit needs."""
    eps = [float(e) for e in epsilons]
    if len(eps) < 3:
        raise ValueError(
            f"{name} needs at least 3 decreasing widths to extrapolate")
    for e in eps:
        if not e > 0.0:
            raise InvalidWidth(f"smoothing width must be positive, got {e}")
    if not all(a > b for a, b in zip(eps, eps[1:])):
        raise ValueError(f"{name} must be strictly decreasing, got {eps}")
    return eps


def extrapolate(epsilons, values) -> tuple[float, float, float]:
    """Power-law limit fit: assume value = A + B eps^p, return (A, p, err).

    The order p comes from the ratios of successive differences; the limit
    is the one-step Richardson update of the last value at that order.  The
    error estimate is the magnitude of that final update.  Python floats
    throughout; the orders are added left to right from the first, as
    numpy's mean of fewer than eight orders adds them, on every CPython
    (sum() compensates a float sum since 3.12).
    """
    eps = _check_widths(epsilons)
    vals = [float(v) for v in values]

    d = [b - a for a, b in zip(vals, vals[1:])]
    tol = 1e-13 * max(max(map(abs, vals)), 1.0)
    if all(abs(x) < tol for x in d):
        return vals[-1], float("nan"), 0.0
    if len({x > 0.0 for x in d if abs(x) > tol}) > 1:
        raise NoConvergence(
            f"differences change sign, no power-law trend: {d}")
    if any(abs(b) >= abs(a) for a, b in zip(d, d[1:])):
        raise NoConvergence(f"differences do not shrink monotonically: {d}")

    orders = [math.log(abs(d[i]) / abs(d[i + 1])) / math.log(eps[i] / eps[i + 1])
              for i in range(len(d) - 1)]
    p = reduce(operator.add, orders) / len(orders)
    ratio = eps[-1] ** p / (eps[-2] ** p - eps[-1] ** p)
    correction = d[-1] * ratio
    return vals[-1] + correction, p, abs(correction)


def route_b_sweep(theory: str, energy: float, shape: str, v0: float,
                  params: PhysicalParams, epsilons=DEFAULT_EPSILONS,
                  resolution: int = 8) -> ConvergenceSeries:
    """Sweep route B over a family of widths and extrapolate to zero width.

    The widths are checked before the first model is built, which checks
    the theory and the shape; the series records both as given.  A width
    may be rescaled from the one before (_rescaled)."""
    _check_widths(epsilons)
    values, defects, model = [], [], None
    for eps in epsilons:
        reg = RegularizedPotential(v0=v0, eps=eps, shape=shape)
        model = (model and _rescaled(model, reg)) or build_piecewise_model(
            theory, energy, reg, params, resolution)
        nm = solve_smooth_mode(model)
        values.append(route_b_integral(nm))
        defects.append(nm.defect)
    limit, order, err = extrapolate(epsilons, values)
    return ConvergenceSeries(
        theory=theory, energy=float(energy), v0=float(v0), shape=shape,
        epsilons=tuple(float(e) for e in epsilons),
        values=tuple(values), defects=tuple(defects),
        extrapolated=limit, order=order, error_estimate=err)


# ---------------------------------------------------------------------------
# emergence of the matricial interface conditions from the smooth family
# ---------------------------------------------------------------------------

def smooth_jump_diagnostics(energy: float, reg: RegularizedPotential,
                            params: PhysicalParams,
                            probe_offset: float = 0.2) -> FVBoundary:
    """Measure the lifted-component jump of a smooth spin-0 mode.

    The mode's (u, u') at -probe_offset and at +probe_offset, each carried
    to x = 0 along its exact plateau flow, are lifted there
    (FVBoundary.lift).  Its jump must reproduce (v0 / 2mc^2) [-1, +1] psi(0)
    as eps -> 0, while its (tau3 + i tau2) projection, the discontinuity of
    psi itself, must die with eps.  ``probe_offset`` must be finite and
    clear the smoothing region (> 3 eps).
    """
    if not 3.0 * reg.eps < probe_offset < math.inf:     # NaN fails too
        raise ProbeInsideSmoothing(f"probe offset {probe_offset} must exceed "
                                   f"3*eps = {3.0 * reg.eps} and be finite")
    nm = solve_smooth_mode(build_piecewise_model("kfg", energy, reg, params))

    def transported(x: float, phi: float):
        u, ux = nm.eval_scalar(np.array([x]))
        k2 = _plateau_k2("kfg", energy, phi, params)
        m00, m01, m10, m11 = _propagators(np.array([k2]), np.array([-x]))
        return (m00 * u + m01 * ux)[0], (m10 * u + m11 * ux)[0]

    return FVBoundary.lift(transported(-probe_offset, 0.0),
                           transported(probe_offset, reg.v0),
                           energy, reg.v0, params)
