"""Unit covariance: the promise in core.py that any consistent unit system
works, checked on routes A, B and C of all three theories.

* Lengths: scaling hbar, eps and every length by lam at fixed E, V0, m and c
  scales every wavenumber by 1/lam, so r, t and the forces (energies, as
  the modes carry unit incident amplitude) must not change.
* Energies: scaling E, V0 and mc^2 by s (through m, at fixed hbar and c)
  scales every wavenumber by s, so with eps -> eps/s r and t must not
  change and the forces must scale by s.

Both hold exactly in real arithmetic; the tolerances below bound the
rounding.  Measured over these cases: a sharp-step quantity moves by at
most 1.7e-15 relative to the largest force term, a route-B width value
(several hundred segment propagators and a panelled quadrature) by
3.9e-14 relative, an extrapolated limit by 4.6e-15 relative.  The
tolerances leave a margin of 60 or more.
"""

import pytest

from stepforce.core import PhysicalParams
from stepforce.force import boundary_terms
from stepforce.modes import solve_step_mode
from stepforce.regularized import DEFAULT_EPSILONS, route_b_sweep

SHARP_TOL = 1e-13
WIDTH_TOL = 1e-11
LIMIT_TOL = 1e-11

# (theory, energy, v0, shape): the report's route-B flagships, and a
# propagating, an evanescent and a klein sharp mode per theory
ROUTE_B = [("s", 1.0, 0.5, "logistic"), ("s", 1.0, 0.5, "erf"),
           ("kfg", 2.0, 0.5, "logistic"), ("kfg", 2.0, 0.5, "ramp"),
           ("dirac", 2.0, 0.5, "logistic"), ("dirac", 2.0, 0.5, "erf")]
SHARP = [("s", 1.0, 0.5), ("s", 1.0, 3.5), ("kfg", 2.0, 0.5),
         ("kfg", 2.0, 1.5), ("kfg", 2.0, 3.5), ("dirac", 2.0, 0.5),
         ("dirac", 2.0, 1.5), ("dirac", 2.0, 3.5)]

LAM = 3.7       # not a power of 2, so the scaled runs round differently
S = 2.3


def _sharp(theory, energy, v0, hbar=1.0, mass=1.0):
    mode = solve_step_mode(theory, energy,
                           PhysicalParams(hbar=hbar, mass=mass, v0=v0))
    terms = boundary_terms(mode)
    forces = [terms.route_a, terms.kinetic_term, terms.mass_term,
              terms.potential_term]
    return mode.r, mode.t, forces


def _sweep(theory, energy, v0, shape, scale_eps=1.0, hbar=1.0, mass=1.0):
    return route_b_sweep(theory, energy, shape, v0,
                         PhysicalParams(hbar=hbar, mass=mass, v0=v0),
                         tuple(scale_eps * e for e in DEFAULT_EPSILONS))


def _close_forces(got, want, factor):
    # the kinetic terms of s and kfg are 0 up to rounding: every term is
    # compared on the scale of the largest
    scale = max(map(abs, want))
    for g, w in zip(got, want):
        assert abs(g - factor * w) <= SHARP_TOL * factor * scale


@pytest.mark.parametrize("theory,energy,v0", SHARP)
def test_sharp_mode_is_length_covariant(theory, energy, v0):
    r, t, forces = _sharp(theory, energy, v0)
    r_l, t_l, forces_l = _sharp(theory, energy, v0, hbar=LAM)
    assert abs(r_l - r) <= SHARP_TOL * max(abs(r), 1.0)
    assert abs(t_l - t) <= SHARP_TOL * max(abs(t), 1.0)
    _close_forces(forces_l, forces, 1.0)


@pytest.mark.parametrize("theory,energy,v0", SHARP)
def test_sharp_mode_is_energy_covariant(theory, energy, v0):
    r, t, forces = _sharp(theory, energy, v0)
    r_s, t_s, forces_s = _sharp(theory, S * energy, S * v0, mass=S)
    assert abs(r_s - r) <= SHARP_TOL * max(abs(r), 1.0)
    assert abs(t_s - t) <= SHARP_TOL * max(abs(t), 1.0)
    _close_forces(forces_s, forces, S)


@pytest.mark.parametrize("theory,energy,v0", SHARP)
def test_sharp_mode_keeps_its_bits_in_power_of_two_units(theory, energy, v0):
    # hbar = 2, m = 4 and c = 1/2 keep hbar^2/2m, mc^2 and hbar c, and scale
    # by powers of two alone: every route-C term keeps its bits, the
    # rounding residue that is the kinetic term of s and kfg included
    natural = boundary_terms(solve_step_mode(theory, energy,
                                             PhysicalParams(v0=v0)))
    scaled = boundary_terms(solve_step_mode(
        theory, energy, PhysicalParams(hbar=2.0, mass=4.0, c=0.5, v0=v0)))
    assert scaled == natural


@pytest.mark.parametrize("theory,energy,v0,shape", ROUTE_B)
def test_route_b_is_length_covariant(theory, energy, v0, shape):
    want = _sweep(theory, energy, v0, shape)
    got = _sweep(theory, energy, v0, shape, scale_eps=LAM, hbar=LAM)
    assert got.values == pytest.approx(want.values, rel=WIDTH_TOL)
    assert got.extrapolated == pytest.approx(want.extrapolated, rel=LIMIT_TOL)


@pytest.mark.parametrize("theory,energy,v0,shape", ROUTE_B)
def test_route_b_is_energy_covariant(theory, energy, v0, shape):
    want = _sweep(theory, energy, v0, shape)
    got = _sweep(theory, S * energy, S * v0, shape, scale_eps=1.0 / S,
                 mass=S)
    assert got.values == pytest.approx([S * v for v in want.values],
                                       rel=WIDTH_TOL)
    assert got.extrapolated == pytest.approx(S * want.extrapolated,
                                             rel=LIMIT_TOL)
