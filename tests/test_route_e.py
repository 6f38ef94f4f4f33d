"""Route E: the mean force as dE/da of a sharp step in a box.

Move the step to x = a inside the box [-L, L] with u(+-L) = 0.  Since
d/da V(x - a) = -V'(x) is the force, the Hellmann-Feynman theorem makes
dE/da of each level its mean force, with no smoothing and no scattering
state.  The spin-0 equation sees the step through (E - V)^2, whose a
derivative is 2 V0 (E - V0/2) delta(x - a): no delta multiplies a
discontinuous function, so dE/da must be -V0 times the midpoint of the
one-sided charge densities at a, not route A's half-jump.  For s it is
-V0 rho(a).  The Klein regime, where the charge integral can vanish, and
the Dirac box are left out.
"""

import mpmath
import numpy as np
import pytest

from oracle_mp import DIGITS, box_level as exact_level
from reference_checks import box_condition, box_level
from stepforce.core import PhysicalParams

# hbar = m = c = 1, then a unit system with mc^2 = 18 and hbar/mc = 7/60
UNITS = (PhysicalParams(), PhysicalParams(hbar=0.7, mass=2.0, c=3.0))
# dE/da from -G_a / G_E against -V0 times the midpoint from the level's
# charge integral, both in doubles: the largest relative difference over
# the draws below is about 1e-14
MIDPOINT_REL = 1e-12

# (theory, V0, a, level near): hbar = m = c = 1, L = 5; the fourth kfg
# level has an evanescent right side
TABLE = [("kfg", 0.5, 0.3, 2.1153), ("kfg", 0.5, -1.1, 2.4298),
         ("kfg", 1.5, 0.7, 3.1238), ("kfg", 1.5, 2.0, 2.2923),
         ("s", 0.5, 0.3, 1.0522)]


def test_the_first_level_gives_the_midpoint_to_fifty_digits():
    level = exact_level("kfg", 0.5, 0.3, 5.0, 2.1153)
    with mpmath.workdps(DIGITS):
        assert float(level.energy) == 2.1153077801406729
        assert float(level.de_da) == -0.013720856893500354
        assert abs(level.de_da + 0.5 * level.midpoint) <= 1e-45
        # route A's half-jump force has the other sign
        assert round(float(-0.5 * level.half_jump), 7) == 0.0018390


@pytest.mark.parametrize("theory,v0,a,guess", TABLE)
def test_box_levels_at_fifty_digits_take_the_midpoint(theory, v0, a, guess):
    level = exact_level(theory, v0, a, 5.0, guess)
    with mpmath.workdps(DIGITS):
        midpoint = -v0 * level.midpoint
        assert abs(level.de_da - midpoint) <= 1e-45 * abs(level.de_da)
        if theory == "s":
            assert level.rho_left == level.rho_right
        else:
            half_jump = -v0 * level.half_jump
            assert abs(level.de_da - half_jump) > abs(level.de_da)


@pytest.mark.parametrize("theory,v0,a,guess", TABLE)
def test_the_double_route_matches_the_fifty_digit_oracle(theory, v0, a,
                                                         guess):
    exact = exact_level(theory, v0, a, 5.0, guess)
    energy, de_da, rho_l, rho_r = box_level(
        theory, guess - 2e-3, guess + 2e-3, a, 5.0, PhysicalParams(v0=v0))
    # measured: 1.5e-16 relative for the level, 2.8e-15 for the rest
    with mpmath.workdps(DIGITS):
        assert abs(energy - exact.energy) <= 4e-16 * energy
        for value, ref in ((de_da, exact.de_da), (rho_l, exact.rho_left),
                           (rho_r, exact.rho_right)):
            assert abs(value - ref) <= 1e-13 * abs(ref)


def _draw(theory: str, regime: str, units: PhysicalParams, rng):
    """(lo, hi, a, L, params): a step and a bracket of one of its box
    levels, with lengths in hbar/mc and energies in mc^2.  The energies keep
    clear of every threshold; a draw whose window holds no sign change of
    the level condition is drawn again."""
    mc2 = units.rest_energy
    while True:
        half_length = units.hbar / (units.mass * units.c) * rng.uniform(2, 6)
        a = half_length * rng.uniform(-0.6, 0.6)
        if regime == "propagating":
            v0 = mc2 * rng.uniform(0.2, 1.0)
            base = 1.1 * v0 if theory == "s" else v0 + 1.1 * mc2
            window = (base, base + 2.0 * mc2)
        elif theory == "s":
            v0 = mc2 * rng.uniform(1.0, 3.0)
            window = (0.1 * v0, 0.9 * v0)
        else:       # 0 < E - v0 < mc^2: no Klein regime
            v0 = mc2 * rng.uniform(0.5, 1.5)
            window = (max(1.05 * mc2, v0 + 0.1 * mc2), v0 + 0.9 * mc2)
        pars = PhysicalParams(hbar=units.hbar, mass=units.mass, c=units.c,
                              v0=v0)
        grid = np.linspace(*window, 400)
        g = np.array([box_condition(theory, e, a, half_length, pars)
                      for e in grid])
        roots = np.flatnonzero(np.sign(g[:-1]) != np.sign(g[1:]))
        if roots.size:
            i = roots[rng.integers(roots.size)]
            return grid[i], grid[i + 1], a, half_length, pars


@pytest.mark.parametrize("units", UNITS, ids=("natural", "odd"))
@pytest.mark.parametrize("regime", ["propagating", "evanescent"])
@pytest.mark.parametrize("theory", ["s", "kfg"])
def test_seeded_box_levels_take_the_midpoint(theory, regime, units):
    rng = np.random.default_rng(18)
    for _ in range(20):
        lo, hi, a, half_length, pars = _draw(theory, regime, units, rng)
        energy, de_da, rho_l, rho_r = box_level(theory, lo, hi, a,
                                                half_length, pars)
        assert lo <= energy <= hi
        # the right side is in the drawn regime
        assert (energy - pars.v0 > (0.0 if theory == "s" else pars.rest_energy)
                ) == (regime == "propagating")
        midpoint = -pars.v0 * 0.5 * (rho_l + rho_r)
        assert abs(de_da - midpoint) <= MIDPOINT_REL * abs(de_da)
        if theory == "s":
            assert rho_l == rho_r
        else:
            # route A's half-jump misses by 1 + V0 / (2E - V0)
            half_jump = -pars.v0 * 0.5 * (rho_r - rho_l)
            assert abs(de_da - half_jump) > abs(de_da)
