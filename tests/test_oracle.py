"""The frozen sharp-step constants and the library's closed forms against
the 50-digit oracle of ``oracle_mp``, and the smooth solver against its
closed-form ramp."""

import math

import mpmath
import pytest

from oracle_mp import DIGITS, RAMP_DIGITS, ramp_reflection_s, sharp
from stepforce.core import PhysicalParams, RegularizedPotential
from stepforce.force import (delta_conventions, kfg_density_jump,
                             mean_force_closed)
from stepforce.modes import solve_step_mode
from stepforce.regularized import build_piecewise_model, solve_smooth_mode
from test_acceptance import (D_FORCE, KFG_FORCE, KFG_JUMP,
                             KFG_MIDPOINT_CANDIDATE, S_FORCE)

# the flagship experiments: hbar = m = c = 1, v0 = 0.5, E = 1 (s) or 2
S, KFG, DIRAC = sharp("s", 1.0, 0.5), sharp("kfg", 2.0, 0.5), sharp(
    "dirac", 2.0, 0.5)


@pytest.mark.parametrize("literal,exact", [
    pytest.param(S_FORCE, S.route_a, id="S_FORCE"),
    pytest.param(D_FORCE, DIRAC.route_a, id="D_FORCE"),
    pytest.param(KFG_JUMP, KFG.rho_right - KFG.rho_left, id="KFG_JUMP"),
    pytest.param(KFG_FORCE, KFG.route_a, id="KFG_FORCE"),
    pytest.param(KFG_MIDPOINT_CANDIDATE, -KFG.midpoint / 2,
                 id="KFG_MIDPOINT_CANDIDATE")])
def test_each_frozen_constant_is_its_exact_value_rounded(literal, exact):
    with mpmath.workdps(DIGITS):
        assert float(exact) == literal


def _cases():
    """(theory, E, v0, hbar, m, c) over every regime of each theory, in
    natural and in non-natural units."""
    for hbar, mass, c in ((1.0, 1.0, 1.0), (0.7, 2.0, 3.0)):
        mc2 = mass * c * c
        for theory in ("s", "kfg", "dirac"):
            energies = ((0.3, 1.0, 2.5) if theory == "s"
                        else (1.2 * mc2, 2.0 * mc2, 3.7 * mc2))
            for energy in energies:
                scale = energy if theory == "s" else mc2
                for share in (0.13, 0.5, 0.9, 1.3, 2.0, 3.5, 5.0):
                    yield theory, energy, share * scale, hbar, mass, c


# the largest distance measured over _cases is 12 ulps (the spin-0 jump in
# the Klein regime, in ulps of the larger one-sided density)
ULPS = 16


def _ulps(value, exact, scale) -> float:
    """|value - exact| in ulps of the double nearest ``scale``."""
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(value) - exact)
                     / math.ulp(float(abs(scale))))


@pytest.mark.parametrize("theory", ["s", "kfg", "dirac"])
def test_the_closed_forms_land_within_a_few_ulps_of_the_oracle(theory):
    seen = set()
    for case in _cases():
        if case[0] != theory:
            continue
        _, energy, v0, hbar, mass, c = case
        mode = solve_step_mode(theory, energy, PhysicalParams(
            hbar=hbar, mass=mass, c=c, v0=v0))
        seen.add(mode.regime)
        exact = sharp(*case)
        # a difference of the one-sided densities is scaled by their size
        dens = max(abs(exact.rho_left), abs(exact.rho_right))
        got = delta_conventions(mode)
        dist = {
            "left_value": _ulps(got["left_value"], exact.rho_left,
                                exact.rho_left),
            "right_value": _ulps(got["right_value"], exact.rho_right,
                                 exact.rho_right),
            "midpoint": _ulps(got["midpoint"], exact.midpoint,
                              exact.midpoint),
            "half_jump": _ulps(got["half_jump"], exact.half_jump, dens),
            "route_a": _ulps(mean_force_closed(mode), exact.route_a,
                             v0 * dens / 2 if theory == "kfg"
                             else exact.route_a)}
        if theory == "kfg":
            dist["jump"] = _ulps(kfg_density_jump(mode),
                                 exact.rho_right - exact.rho_left, dens)
        assert max(dist.values()) <= ULPS, (case, dist)
    assert seen == ({"propagating", "evanescent"} if theory == "s"
                    else {"propagating", "evanescent", "klein"})


# The Schrodinger ramp's relative miss |R_solver - R_exact| / R_exact at
# resolutions 8, 16, 32 and 64, as the ROADMAP (item 17) tabulates it
RAMP_RESOLUTIONS = (8, 16, 32, 64)
RAMP_MISSES = [
    (1.0, 0.5, 0.2, (5.89e-4, 1.47e-4, 3.68e-5, 9.21e-6)),
    (1.0, 0.5, 0.05, (3.68e-5, 9.21e-6, 2.30e-6, 5.75e-7)),
    (2.0, 1.5, 0.2, (8.32e-4, 2.08e-4, 5.20e-5, 1.30e-5)),
    (2.0, 1.5, 0.05, (5.21e-5, 1.30e-5, 3.26e-6, 8.14e-7)),
]


@pytest.mark.parametrize("energy,v0,eps,table", RAMP_MISSES)
def test_the_ramp_solver_converges_to_its_airy_form(energy, v0, eps, table):
    exact = ramp_reflection_s(energy, v0, eps)
    reg = RegularizedPotential(v0=v0, eps=eps, shape="ramp")
    misses = []
    with mpmath.workdps(RAMP_DIGITS):
        for res in RAMP_RESOLUTIONS:
            nm = solve_smooth_mode(build_piecewise_model(
                "s", energy, reg, PhysicalParams(v0=v0), res))
            misses.append(float(abs(abs(nm.r) ** 2 - exact) / exact))
    # midpoint sampling is second order in eps/res: the miss falls 4x per
    # doubling (3.9998 to 4.0000 measured)
    for coarse, fine in zip(misses, misses[1:]):
        assert 3.5 <= coarse / fine <= 4.5, misses
    # 10 % headroom over the table, whose entries are rounded to 3 digits
    for miss, listed in zip(misses, table):
        assert miss <= 1.1 * listed, misses


@pytest.mark.parametrize("hbar,mass", [(1.0, 1.0), (0.7, 2.0)])
def test_the_ramp_form_tends_to_the_sharp_step(hbar, mass):
    # R(eps) is even in eps: at eps = 1e-6 it is the sharp |r|^2 to
    # about (k eps)^2
    for energy, v0 in ((1.0, 0.5), (2.0, 1.5), (1.0, 3.0)):
        step = sharp("s", energy, v0, hbar, mass)
        with mpmath.workdps(RAMP_DIGITS):
            ramp = ramp_reflection_s(energy, v0, 1e-6, hbar, mass)
            assert abs(ramp - abs(step.r) ** 2) <= 1e-10 * abs(step.r) ** 2
