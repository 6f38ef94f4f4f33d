"""Densities, the three-route mean force, and its limiting regimes.

Oracle values frozen from an independent symbolic derivation (exact
radicals evaluated to 30 digits).  Flagship points, natural units:

    nonrelativistic, E = 1, v0 = 1/2:
        rho(0) = 24 - 16 sqrt(2),  force = 8 sqrt(2) - 12
    two-component, E = 2, v0 = 1/2:
        rho(0-) = (1632 - 384 sqrt(15)) / 49
        rho(0+) = (1224 - 288 sqrt(15)) / 49
        jump    = (96 sqrt(15) - 408) / 49
        force   = (102 - 24 sqrt(15)) / 49
        mass term = (24 sqrt(15) - 102) / 7,  potential term =
        (612 - 144 sqrt(15)) / 49
    spin-1/2, E = 2, v0 = 1/2:
        rho(0) = 48 - 12 sqrt(15),  force = 6 sqrt(15) - 24
"""

import math
import re
import warnings

import numpy as np
import pytest

from stepforce.core import PhysicalParams, RegularizedPotential
from stepforce.errors import (BelowThreshold, UndefinedAtOrigin,
                              UnresolvedWindow)
from stepforce.force import (boundary_terms, delta_conventions, density,
                             infinite_step_sweep, interface_probe,
                             kfg_density_jump, mean_force_closed,
                             nonrel_residuals, weak_product_check)
from stepforce.modes import random_mode, solve_step_mode

from reference_checks import kfg_density_from_components

S_RHO0 = 1.3725830020304792
S_FORCE = -0.68629150101523961
KFG_RHO_LEFT = 2.9545794909459575
KFG_RHO_RIGHT = 2.2159346182094681
KFG_JUMP = -0.73864487273648937
KFG_FORCE = 0.18466121818412234
KFG_MIDPOINT = 2.5852570545777128
KFG_HALF_JUMP = -0.36932243636824468
KFG_MASS_TERM = -1.2926285272888564
KFG_POTENTIAL_TERM = 1.1079673091047341
D_RHO0 = 1.5241998455109974
D_FORCE = -0.76209992275549869

PARS = PhysicalParams(v0=0.5)


def test_density_undefined_at_origin():
    mode = solve_step_mode("kfg", 2.0, PARS)
    with pytest.raises(UndefinedAtOrigin):
        density(mode, 0.0)


def test_nonrelativistic_density_is_continuous():
    mode = solve_step_mode("s", 1.0, PARS)
    probe = interface_probe(mode)
    assert probe.rho_left == pytest.approx(S_RHO0, rel=1e-13)
    assert probe.rho_right == pytest.approx(S_RHO0, rel=1e-13)
    assert abs(probe.density_jump) <= 1e-13


def test_two_component_density_jumps_by_the_closed_amount():
    mode = solve_step_mode("kfg", 2.0, PARS)
    probe = interface_probe(mode)
    assert probe.rho_left == pytest.approx(KFG_RHO_LEFT, rel=1e-13)
    assert probe.rho_right == pytest.approx(KFG_RHO_RIGHT, rel=1e-13)
    assert kfg_density_jump(mode) == pytest.approx(KFG_JUMP, rel=1e-13)


def test_spin_half_density_is_continuous():
    mode = solve_step_mode("dirac", 2.0, PARS)
    probe = interface_probe(mode)
    assert probe.rho_left == pytest.approx(D_RHO0, rel=1e-13)
    assert abs(probe.density_jump) <= 1e-13 * probe.rho_left


def test_interface_current_is_continuous_in_every_regime():
    rng = np.random.default_rng(42)
    for theory in ("s", "kfg", "dirac"):
        for _ in range(30):
            mode = random_mode(theory, rng)
            probe = interface_probe(mode)
            scale = max(abs(probe.current_left), 1.0)
            assert (abs(probe.current_right - probe.current_left)
                    <= 1e-12 * scale)
            if mode.regime == "evanescent":
                assert abs(probe.current_left) <= 1e-12 * scale


def test_strong_step_carries_negative_current():
    mode = solve_step_mode("kfg", 2.0, PhysicalParams(v0=5.0))
    probe = interface_probe(mode)
    assert probe.current_left < 0.0
    assert probe.current_right < 0.0


def test_two_component_density_paths_agree_pointwise():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mode = random_mode("kfg", rng)
        for x in (-1.9, -0.5, 0.3, 2.2):
            direct = density(mode, x)
            lifted = kfg_density_from_components(mode, x)
            assert lifted == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_density_profile_matches_plane_wave_form():
    mode = solve_step_mode("kfg", 2.0, PARS)
    for x in (-1.3, -0.2):
        u = np.exp(1j * mode.k * x) + mode.r * np.exp(-1j * mode.k * x)
        assert density(mode, x) == pytest.approx(2.0 * abs(u) ** 2, rel=1e-13)
    for x in (0.2, 1.3):
        u = mode.t * np.exp(1j * mode.q * x)
        assert density(mode, x) == pytest.approx(1.5 * abs(u) ** 2, rel=1e-13)


def test_closed_force_flagships():
    assert mean_force_closed(solve_step_mode("s", 1.0, PARS)) == pytest.approx(
        S_FORCE, rel=1e-13)
    assert mean_force_closed(solve_step_mode("kfg", 2.0,
                                             PARS)) == pytest.approx(
        KFG_FORCE, rel=1e-13)
    assert mean_force_closed(solve_step_mode("dirac", 2.0,
                                             PARS)) == pytest.approx(
        D_FORCE, rel=1e-13)


def test_closed_force_under_a_barrier_is_minus_twice_kinetic():
    # E = 1 under v0 = 2: the closed force must equal -2 hbar^2 k^2 / m
    mode = solve_step_mode("s", 1.0, PhysicalParams(v0=2.0))
    assert mean_force_closed(mode) == pytest.approx(-4.0, rel=1e-14)


def test_jump_identity_and_route_agreement_over_random_sweep():
    rng = np.random.default_rng(314)
    for _ in range(100):
        mode = random_mode("kfg", rng)
        p = mode.params
        probe = interface_probe(mode)
        jump = kfg_density_jump(mode)
        closed = -(p.v0 / p.rest_energy) * abs(mode.psi0) ** 2
        scale = max(abs(jump), probe.rho_left, abs(probe.rho_right), 1e-300)
        assert abs(jump - closed) <= 1e-12 * scale
        force = mean_force_closed(mode)
        restated = (p.v0**2 / (2.0 * p.rest_energy)) * abs(mode.psi0) ** 2
        assert abs(force - restated) <= 1e-12 * max(abs(restated),
                                                    0.5 * p.v0 * scale)


def test_jump_functions_are_specific_to_the_two_component_theory():
    with pytest.raises(ValueError):
        kfg_density_jump(solve_step_mode("s", 1.0, PARS))
    with pytest.raises(ValueError):
        kfg_density_from_components(solve_step_mode("dirac", 2.0, PARS), 1.0)


def test_density_is_specific_to_the_spin0_theory():
    for theory, energy in (("s", 1.0), ("dirac", 2.0)):
        with pytest.raises(ValueError, match="specific to the spin-0 theory"):
            density(solve_step_mode(theory, energy, PARS), 0.5)


def test_boundary_terms_flagship_two_component():
    rep = boundary_terms(solve_step_mode("kfg", 2.0, PARS))
    assert rep.route_a == pytest.approx(KFG_FORCE, rel=1e-13)
    assert abs(rep.kinetic_term) <= 1e-13
    assert rep.mass_term == pytest.approx(KFG_MASS_TERM, rel=1e-13)
    assert rep.potential_term == pytest.approx(KFG_POTENTIAL_TERM, rel=1e-13)
    assert abs(rep.identity_residual) <= 1e-13


def test_boundary_terms_flagship_nonrelativistic():
    rep = boundary_terms(solve_step_mode("s", 1.0, PARS))
    assert rep.route_a == pytest.approx(S_FORCE, rel=1e-13)
    assert abs(rep.kinetic_term) <= 1e-14
    assert rep.mass_term == 0.0
    assert abs(rep.identity_residual) <= 1e-13


def test_boundary_terms_flagship_spin_half():
    rep = boundary_terms(solve_step_mode("dirac", 2.0, PARS))
    assert rep.route_a == pytest.approx(D_FORCE, rel=1e-13)
    assert rep.kinetic_term == 0.0
    assert abs(rep.identity_residual) <= 1e-13


@pytest.mark.parametrize("theory", ("s", "kfg", "dirac"))
def test_boundary_term_identity_over_random_sweep(theory):
    rng = np.random.default_rng(2024)
    for _ in range(60):
        mode = random_mode(theory, rng)
        rep = boundary_terms(mode)
        scale = max(abs(rep.route_a), abs(rep.mass_term),
                    abs(rep.potential_term), 1.0)
        assert abs(rep.identity_residual) <= 1e-12 * scale
        if theory == "s":
            kin_scale = 1.0 + abs(mode.k) ** 2 * abs(mode.t) ** 2
            assert abs(rep.kinetic_term) <= 1e-12 * kin_scale
        if theory == "kfg":
            kin_scale = 1.0 + abs(mode.psix0) ** 2
            assert abs(rep.kinetic_term) <= 1e-12 * kin_scale
            mid = delta_conventions(mode)["midpoint"]
            assert abs(rep.mass_term + mode.params.v0 * mid) <= 1e-12 * max(
                abs(rep.mass_term), 1.0)


def test_delta_conventions_flagship_table():
    table = delta_conventions(solve_step_mode("kfg", 2.0, PARS))
    assert table["left_value"] == pytest.approx(KFG_RHO_LEFT, rel=1e-13)
    assert table["right_value"] == pytest.approx(KFG_RHO_RIGHT, rel=1e-13)
    assert table["midpoint"] == pytest.approx(KFG_MIDPOINT, rel=1e-13)
    assert table["half_jump"] == pytest.approx(KFG_HALF_JUMP, rel=1e-13)


def test_delta_conventions_collapse_for_continuous_density():
    table = delta_conventions(solve_step_mode("s", 1.0, PARS))
    assert table["left_value"] == pytest.approx(table["right_value"],
                                                rel=1e-13)
    assert abs(table["half_jump"]) <= 1e-13


def test_nonrelativistic_limit_scales_as_inverse_c_squared():
    report = nonrel_residuals(0.1, (10.0, 100.0, 1000.0))
    assert all(row.tag == "ok" for row in report.rows)
    assert -2.2 <= report.slope <= -1.8
    dens = [row.residual_density for row in report.rows]
    assert dens[1] < dens[0] / 50.0
    assert dens[2] < dens[1] / 50.0
    force = [row.residual_force for row in report.rows]
    assert force[1] < force[0] / 50.0


def test_nonrelativistic_limit_tags_bad_inputs():
    report = nonrel_residuals(0.1, (0.2, 10.0))
    assert report.rows[0].tag == "not-nonrelativistic"
    assert math.isnan(report.rows[0].residual_force)
    assert report.rows[1].tag == "ok"
    assert math.isnan(report.slope)
    degenerate = nonrel_residuals(0.1, (10.0,), PhysicalParams(v0=0.0))
    assert degenerate.rows[0].tag == "degenerate"


def test_hard_wall_sweep_hits_the_exact_value():
    # -2 hbar^2 k^2 / m = -4E in any units
    for pars in (None, PhysicalParams(hbar=0.7, mass=2.0)):
        report = infinite_step_sweep(1.0, (10.0, 100.0, 1000.0), pars)
        for row in report.rows:
            assert row.tag == "ok"
            assert row.wall_value == pytest.approx(-4.0, rel=1e-15)
            assert row.route_a == pytest.approx(-4.0, rel=1e-12)
            # the one-sided-slope candidate misses by exactly energy / v0
            assert row.candidate_error == pytest.approx(1.0 / row.v0,
                                                        rel=1e-9)
        assert report.slope == pytest.approx(-1.0, abs=1e-6)


def test_hard_wall_sweep_rejects_subcritical_heights():
    report = infinite_step_sweep(1.0, (0.5, 1.0, 50.0))
    assert report.rows[0].tag == "rejected"
    assert report.rows[1].tag == "rejected"
    assert report.rows[2].tag == "ok"
    assert math.isnan(report.slope)


def test_weak_product_concentrates_on_the_wall_slope():
    devs = []
    for eps in (0.004, 0.002, 0.001):
        reg = RegularizedPotential(v0=1.0e4, eps=eps, shape="logistic")
        chk = weak_product_check(1.0, reg)
        devs.append(chk.deviation)
    assert devs[-1] <= 0.05
    assert devs[0] > devs[1] > devs[2]
    # measured against the sharp wall's -(hbar^2/2m) psi'(0-)
    target = -0.5 * solve_step_mode("s", 1.0, PhysicalParams(v0=1.0e4)).psix0
    assert chk.deviation == pytest.approx(
        abs(chk.integral - target) / abs(target), rel=1e-14)


def test_weak_product_is_unit_covariant():
    # E, V0 and mc^2 scaled by s through m, and eps by 1/s, scale every
    # wavenumber by s: the integral and its target keep their values, to
    # rounding, only if the quadrature panels scale with the lengths
    s = 2.3
    base = weak_product_check(1.0, RegularizedPotential(v0=1.0e4, eps=0.004))
    scaled = weak_product_check(
        s, RegularizedPotential(v0=s * 1.0e4, eps=0.004 / s),
        PhysicalParams(mass=s))
    assert scaled.integral == pytest.approx(base.integral, rel=1e-12)
    assert scaled.deviation == pytest.approx(base.deviation, rel=1e-11)
    assert scaled.window == pytest.approx(base.window / s, rel=1e-15)


def test_weak_product_window_is_a_tenth_of_one_over_k_at_any_hbar():
    hbar, mass, energy = 0.7, 1.3, 2.0
    chk = weak_product_check(energy, RegularizedPotential(v0=1.0e3, eps=0.004),
                             PhysicalParams(hbar=hbar, mass=mass))
    assert chk.window == pytest.approx(
        0.1 * hbar / math.sqrt(2.0 * mass * energy), rel=1e-15)


def test_weak_product_guards_its_regime():
    with pytest.raises(ValueError, match="v0/energy"):
        weak_product_check(1.0, RegularizedPotential(v0=50.0, eps=0.001))
    with pytest.raises(ValueError, match=re.escape(
            "weak-product regime needs v0/energy >= 100; got 50")):
        weak_product_check(2.0, RegularizedPotential(v0=100.0, eps=0.001))
    # no wall at v0 = 0, nor at a NaN energy: refused by the regime, by name
    for energy, v0 in ((1.0, 0.0), (math.nan, 1.0e4)):
        with pytest.raises(ValueError, match="regime needs v0/energy"):
            weak_product_check(energy, RegularizedPotential(v0=v0, eps=0.004))
    # no incident wave at E <= 0: BelowThreshold, not a ZeroDivisionError or
    # a math domain error
    for energy in (0.0, -1.0):
        with pytest.raises(BelowThreshold, match=re.escape(
                f"incidence needs E > 0, got E = {energy}")):
            weak_product_check(energy, RegularizedPotential(v0=1.0e4,
                                                            eps=0.004))
    # the window 0.1/k is 0.0707 at E = 1, inside the width 0.1
    with pytest.raises(UnresolvedWindow, match="window 0.0707"):
        weak_product_check(1.0, RegularizedPotential(v0=1.0e4, eps=0.1))


def test_route_c_runs_where_its_largest_product_still_fits():
    # k = 1.3e154 at hbar = 1.3e-154: the lifted derivatives' largest
    # product with psi_x(0), (1 + w) |psi_x(0)|^2 / 2 = 1.6e308, is finite,
    # so the lift is kept and route C still balances route A
    mode = solve_step_mode("kfg", 2.0, PhysicalParams(hbar=1.3e-154, v0=0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = boundary_terms(mode)
    assert report.route_a == pytest.approx(KFG_FORCE, rel=1e-14)
    assert abs(report.identity_residual) <= 1e-14
