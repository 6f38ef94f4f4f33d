"""Acceptance checklist: one test per shipped criterion, at the stated
tolerance and runtime budget.

Each test is numbered and self-contained so that `pytest -v` prints one
pass/fail line per criterion.  Flagship numbers are frozen from
high-precision evaluations of the closed-form expressions (documented in
tests/test_modes.py and tests/test_force.py); random sweeps are seeded.
"""

import time

import numpy as np
import pytest

from stepforce.core import PhysicalParams, RegularizedPotential
from stepforce.force import (boundary_terms, delta_conventions,
                             infinite_step_sweep, interface_probe,
                             kfg_density_jump, mean_force_closed,
                             nonrel_residuals, weak_product_check)
from stepforce.modes import bc_residuals, fv_lift, random_mode, solve_step_mode
from stepforce.regularized import route_b_sweep, smooth_jump_diagnostics

THEORIES = ("s", "kfg", "dirac")
PARS = PhysicalParams(v0=0.5)

# closed-form flagship values at (hbar, m, c) = 1, V0 = 0.5 and the
# per-theory flagship energies 1.0 (nonrelativistic) / 2.0 (relativistic)
S_FORCE = -0.68629150101523961
D_FORCE = -0.76209992275549869
KFG_JUMP = -0.73864487273648937
KFG_FORCE = 0.18466121818412234
KFG_MIDPOINT_CANDIDATE = -1.2926285272888564


def interface_residuals(mode):
    """Continuity and flux-budget defects of a sharp-step mode."""
    if mode.theory == "dirac":
        cont = max(abs((1.0 + mode.r) - mode.t),
                   abs(mode.lam_left * (1.0 - mode.r)
                       - mode.lam_right * mode.t))
        w_t = (abs(mode.t) ** 2 * mode.lam_right.real / mode.lam_left.real
               if mode.q.imag == 0.0 else 0.0)
    else:
        cont = max(abs((1.0 + mode.r) - mode.t),
                   abs(mode.k * (1.0 - mode.r) - mode.q * mode.t)
                   / abs(mode.k))
        w_t = (abs(mode.t) ** 2 * (mode.q.real / mode.k.real)
               if mode.q.imag == 0.0 else 0.0)
    flux = abs(1.0 - abs(mode.r) ** 2 - w_t)
    return float(cont), float(flux)


def test_criterion_01_matching_flux_and_evanescent_reflection():
    start = time.perf_counter()
    for theory in THEORIES:
        rng = np.random.default_rng(0)
        for _ in range(100):
            mode = random_mode(theory, rng)
            cont, flux = interface_residuals(mode)
            assert cont <= 1e-12
            assert flux <= 1e-12
            if mode.regime == "evanescent":
                assert abs(abs(mode.r) - 1.0) <= 1e-12
    assert time.perf_counter() - start < 5.0


def test_criterion_02_component_lift_interface_conditions():
    start = time.perf_counter()
    flagship = solve_step_mode("kfg", 2.0, PARS)
    assert bc_residuals(fv_lift(flagship), PARS).max() <= 1e-12
    rng = np.random.default_rng(99)
    for _ in range(25):
        mode = random_mode("kfg", rng)
        res = bc_residuals(fv_lift(mode), mode.params)
        assert res.value_jump <= 1e-12
        assert res.deriv_jump <= 1e-12
        assert res.value_projected <= 1e-12
        assert res.deriv_projected <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_criterion_03_density_jump_identity():
    flagship = solve_step_mode("kfg", 2.0, PARS)
    assert kfg_density_jump(flagship) == pytest.approx(KFG_JUMP, abs=1e-6)
    rng = np.random.default_rng(314)
    for _ in range(100):
        mode = random_mode("kfg", rng)
        probe = interface_probe(mode)
        mp = mode.params
        closed = -(mp.v0 / mp.rest_energy) * abs(mode.psi0) ** 2
        residual = abs((probe.rho_right - probe.rho_left) - closed)
        scale = max(abs(probe.rho_left), abs(probe.rho_right),
                    abs(closed), 1.0)
        assert residual <= 1e-12 * scale


def test_criterion_04_boundary_term_identity_and_route_agreement():
    flagship = solve_step_mode("kfg", 2.0, PARS)
    assert mean_force_closed(flagship) == pytest.approx(KFG_FORCE, abs=1e-6)
    for theory in THEORIES:
        rng = np.random.default_rng(2024)
        for _ in range(60):
            mode = random_mode(theory, rng)
            mp = mode.params
            rep = boundary_terms(mode)
            scale = max(abs(rep.route_a), abs(rep.mass_term),
                        abs(rep.potential_term), 1.0)
            assert abs(rep.identity_residual) <= 1e-12 * scale
            if theory != "kfg":
                continue
            half_jump_force = mean_force_closed(mode)
            restated = (mp.v0 ** 2 / (2.0 * mp.rest_energy)) \
                * abs(mode.psi0) ** 2
            assert abs(half_jump_force - restated) <= 1e-12 * abs(restated)
            midpoint = delta_conventions(mode)["midpoint"]
            assert abs(rep.mass_term + mp.v0 * midpoint) \
                <= 1e-12 * max(abs(rep.mass_term), 1.0)
            kin_scale = (mp.hbar ** 2 / (2.0 * mp.mass)) \
                * (1.0 + abs(mode.psix0) ** 2)
            assert abs(rep.kinetic_term) <= 1e-12 * kin_scale


def test_criterion_05_smooth_limit_matches_closed_force_s_dirac():
    start = time.perf_counter()
    cases = (("s", 1.0, S_FORCE, -0.6862915),
             ("dirac", 2.0, D_FORCE, -0.7621000))
    for theory, energy, closed, printed in cases:
        sharp = solve_step_mode(theory, energy, PARS)
        assert mean_force_closed(sharp) == pytest.approx(closed, rel=1e-14)
        for shape in ("logistic", "erf"):
            series = route_b_sweep(theory, energy, shape, 0.5, PARS)
            assert abs(series.extrapolated - closed) <= 1e-3 * abs(closed)
            assert abs(series.extrapolated - printed) <= 1e-3 * abs(printed)
            assert series.order >= 1.0
    assert time.perf_counter() - start < 60.0


def test_criterion_06_smooth_limit_kfg_matches_midpoint_candidate(
        report_runs):
    start = time.perf_counter()
    sharp = solve_step_mode("kfg", 2.0, PARS)
    sharp_closed = mean_force_closed(sharp)
    midpoint_candidate = -PARS.v0 * delta_conventions(sharp)["midpoint"]
    assert midpoint_candidate == pytest.approx(KFG_MIDPOINT_CANDIDATE,
                                               rel=1e-14)
    extrapolated = {}
    for shape in ("logistic", "erf", "ramp"):
        series = route_b_sweep("kfg", 2.0, shape, 0.5, PARS)
        extrapolated[shape] = series.extrapolated
    values = list(extrapolated.values())
    spread = (max(values) - min(values)) / abs(midpoint_candidate)
    assert spread <= 1e-3
    for value in values:
        assert abs(value - midpoint_candidate) \
            <= 5e-3 * abs(midpoint_candidate)
        assert abs(value - sharp_closed) > 5e-3 * abs(sharp_closed)
    verdicts = report_runs["bundle"]["route_b"]["kfg"]["verdicts"]
    for verdict in verdicts.values():
        assert verdict["matched"] == "midpoint_average"
        diffs = verdict["relative_differences"]
        assert set(diffs) == {"midpoint_average", "sharp_closed_form"}
        assert diffs["midpoint_average"] <= 5e-3
        assert diffs["sharp_closed_form"] > 5e-3
    assert time.perf_counter() - start < 120.0


def test_criterion_07_nonrelativistic_residual_slope():
    start = time.perf_counter()
    table = nonrel_residuals(0.1, (10.0, 100.0, 1000.0),
                             PhysicalParams(v0=0.05))
    assert all(row.tag == "ok" for row in table.rows)
    dens = [row.residual_density for row in table.rows]
    force = [row.residual_force for row in table.rows]
    assert dens[0] > dens[1] > dens[2]
    assert force[0] > force[1] > force[2]
    assert table.slope == pytest.approx(-2.0, abs=0.2)
    assert time.perf_counter() - start < 10.0


def test_criterion_08_hard_wall_limit_and_weak_product():
    start = time.perf_counter()
    flagship = solve_step_mode("s", 1.0, PhysicalParams(v0=2.0))
    assert mean_force_closed(flagship) == pytest.approx(-4.0, rel=1e-12)
    rng = np.random.default_rng(8)
    for _ in range(25):
        energy = float(rng.uniform(0.1, 2.0))
        v0 = energy * float(rng.uniform(1.1, 50.0))
        mode = solve_step_mode("s", energy, PhysicalParams(v0=v0))
        wall = -2.0 * mode.k.real ** 2
        assert mean_force_closed(mode) == pytest.approx(wall, rel=1e-12)
    sweep = infinite_step_sweep(1.0, (10.0, 100.0, 1000.0))
    assert sweep.slope == pytest.approx(-1.0, abs=0.1)
    deviations = []
    for eps in (0.004, 0.002, 0.001):
        reg = RegularizedPotential(v0=1.0e4, eps=eps, shape="logistic")
        deviations.append(weak_product_check(1.0, reg).deviation)
    assert deviations[-1] <= 0.05
    assert deviations[0] > deviations[1] > deviations[2]
    assert time.perf_counter() - start < 60.0


def test_criterion_09_regularized_projected_jumps():
    start = time.perf_counter()
    fractions_v, fractions_d = [], []
    for eps in (0.01, 0.005):
        reg = RegularizedPotential(v0=0.5, eps=eps, shape="logistic")
        diag = smooth_jump_diagnostics(2.0, reg, PARS, probe_offset=0.2)
        fractions_v.append(diag.projected_fraction_value)
        fractions_d.append(diag.projected_fraction_deriv)
    assert fractions_v[0] <= 0.01
    assert fractions_d[0] <= 0.01
    assert fractions_v[1] < fractions_v[0]
    assert fractions_d[1] < fractions_d[0]
    assert time.perf_counter() - start < 30.0


def test_criterion_10_ehrenfest_momentum_balance(report_runs):
    eh = report_runs["bundle"]["ehrenfest"]
    assert eh["free"]["max_deviation"] <= 1e-8
    assert eh["free"]["norm_drift"] <= 1e-8
    assert eh["scattering"]["max_deviation_rel"] <= 0.02
    assert eh["scattering"]["norm_drift"] <= 1e-8
    assert eh["scattering_half_dt"]["norm_drift"] <= 1e-8
    assert 3.0 <= eh["dt_halving_ratio"] <= 5.0
    # the three packet runs are a subset of one full report run
    assert min(report_runs["elapsed"]) < 120.0


def test_criterion_11_deterministic_report(report_runs):
    raw_a, raw_b = report_runs["raw"]
    assert raw_a == raw_b
