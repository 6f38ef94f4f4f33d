"""Exact stationary modes: matching, regimes, lifts, representation swaps.

Oracle values were derived independently by symbolic algebra (closed-form
matching coefficients evaluated to 30 digits) and frozen here as decimal
literals:

    nonrelativistic flagship, E = 1, v0 = 1/2:
        k = sqrt(2), q = 1, r = 3 - 2 sqrt(2)
    two-component flagship, E = 2, v0 = 1/2 (natural units):
        k = sqrt(3), q = sqrt(5)/2, r = (17 - 4 sqrt(15)) / 7
    spin-1/2 flagship, E = 2, v0 = 1/2:
        lambda = 1/sqrt(3), lambda' = 1/sqrt(5), r = 4 - sqrt(15)
    two-component strong step, E = 2, v0 = 5:
        q = -2 sqrt(2), r = -11/5 - 4 sqrt(6)/5
"""

import re

import numpy as np
import pytest

from stepforce import modes
from stepforce.core import PhysicalParams, RegularizedPotential
from stepforce.errors import (BelowThreshold, CrossCheckFailed,
                              UndefinedAtOrigin)
from stepforce.modes import (THEORIES, bc_residuals, dispersion, fv_lift,
                             random_mode, solve_step_mode)
from stepforce.regularized import build_piecewise_model, route_b_sweep

from reference_checks import (DEFAULT_MATRICES, MatrixSet, fv_components,
                              fv_system_residual, representation_swap_check)

S_R = 0.17157287525380990
S_T = 1.1715728752538099
KFG_R = 0.21543808788147607
KFG_T = 1.2154380878814761
D_R = 0.12701665379258311
D_T = 1.1270166537925831
KFG_KLEIN_R = -4.1595917942265425

PARS = PhysicalParams(v0=0.5)


def interface_residuals(mode):
    """Continuity and current-budget defects, restated from first principles.

    Continuity means the value (and the derivative, or for spin-1/2 the
    lower spinor component) agree from both sides; the current budget means
    reflected plus transmitted probability current equals the incident one,
    with the transmitted share zero in the evanescent regime.
    """
    if mode.theory == "dirac":
        cont = max(
            abs(1.0 + mode.r - mode.t),
            abs(mode.lam_left * (1.0 - mode.r) - mode.lam_right * mode.t))
        trans = (abs(mode.t) ** 2 * mode.lam_right.real / mode.lam_left.real
                 if mode.q.imag == 0.0 else 0.0)
    else:
        cont = max(
            abs(1.0 + mode.r - mode.t),
            abs(mode.k * (1.0 - mode.r) - mode.q * mode.t) / abs(mode.k))
        trans = (abs(mode.t) ** 2 * (mode.q.real / mode.k.real)
                 if mode.q.imag == 0.0 else 0.0)
    return float(cont), abs(1.0 - abs(mode.r) ** 2 - trans)


def test_flagship_nonrelativistic_mode():
    mode = solve_step_mode("s", 1.0, PARS)
    assert mode.regime == "propagating"
    assert mode.k == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert mode.q == pytest.approx(1.0, rel=1e-15)
    assert mode.r == pytest.approx(S_R, rel=1e-14)
    assert mode.t == pytest.approx(S_T, rel=1e-14)
    assert mode.r.imag == 0.0 and mode.t.imag == 0.0


def test_flagship_two_component_mode():
    mode = solve_step_mode("kfg", 2.0, PARS)
    assert mode.regime == "propagating"
    assert mode.k == pytest.approx(np.sqrt(3.0), rel=1e-15)
    assert mode.q == pytest.approx(np.sqrt(1.25), rel=1e-15)
    assert mode.r == pytest.approx(KFG_R, rel=1e-14)
    assert mode.t == pytest.approx(KFG_T, rel=1e-14)


def test_flagship_spin_half_mode():
    mode = solve_step_mode("dirac", 2.0, PARS)
    assert mode.regime == "propagating"
    assert mode.lam_left == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-15)
    assert mode.lam_right == pytest.approx(1.0 / np.sqrt(5.0), rel=1e-15)
    assert mode.r == pytest.approx(D_R, rel=1e-14)
    assert mode.t == pytest.approx(D_T, rel=1e-14)


def test_theories_outside_theories_are_refused():
    """Every entry point that takes a theory takes exactly THEORIES."""
    reg = RegularizedPotential(v0=0.5, eps=0.1)
    entry_points = [
        lambda theory: solve_step_mode(theory, 2.0, PARS),
        lambda theory: dispersion(theory, 2.0, 0.0, PARS),
        lambda theory: random_mode(theory, np.random.default_rng(0), PARS),
        lambda theory: build_piecewise_model(theory, 2.0, reg, PARS),
        lambda theory: route_b_sweep(theory, 2.0, "logistic", 0.5, PARS)]
    for theory in ("KFG", "kg", "schrodinger", "d", "Dirac", "tachyon"):
        for call in entry_points:
            with pytest.raises(ValueError, match=re.escape(
                    f"unknown theory {theory!r}; expected one of "
                    f"('s', 'kfg', 'dirac')")):
                call(theory)


def test_evanescent_nonrelativistic_mode_is_exactly_minus_i():
    # E = 1 under a v0 = 2 barrier: r = (k - i kappa)/(k + i kappa) with
    # kappa = k, hence exactly -i, and t = 1 - i
    mode = solve_step_mode("s", 1.0, PhysicalParams(v0=2.0))
    assert mode.regime == "evanescent"
    assert mode.q == pytest.approx(1j * np.sqrt(2.0), rel=1e-15)
    assert mode.r == pytest.approx(-1j, abs=1e-15)
    assert mode.t == pytest.approx(1.0 - 1j, abs=1e-15)
    assert abs(mode.r) == pytest.approx(1.0, abs=1e-15)


def test_evanescent_two_component_mode_is_rational_point():
    # E = 2, v0 = 5/2: kappa = sqrt(3)/2 gives r = 3/5 - 4i/5 exactly
    mode = solve_step_mode("kfg", 2.0, PhysicalParams(v0=2.5))
    assert mode.regime == "evanescent"
    assert mode.r == pytest.approx(0.6 - 0.8j, abs=1e-15)
    assert abs(mode.r) == pytest.approx(1.0, abs=1e-15)


def test_strong_step_two_component_mode_overreflects():
    mode = solve_step_mode("kfg", 2.0, PhysicalParams(v0=5.0))
    assert mode.regime == "klein"
    assert mode.q == pytest.approx(-2.0 * np.sqrt(2.0), rel=1e-15)
    assert mode.r == pytest.approx(KFG_KLEIN_R, rel=1e-14)
    assert abs(mode.r) > 1.0
    cont, flux = interface_residuals(mode)
    assert cont <= 1e-14
    assert flux <= 1e-13


def test_strong_step_spin_half_mode_transmits_positive_current():
    mode = solve_step_mode("dirac", 2.0, PhysicalParams(v0=5.0))
    assert mode.regime == "klein"
    assert mode.q.real < 0.0
    assert mode.lam_right.real > 0.0
    assert abs(mode.r) < 1.0
    cont, flux = interface_residuals(mode)
    assert cont <= 1e-14
    assert flux <= 1e-13


def test_dispersion_branches_and_thresholds():
    pars = PhysicalParams(v0=0.5)
    assert dispersion("s", 1.0, 0.0, pars) == pytest.approx(np.sqrt(2.0))
    assert dispersion("s", 1.0, 2.0, pars).imag > 0.0
    assert dispersion("kfg", 2.0, 5.0, pars).real < 0.0
    assert dispersion("s", 1.0, 1.0, pars) == 0.0
    assert dispersion("kfg", 2.0, 1.0, pars) == 0.0
    assert dispersion("kfg", 2.0, 3.0, pars) == 0.0
    assert modes._regime(dispersion("s", 1.0, 1.0, pars)) == "threshold"
    assert modes._regime(dispersion("kfg", 2.0, 3.0, pars)) == "threshold"
    assert modes._regime(dispersion("kfg", 2.0, 5.0, pars)) == "klein"
    assert modes._regime(dispersion("dirac", 2.0, 2.5, pars)) == "evanescent"


@pytest.mark.parametrize("theory,energy,phi,k2", [
    ("s", 1.7e308, 0.0, "inf"), ("kfg", 1e300, 0.0, "inf"),
    ("dirac", 1e300, 0.0, "inf"), ("s", 1e300, 1e308, "-inf")])
def test_sharp_modes_share_the_plateau_k2_check(theory, energy, phi, k2):
    # the check of the smooth-step model, with the same message
    message = re.escape(f"k^2 on the plateau phi = {phi!r} at energy "
                        f"{energy!r} is {k2}; it must be finite")
    with pytest.raises(ValueError, match=message):
        dispersion(theory, energy, phi, PARS)
    with pytest.raises(ValueError, match=message):
        solve_step_mode(theory, energy, PhysicalParams(v0=phi))


@pytest.mark.parametrize("theory", THEORIES)
def test_the_dispersion_regime_equals_the_mode_regime(theory):
    rng = np.random.default_rng(2718)
    regimes = set()
    for _ in range(300):
        mode = random_mode(theory, rng)
        regimes.add(mode.regime)
        assert modes._regime(dispersion(theory, mode.energy, mode.params.v0,
                                        mode.params)) == mode.regime
    assert regimes == ({"propagating", "evanescent"} if theory == "s"
                       else {"propagating", "evanescent", "klein"})


def test_below_threshold_incidence_is_refused():
    with pytest.raises(BelowThreshold, match="needs E >"):
        solve_step_mode("s", 0.0, PARS)
    with pytest.raises(BelowThreshold, match="needs E >"):
        solve_step_mode("s", -1.0, PARS)
    with pytest.raises(BelowThreshold, match="needs E >"):
        solve_step_mode("kfg", 0.9, PARS)
    with pytest.raises(BelowThreshold, match="needs E >"):
        solve_step_mode("dirac", 1.0, PARS)


def test_singular_matching_point_is_refused():
    # E = 2, v0 = 4 makes the transmitted wavenumber exactly -k
    with pytest.raises(ValueError, match=r"\(k \+ q = 0\) at energy 2.0 "
                                         r"and v0 4.0; "):
        solve_step_mode("kfg", 2.0, PhysicalParams(v0=4.0))
    # the guard is relative, |k + q| < 1e-12 |k|, in any units: 1e-12 off
    # the pole |k + q| / |k| is 6.7e-13, 1e-11 off it 6.7e-12
    for hbar in (1.0, 1e-3):
        with pytest.raises(ValueError, match="singular"):
            solve_step_mode("kfg", 2.0, PhysicalParams(hbar=hbar,
                                                       v0=4.0 + 1e-12))
        solve_step_mode("kfg", 2.0, PhysicalParams(hbar=hbar, v0=4.0 + 1e-11))


def test_mode_profile_matches_plane_wave_forms():
    mode = solve_step_mode("kfg", 2.0, PARS)
    for x in (-2.3, -0.7):
        want = np.exp(1j * mode.k * x) + mode.r * np.exp(-1j * mode.k * x)
        assert mode.u(x) == pytest.approx(want, rel=1e-14)
        want_x = 1j * mode.k * (np.exp(1j * mode.k * x)
                                - mode.r * np.exp(-1j * mode.k * x))
        assert mode.ux(x) == pytest.approx(want_x, rel=1e-14)
    for x in (0.4, 1.9):
        assert mode.u(x) == pytest.approx(mode.t * np.exp(1j * mode.q * x),
                                          rel=1e-14)
        assert mode.ux(x) == pytest.approx(
            1j * mode.q * mode.t * np.exp(1j * mode.q * x), rel=1e-14)
    assert mode.psi0 == pytest.approx(1.0 + mode.r, rel=1e-15)
    assert mode.psix0 == pytest.approx(1j * mode.k * (1.0 - mode.r), rel=1e-15)


def test_the_scalar_wave_function_is_refused_for_the_spin_half_theory():
    mode = solve_step_mode("dirac", 2.0, PARS)
    for x in (-0.5, 0.5):
        with pytest.raises(ValueError, match="undefined for the spin-1/2"):
            mode.u(x)


@pytest.mark.parametrize("theory", THEORIES)
def test_matching_residuals_equal_the_restated_reference(theory):
    rng = np.random.default_rng(0)
    regimes = set()
    for _ in range(100):
        mode = random_mode(theory, rng)
        regimes.add(mode.regime)
        assert modes.matching_residuals(mode) == interface_residuals(mode)
    assert regimes == ({"propagating", "evanescent"} if theory == "s"
                       else {"propagating", "evanescent", "klein"})


@pytest.mark.parametrize("theory", THEORIES)
def test_random_modes_satisfy_matching_and_current_budget(theory):
    rng = np.random.default_rng(1234)
    regimes = set()
    for _ in range(100):
        mode = random_mode(theory, rng)
        regimes.add(mode.regime)
        cont, flux = interface_residuals(mode)
        assert cont <= 1e-12
        assert flux <= 1e-12
        if mode.regime == "evanescent":
            assert abs(abs(mode.r) - 1.0) <= 1e-12
    assert "propagating" in regimes and "evanescent" in regimes
    if theory != "s":
        assert "klein" in regimes


def test_lift_reproduces_half_sum_half_difference_components():
    mode = solve_step_mode("kfg", 2.0, PARS)
    b = fv_lift(mode)
    # left of the step the weight is E/mc^2 = 2
    assert b.Psi_left[0] == pytest.approx(0.5 * 3.0 * mode.psi0, rel=1e-14)
    assert b.Psi_left[1] == pytest.approx(0.5 * (-1.0) * mode.psi0, rel=1e-14)
    # right of the step the weight is (E - v0)/mc^2 = 3/2
    assert b.Psi_right[0] == pytest.approx(0.5 * 2.5 * mode.psi0, rel=1e-14)
    assert b.Psi_right[1] == pytest.approx(0.5 * (-0.5) * mode.psi0, rel=1e-14)
    # components sum back to the scalar on both sides
    assert b.Psi_left[0] + b.Psi_left[1] == pytest.approx(mode.psi0, rel=1e-14)
    assert b.Psi_right[0] + b.Psi_right[1] == pytest.approx(mode.psi0,
                                                            rel=1e-14)


def test_lift_jump_is_the_matricial_interface_condition():
    rng = np.random.default_rng(99)
    # natural units, then units where mc^2 = 18, so v0/2mc^2 and v0 mc^2/2
    # differ
    for base in (None, PhysicalParams(hbar=0.7, mass=2.0, c=3.0)):
        for _ in range(25):
            mode = random_mode("kfg", rng, base)
            b = fv_lift(mode)
            res = bc_residuals(b, mode.params)
            assert res.max() <= 1e-12
            scale = mode.params.v0 / (2.0 * mode.params.rest_energy)
            np.testing.assert_allclose(
                b.jump_value, scale * np.array([-1.0, 1.0]) * mode.psi0,
                atol=1e-12)
    with pytest.raises(ValueError):
        fv_lift(solve_step_mode("s", 1.0, PARS))


def test_lift_jump_direction_is_annihilated_by_projector():
    proj = DEFAULT_MATRICES.tau3 + 1j * DEFAULT_MATRICES.tau2
    direction = np.array([-1.0, 1.0], dtype=complex)
    assert np.max(np.abs(proj @ direction)) == 0.0
    # the projector and direction the package checks the jumps with
    assert np.array_equal(modes._PROJECTOR, proj)
    assert np.array_equal(modes._JUMP_DIRECTION, direction)


def test_lifted_components_away_from_interface():
    mode = solve_step_mode("kfg", 2.0, PARS)
    for x in (-1.7, 0.9):
        Psi, Psix = fv_components(mode, x)
        w = (2.0 - (0.5 if x > 0.0 else 0.0))
        assert Psi[0] == pytest.approx(0.5 * (1.0 + w) * mode.u(x), rel=1e-14)
        assert Psix[1] == pytest.approx(0.5 * (1.0 - w) * mode.ux(x),
                                        rel=1e-14)
    with pytest.raises(UndefinedAtOrigin):
        fv_components(mode, 0.0)


def test_coupled_first_order_system_holds_off_the_interface():
    rng = np.random.default_rng(7)
    for _ in range(10):
        mode = random_mode("kfg", rng)
        for x in (-2.1, -0.3, 0.4, 1.8):
            assert fv_system_residual(mode, x) <= 1e-11


def test_representation_swap_leaves_observables_unchanged():
    swapped = MatrixSet(
        tau1=DEFAULT_MATRICES.tau1, tau2=DEFAULT_MATRICES.tau2,
        tau3=DEFAULT_MATRICES.tau3,
        alpha=DEFAULT_MATRICES.tau2.copy(), beta=DEFAULT_MATRICES.tau3.copy())
    for energy in (1.4, 2.0, 3.3):
        rep = representation_swap_check(energy, PARS, swapped)
        assert rep.max_abs_diff() <= 1e-12


def test_rotated_representation_also_agrees():
    # conjugate the default pair by a rotation; hermiticity, unit square and
    # anticommutation survive, so the observables must too
    theta = 0.7
    u = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]], dtype=complex)
    alpha = u @ DEFAULT_MATRICES.tau1 @ u.conj().T
    beta = u @ DEFAULT_MATRICES.tau3 @ u.conj().T
    rep = representation_swap_check(
        2.0, PARS, MatrixSet(tau1=DEFAULT_MATRICES.tau1,
                             tau2=DEFAULT_MATRICES.tau2,
                             tau3=DEFAULT_MATRICES.tau3,
                             alpha=alpha, beta=beta))
    assert rep.max_abs_diff() <= 1e-12


def test_bad_matrix_algebra_is_rejected():
    base = dict(tau1=DEFAULT_MATRICES.tau1, tau2=DEFAULT_MATRICES.tau2,
                tau3=DEFAULT_MATRICES.tau3)
    with pytest.raises(ValueError, match="anticommute"):
        representation_swap_check(
            2.0, PARS, MatrixSet(alpha=DEFAULT_MATRICES.tau1,
                                 beta=DEFAULT_MATRICES.tau1, **base))
    with pytest.raises(ValueError, match="Hermitian"):
        representation_swap_check(
            2.0, PARS, MatrixSet(alpha=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                 beta=DEFAULT_MATRICES.tau3, **base))
    with pytest.raises(ValueError, match="identity"):
        representation_swap_check(
            2.0, PARS, MatrixSet(alpha=0.5 * DEFAULT_MATRICES.tau1,
                                 beta=DEFAULT_MATRICES.tau3, **base))


@pytest.mark.parametrize("theory", ["kfg", "dirac"])
def test_random_modes_keep_clear_of_both_thresholds(theory):
    # E - v0 = +-mc^2 within 1e-3 is redrawn; without the redraw at
    # E - v0 = mc^2, 3 of these 10,000 draws land that close, per theory
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        mode = random_mode(theory, rng, PARS)
        gap = mode.energy - mode.params.v0
        assert min(abs(gap - 1.0), abs(gap + 1.0)) >= 1e-3


def test_random_s_modes_keep_clear_of_the_threshold():
    # E = v0 within 1e-3 is redrawn; without the redraw 7 of these 10,000
    # draws land that close
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        mode = random_mode("s", rng, PARS)
        assert abs(mode.energy - mode.params.v0) >= 1e-3


def test_random_mode_reports_exhausted_draws(monkeypatch):
    # every draw lands on the k + q pole, so rejection sampling gives up
    monkeypatch.setattr(modes, "dispersion",
                        lambda theory, energy, phi, params:
                        1.0 + 0.0j if phi == 0.0 else -1.0 + 0.0j)
    with pytest.raises(CrossCheckFailed,
                       match="no admissible s mode in 1000 draws"):
        random_mode("s", np.random.default_rng(0))
