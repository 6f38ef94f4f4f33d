"""Packet evolution: guards, conservation laws, momentum-balance audit."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

from stepforce import timeevo
from stepforce.core import GridSpec, PhysicalParams, RegularizedPotential
from stepforce.errors import BoxTooSmall, UnderResolved
from stepforce.modes import solve_step_mode
from stepforce.timeevo import (PacketSpec, compare_packet_rt,
                               ehrenfest_report, evolve, expectation_force,
                               expectation_momentum, expectation_position,
                               gaussian_packet, packet_rt)

from reference_checks import momentum_imag_residue

FREE_GRID = GridSpec(x_min=-30.0, x_max=30.0, n_points=1201)
FREE_SPEC = PacketSpec(x0=-10.0, sigma=2.0, k0=1.0, grid=FREE_GRID)


def test_packet_momentum_carries_hbar():
    natural = expectation_momentum(gaussian_packet(FREE_SPEC))
    doubled = expectation_momentum(
        gaussian_packet(FREE_SPEC, params=PhysicalParams(hbar=2.0)))
    assert doubled == 2.0 * natural


def test_packet_spec_guards():
    with pytest.raises(ValueError, match="width"):
        PacketSpec(x0=-10.0, sigma=0.0, k0=1.0, grid=FREE_GRID)
    with pytest.raises(ValueError, match="interface"):
        PacketSpec(x0=-3.0, sigma=2.0, k0=1.0, grid=FREE_GRID)
    with pytest.raises(BoxTooSmall):
        PacketSpec(x0=-10.0, sigma=2.0, k0=1.0,
                   grid=GridSpec(x_min=-25.0, x_max=30.0, n_points=1101))
    with pytest.raises(BoxTooSmall):
        PacketSpec(x0=-10.0, sigma=2.0, k0=1.0,
                   grid=GridSpec(x_min=-30.0, x_max=15.0, n_points=901))
    # on [-30, 30], 121 points give dx = 0.5 = sigma/4, the coarsest grid
    # accepted for sigma = 2; 120 points are just too coarse
    PacketSpec(x0=-10.0, sigma=2.0, k0=1.0,
               grid=GridSpec(x_min=-30.0, x_max=30.0, n_points=121))
    with pytest.raises(UnderResolved,
                       match=r"grid spacing 0\.504\d* does not resolve the "
                             r"packet width 2\.0; need dx <= sigma/4 = 0\.5"):
        PacketSpec(x0=-10.0, sigma=2.0, k0=1.0,
                   grid=GridSpec(x_min=-30.0, x_max=30.0, n_points=120))


def test_packet_spec_refuses_a_carrier_the_grid_cannot_hold():
    # FREE_GRID has dx = 0.05: pi/dx = 62.83185307179586, and that k0
    # times dx rounds to pi itself
    edge = math.pi / FREE_GRID.dx
    for k0 in (0.99 * edge, -0.99 * edge):
        PacketSpec(x0=-10.0, sigma=2.0, k0=k0, grid=FREE_GRID)
    for k0 in (edge, -edge, 1.01 * edge, math.inf, math.nan):
        with pytest.raises(UnderResolved, match=(
                rf"^under-resolved: grid spacing 0\.05 does not resolve the "
                rf"carrier k0 = {re.escape(str(k0))}; need \|k0\| < pi/dx = "
                rf"62\.83185307179586$")):
            PacketSpec(x0=-10.0, sigma=2.0, k0=k0, grid=FREE_GRID)


def test_packet_spec_refuses_a_grid_over_the_point_bound():
    # refused before gaussian_packet's linspace: 10^10 points would ask
    # numpy for 74.5 GiB
    grid = GridSpec(x_min=-30.0, x_max=30.0, n_points=timeevo._MAX_POINTS)
    PacketSpec(x0=-10.0, sigma=2.0, k0=1.0, grid=grid)
    for n in (timeevo._MAX_POINTS + 1, 10**10):
        with pytest.raises(ValueError, match=(
                rf"^the packet grid has {n} points; the bound is 1e\+06$")):
            PacketSpec(x0=-10.0, sigma=2.0, k0=1.0,
                       grid=replace(grid, n_points=n))


def test_a_step_free_state_feels_no_force():
    force = expectation_force(gaussian_packet(FREE_SPEC))
    assert type(force) is float and force == 0.0


def test_gaussian_packet_moments():
    state = gaussian_packet(FREE_SPEC)
    assert state.psi[0] == 0.0 and state.psi[-1] == 0.0
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert expectation_position(state) == pytest.approx(-10.0, abs=1e-8)
    assert expectation_momentum(state) == pytest.approx(1.0, rel=1e-6)
    assert momentum_imag_residue(state) <= 1e-12


def test_free_evolution_conserves_momentum_and_norm():
    for pars in (PhysicalParams(), PhysicalParams(hbar=0.7, mass=2.0)):
        state = gaussian_packet(FREE_SPEC, params=pars)
        p0 = expectation_momentum(state)
        out = evolve(state, dt=2e-3, n_steps=500)
        assert out.t == pytest.approx(1.0)
        assert abs(expectation_momentum(out) - p0) <= 1e-10
        assert abs(out.norm() - 1.0) <= 1e-10
        # straight-line center motion at p0/m, up to the lattice dispersion
        expected = -10.0 + p0 / pars.mass * 1.0
        assert expectation_position(out) == pytest.approx(expected, abs=2e-3)


def test_free_audit_reports_zero_force_balance():
    rep = ehrenfest_report(FREE_SPEC, None, dt=2e-3, t_final=1.0,
                           save_stride=50)
    assert rep.max_deviation <= 1e-8
    # no step, no force peak to divide by: the relative field holds the
    # absolute deviation, as report.json's ehrenfest.free does
    assert rep.max_deviation_rel == rep.max_deviation
    assert rep.norm_drift <= 1e-10
    assert np.all(rep.forces == 0.0)
    rows = list(rep.rows())
    assert len(rows) == 11
    assert rows[0][0] == 0.0 and rows[-1][0] == pytest.approx(1.0)
    assert np.isnan(rows[0][2]) and np.isnan(rows[-1][2])
    assert np.all(np.isfinite(rep.dpdt[1:-1]))


def test_scattering_audit_balances_momentum():
    grid = GridSpec(x_min=-36.0, x_max=28.0, n_points=2561)
    spec = PacketSpec(x0=-7.5, sigma=1.5, k0=1.2, grid=grid)
    reg = RegularizedPotential(v0=0.5, eps=0.1, shape="logistic")
    rep = ehrenfest_report(spec, reg, dt=5e-4, t_final=8.0, save_stride=40)
    fmax = float(np.max(np.abs(rep.forces)))
    assert fmax > 0.01
    assert rep.max_deviation_rel <= 0.02
    assert rep.norm_drift <= 1e-8
    assert rep.wall_amplitude <= 1e-6
    # part of the packet reflects, so momentum must drop...
    dp = rep.momenta[-1] - rep.momenta[0]
    assert rep.momenta[-1] < 0.8 * rep.momenta[0]
    # ...by exactly the time integral of the mean force
    impulse = float(np.trapezoid(rep.forces, rep.times))
    assert impulse == pytest.approx(dp, rel=0.02)


def test_audit_takes_phi_prime_once_and_keeps_the_observables_bits(
        monkeypatch):
    grid = GridSpec(x_min=-36.0, x_max=28.0, n_points=2561)
    spec = PacketSpec(x0=-7.5, sigma=1.5, k0=1.2, grid=grid)
    reg = RegularizedPotential(v0=0.5, eps=0.1, shape="logistic")
    calls = []
    deriv = RegularizedPotential.deriv
    monkeypatch.setattr(RegularizedPotential, "deriv",
                        lambda self, x: calls.append(x) or deriv(self, x))
    rep = ehrenfest_report(spec, reg, dt=5e-4, t_final=0.1, save_stride=50)
    assert len(calls) == 1 and len(rep.times) == 5
    # the first and the last save against the public observables
    for i, state in ((0, gaussian_packet(spec, reg)), (-1, rep.final_state)):
        assert rep.forces[i].tobytes() == np.float64(
            expectation_force(state)).tobytes()
        assert rep.norms[i].tobytes() == np.float64(state.norm()).tobytes()


def _solve_banded_reference(state, dt, n_steps):
    """Crank-Nicolson steps re-solved from scratch with solve_banded."""
    n = len(state.x)
    h = state.dx
    phi = np.zeros(n) if state.reg is None else state.reg.eval(state.x)
    alpha = 1j * dt / 2.0
    off = alpha * (-1.0 / (2.0 * h * h))
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 2:] = off
    ab[1, :] = 1.0 + alpha * (1.0 / (h * h) + phi)
    ab[2, :-2] = off
    ab[1, 0] = ab[1, -1] = 1.0
    diag_b = 1.0 - alpha * (1.0 / (h * h) + phi)
    psi = state.psi
    for _ in range(n_steps):
        rhs = np.zeros_like(psi)
        rhs[1:-1] = diag_b[1:-1] * psi[1:-1] - off * (psi[:-2] + psi[2:])
        psi = solve_banded((1, 1), ab, rhs)
    return psi


@pytest.mark.parametrize("reg", [
    None, RegularizedPotential(v0=0.5, eps=0.2, shape="logistic")])
def test_factored_kernel_matches_solve_banded_exactly(reg):
    grid = GridSpec(x_min=-40.0, x_max=40.0, n_points=2001)
    spec = PacketSpec(x0=-5.0, sigma=1.0, k0=2.0, grid=grid)
    state = gaussian_packet(spec, reg)
    dt, n_steps = 1e-3, 300
    out = evolve(state, dt, n_steps)
    np.testing.assert_array_equal(
        out.psi, _solve_banded_reference(state, dt, n_steps))
    rep = ehrenfest_report(spec, reg, dt, t_final=n_steps * dt,
                           save_stride=50)
    assert rep.final_state.t == out.t
    np.testing.assert_array_equal(rep.final_state.psi, out.psi)


def test_steps_solve_in_two_buffers_taken_in_turn():
    grid = GridSpec(x_min=-40.0, x_max=40.0, n_points=2001)
    state = gaussian_packet(PacketSpec(x0=-5.0, sigma=1.0, k0=2.0, grid=grid))
    views = [psi for _, psi in timeevo._cn_steps(state, 1e-3, 4)]
    # psi of step k is the buffer that step k + 2 solves in
    assert np.shares_memory(views[0], views[2])
    assert np.shares_memory(views[1], views[3])
    assert not np.shares_memory(views[0], views[1])
    assert not np.shares_memory(views[0], state.psi)
    # the last two yields still hold the last two solutions, edges at +0
    np.testing.assert_array_equal(views[2],
                                  _solve_banded_reference(state, 1e-3, 3))
    np.testing.assert_array_equal(views[3],
                                  _solve_banded_reference(state, 1e-3, 4))
    for psi in views:
        assert not np.signbit(psi[[0, -1]].view(float)).any()
        assert not psi[[0, -1]].any()


@pytest.mark.parametrize("save_stride", [1, 2])
def test_audit_saves_equal_evolve_to_their_times(save_stride):
    grid = GridSpec(x_min=-40.0, x_max=40.0, n_points=2001)
    spec = PacketSpec(x0=-5.0, sigma=1.0, k0=2.0, grid=grid)
    reg = RegularizedPotential(v0=0.5, eps=0.2, shape="logistic")
    dt, n_steps = 1e-3, 6
    rep = ehrenfest_report(spec, reg, dt, t_final=n_steps * dt,
                           save_stride=save_stride)
    assert len(rep.times) == n_steps // save_stride + 1
    start = gaussian_packet(spec, reg)
    for i, t in enumerate(rep.times):
        state = evolve(start, dt, i * save_stride)
        assert t == state.t
        assert rep.momenta[i].tobytes() == np.float64(
            expectation_momentum(state)).tobytes()
        assert rep.forces[i].tobytes() == np.float64(
            expectation_force(state)).tobytes()
        assert rep.norms[i].tobytes() == np.float64(state.norm()).tobytes()
    assert rep.final_state.t == state.t
    assert rep.final_state.psi.tobytes() == state.psi.tobytes()
    # states that outlive the run own their psi: no view of a step buffer
    assert rep.final_state.psi.flags.owndata and state.psi.flags.owndata
    np.testing.assert_array_equal(
        state.psi, _solve_banded_reference(start, dt, n_steps))


def test_finite_rhs_with_an_overflowing_sum_is_stepped(monkeypatch):
    monkeypatch.setattr(timeevo, "_WALL_TOL", np.inf)
    state = gaussian_packet(FREE_SPEC)
    psi = np.zeros_like(state.psi)
    psi[1:-1] = 1e306
    huge = replace(state, psi=psi)
    dt, h = 2e-3, huge.dx
    alpha = 1j * dt / 2.0
    rhs = ((1.0 - alpha / (h * h)) * psi[1:-1]
           + alpha / (2.0 * h * h) * (psi[:-2] + psi[2:]))
    with np.errstate(over="ignore"):
        # finite terms of about 1e306 each, an infinite sum
        assert np.isfinite(rhs).all() and not np.isfinite(rhs.sum())
    with warnings.catch_warnings():
        # the step itself takes no sum that could overflow and warn
        warnings.simplefilter("error")
        out = evolve(huge, dt, 1)
    assert np.isfinite(out.psi).all()
    np.testing.assert_array_equal(out.psi,
                                  _solve_banded_reference(huge, dt, 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 complex(0.0, np.inf)])
def test_non_finite_wave_function_is_rejected(bad):
    state = gaussian_packet(FREE_SPEC)
    psi = state.psi.copy()
    psi[600] = bad
    # the first step's rhs is not finite: the error names its time
    message = r"^wave function is not finite at t = 0\.252$"
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match=message):
        evolve(replace(state, psi=psi, t=0.25), dt=2e-3, n_steps=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("index", range(9))
def test_non_finite_point_anywhere_is_rejected_at_the_first_step(index, bad,
                                                                 monkeypatch):
    monkeypatch.setattr(timeevo, "_WALL_TOL", np.inf)
    # the check reads only the two points next to the walls: a bad value
    # at any index must reach both within the step it enters
    psi = np.zeros(9, dtype=complex)
    psi[index] = bad
    state = timeevo.EvolutionState(x=np.linspace(-1.0, 1.0, 9), psi=psi,
                                   t=0.25)
    with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=r"^wave function is not finite at t = 0\.26$"):
        evolve(state, dt=0.01, n_steps=3)


def test_non_finite_matrix_is_rejected():
    state = gaussian_packet(FREE_SPEC)
    with pytest.raises(ValueError, match="matrix is not finite"):
        evolve(state, dt=np.nan, n_steps=3)


@pytest.mark.parametrize("hbar,mass,message", [
    # dt/(2 hbar) overflows and hbar^2/(m h^2) underflows to 0: the matrix
    # would hold inf * 0
    (5e-324, 1.0, "the Crank-Nicolson phase scale dt/(2 hbar) = inf at dt "
     "0.001 and hbar 5e-324 is not finite"),
    # hbar^2 underflows to 0, or kin to a subnormal
    (1e-300, 1.0, "the kinetic coefficient hbar^2/(m h^2) = 0.0 at hbar "
     "1e-300, mass 1.0 and h 0.05000000000000071 is not a positive normal "
     "double"),
    (1e-156, 1.0, "the kinetic coefficient hbar^2/(m h^2) = "
     "3.99999999999376e-310 at hbar 1e-156, mass 1.0 and h "
     "0.05000000000000071 is not a positive normal double"),
    # hbar^2 overflows, where the mass keeps dt below m h^2/hbar
    (1e200, 1e200, "the kinetic coefficient hbar^2/(m h^2) = inf at hbar "
     "1e+200, mass 1e+200 and h 0.05000000000000071 is not a positive "
     "normal double")])
def test_a_matrix_scale_past_the_doubles_is_refused(hbar, mass, message):
    state = gaussian_packet(FREE_SPEC, params=PhysicalParams(hbar=hbar,
                                                             mass=mass))
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            evolve(state, dt=1e-3, n_steps=1)


@pytest.mark.parametrize("dt,n_steps,match", [
    (0.0, 3, "time step"), (-1e-3, 3, "time step"),
    (1e-3, -1, "step count")])
def test_evolve_rejects_bad_time_inputs(dt, n_steps, match):
    state = gaussian_packet(FREE_SPEC)
    with pytest.raises(ValueError, match=match):
        evolve(state, dt=dt, n_steps=n_steps)


@pytest.mark.parametrize("dt,t_final,match", [
    (0.0, 1.0, "time step"), (-1e-3, 1.0, "time step"),
    (np.nan, 1.0, "time step"), (1e-3, 0.0, "final time"),
    (1e-3, -1.0, "final time"), (1e-3, np.inf, "final time"),
    (1e-3, np.nan, "final time")])
def test_audit_rejects_bad_time_inputs(dt, t_final, match):
    with pytest.raises(ValueError, match=match):
        ehrenfest_report(FREE_SPEC, None, dt, t_final)


@pytest.mark.parametrize("dt,t_final,save_stride,saves", [
    (1e-3, 0.04, 40, 2), (1e-3, 0.05, 50, 2), (1e-3, 1e-16, 1, 1),
    (2e-3, 0.002, 1, 2)])
def test_audit_refuses_fewer_than_three_saves(monkeypatch, dt, t_final,
                                             save_stride, saves):
    # refused before the packet is built, let alone stepped
    monkeypatch.setattr(timeevo, "gaussian_packet", None)
    with pytest.raises(ValueError, match=re.escape(
            f"the audit needs at least 3 saves, got {saves} from t_final = "
            f"{t_final!r}, dt = {dt!r} and save_stride = {save_stride}")):
        ehrenfest_report(FREE_SPEC, None, dt, t_final, save_stride)


def test_evolution_and_audit_refuse_more_steps_than_the_bound(monkeypatch):
    # the bound lowered to 8, so that no test runs 10^7 steps; h = 2^-10
    # divides the final times exactly
    monkeypatch.setattr(timeevo, "_MAX_STEPS", 8)
    h = 2.0**-10
    state = gaussian_packet(FREE_SPEC)
    assert evolve(state, h, 8).t == 8 * h
    with pytest.raises(ValueError, match=r"^9 steps exceed the bound 8e\+00$"):
        evolve(state, h, 9)
    assert len(ehrenfest_report(FREE_SPEC, None, h, 8 * h, 4).times) == 3
    # refused before the step count is rounded up or the packet is built:
    # t_final / dt is 9, 1e301 and inf (whose ceil raises OverflowError)
    monkeypatch.setattr(timeevo, "gaussian_packet", None)
    for dt, t_final in ((h, 9 * h), (1e-300, 10.0), (1e-310, 1.0)):
        with pytest.raises(ValueError, match=re.escape(
                f"t_final = {t_final!r} and dt = {dt!r} take more than "
                f"8e+00 steps")):
            ehrenfest_report(FREE_SPEC, None, dt, t_final, 1)


def test_audit_of_three_saves_checks_the_middle_one():
    rep = ehrenfest_report(FREE_SPEC, None, 1e-3, 0.002, save_stride=1)
    assert len(rep.times) == 3
    assert np.isnan(rep.dpdt[[0, -1]]).all() and np.isfinite(rep.dpdt[1])
    assert rep.max_deviation == abs(rep.dpdt[1] - rep.forces[1])


def test_audit_checkpoints_pass_the_point_steps_still_to_go():
    # after each save but the last: grid points times the steps left
    seen = []
    ehrenfest_report(FREE_SPEC, None, 1e-3, 0.006, save_stride=2,
                     checkpoint=seen.append)
    assert seen == [1201 * 4, 1201 * 2]


def test_time_step_resolution_guard():
    state = gaussian_packet(FREE_SPEC)
    with pytest.raises(UnderResolved, match="time step"):
        evolve(state, dt=5e-3, n_steps=10)
    # the bound is m h^2 / hbar in any units, and a step equal to it passes
    pars = PhysicalParams(hbar=0.7, mass=2.0)
    state = gaussian_packet(FREE_SPEC, params=pars)
    bound = pars.mass * state.dx * state.dx / pars.hbar
    evolve(state, dt=bound, n_steps=1)
    with pytest.raises(UnderResolved, match="time step"):
        evolve(state, dt=bound * (1.0 + 1e-9), n_steps=1)


def test_smoothing_width_resolution_guard():
    reg = RegularizedPotential(v0=0.5, eps=0.1, shape="logistic")
    state = gaussian_packet(FREE_SPEC, reg)
    # h = 0.05 needs eps >= 0.2
    with pytest.raises(UnderResolved, match="smoothing width"):
        evolve(state, dt=1e-3, n_steps=10)


def test_relative_deviation_divides_by_the_force_peak():
    grid = GridSpec(x_min=-40.0, x_max=40.0, n_points=2001)
    spec = PacketSpec(x0=-5.0, sigma=1.0, k0=2.0, grid=grid)
    reg = RegularizedPotential(v0=0.5, eps=0.2, shape="logistic")
    rep = ehrenfest_report(spec, reg, 1e-3, t_final=6e-3, save_stride=2)
    peak = float(np.max(np.abs(rep.forces)))
    assert 0.0 < peak < 1e-3
    assert rep.max_deviation_rel == rep.max_deviation / peak


def test_stationary_references_take_the_carrier_energy():
    # E = (hbar k0)^2 / 2m = 1.1025 at hbar = 0.7, m = 2 and k0 = 3
    pars = PhysicalParams(hbar=0.7, mass=2.0)
    grid = GridSpec(x_min=-95.0, x_max=95.0, n_points=1900)
    spec = PacketSpec(x0=-25.0, sigma=5.0, k0=3.0, grid=grid)
    reg = RegularizedPotential(v0=0.5, eps=0.1, shape="logistic")
    rt = compare_packet_rt(gaussian_packet(spec, reg, pars), spec)
    sharp = solve_step_mode("s", 1.1025, replace(pars, v0=0.5))
    assert rt["r_stationary_sharp"] == pytest.approx(abs(sharp.r) ** 2,
                                                     rel=1e-14)
    assert rt["t_stationary_sharp"] == 1.0 - rt["r_stationary_sharp"]


def test_wall_contamination_aborts_the_run():
    grid = GridSpec(x_min=-20.0, x_max=10.0, n_points=601)
    spec = PacketSpec(x0=-10.0, sigma=1.0, k0=-2.0, grid=grid)
    state = gaussian_packet(spec)
    with pytest.raises(BoxTooSmall, match="wall amplitude"):
        evolve(state, dt=2e-3, n_steps=1500)


def test_packet_weights_are_fractions_of_the_norm():
    # |psi|^2 is 1 left of the step and 4 right of it, on a grid that
    # misses x = 0
    grid = GridSpec(x_min=-95.0, x_max=95.0, n_points=1900)
    spec = PacketSpec(x0=-25.0, sigma=5.0, k0=2.0, grid=grid)
    x = np.linspace(grid.x_min, grid.x_max, grid.n_points)
    state = timeevo.EvolutionState(
        x=x, psi=np.where(x < 0.0, 1.0, 2.0).astype(complex), t=0.0,
        reg=RegularizedPotential(v0=0.5, eps=0.1, shape="logistic"))
    r, t = packet_rt(state)
    assert r == pytest.approx(0.2, rel=1e-3) and t == 1.0 - r
    assert packet_rt(replace(state, psi=3.0 * state.psi)) == pytest.approx(
        (r, t), rel=1e-14)
    rt = compare_packet_rt(state, spec)
    smooth = rt["r_stationary_smooth"]
    assert rt["r_packet"] == r
    assert rt["rel_difference_smooth"] == pytest.approx(
        (r - smooth) / smooth, rel=1e-14)
    assert rt["abs_difference_sharp"] == abs(r - rt["r_stationary_sharp"])


def test_packet_norm_split_at_the_interface():
    # packet centered at -10 with sigma 2: the |psi|^2 mass past x = 0 is
    # the erfc tail at five sigma, ~3e-7
    state = gaussian_packet(FREE_SPEC)
    r, t = packet_rt(state)
    assert r + t == pytest.approx(1.0, abs=1e-14)
    assert r >= 1.0 - 1e-6
    assert t <= 1e-6


def test_rt_comparison_requires_narrow_momentum_spread():
    reg = RegularizedPotential(v0=0.5, eps=0.1, shape="logistic")
    state = gaussian_packet(FREE_SPEC, reg)
    with pytest.raises(UnderResolved, match="^" + re.escape(
            "under-resolved: momentum spread too broad for a single-momentum "
            "comparison: k0*sigma = 2 < 10") + "$"):
        compare_packet_rt(state, FREE_SPEC)


def test_rt_comparison_refuses_a_packet_with_no_step():
    # the step comes from the state: a free packet has none to compare with
    spec = replace(FREE_SPEC, k0=5.0)
    with pytest.raises(ValueError, match="needs a state with a step, "
                                         "got reg = None"):
        compare_packet_rt(gaussian_packet(spec), spec)


def test_packet_rt_matches_stationary_probabilities(report_runs):
    rt = report_runs["bundle"]["ehrenfest"]["packet_rt"]
    assert 0.0 < rt["r_packet"] < 0.05
    assert rt["t_packet"] == pytest.approx(1.0 - rt["r_packet"], abs=1e-12)
    # sharp-step reflection and transmission probabilities, absolute scale
    assert rt["abs_difference_sharp"] <= 0.05
    t_sharp = rt["t_stationary_sharp"]
    assert abs(rt["t_packet"] - t_sharp) <= 0.05
    # the smooth profile the packet actually hit is the tighter reference
    assert rt["rel_difference_smooth"] <= 0.10
    assert rt["abs_difference_sharp"] == pytest.approx(
        abs(rt["r_packet"] - rt["r_stationary_sharp"]), abs=1e-15)


def test_momentum_moves_by_the_lattice_force_of_each_midpoint_state():
    """Crank-Nicolson is the implicit midpoint rule for the lattice
    Hamiltonian H_h, so for the momentum P = -i hbar D4 that
    expectation_momentum takes, each step keeps

        <P>_{n+1} - <P>_n = dt <psibar, [phi, D4] psibar>_h,

    psibar the midpoint state, up to rounding: the kinetic part commutes
    with D4 away from the walls, where the packet is zero to 1e-60.  The
    running sum over 6,000 steps meets the momentum's change within 1e-11
    (2.9e-12 measured; scaling the explicit side's phi by 1 + 1e-9 gives
    1.4e-10), and each step's lattice force meets the trapezoid mean of
    -phi' within 2e-6 (7.4e-7 measured, at a force peak of 0.11)."""
    grid = GridSpec(x_min=-40.0, x_max=40.0, n_points=2001)
    spec = PacketSpec(x0=-7.5, sigma=1.5, k0=2.0, grid=grid)
    reg = RegularizedPotential(v0=0.5, eps=0.2, shape="logistic")
    dt, h = 1e-3, grid.dx
    state = gaussian_packet(spec, reg)
    x, phi, dphi = state.x, reg.eval(state.x), reg.deriv(state.x)
    d4 = timeevo._derivative_4th
    p0 = expectation_momentum(state)
    prev, impulse, balance, gap = state.psi.copy(), 0.0, 0.0, 0.0
    for _, psi in timeevo._cn_steps(state, dt, 6000):
        mid = 0.5 * (prev + psi)
        force = h * np.vdot(mid, phi * d4(mid, h) - d4(phi * mid, h)).real
        impulse += dt * force
        moved = expectation_momentum(replace(state, psi=psi)) - p0
        balance = max(balance, abs(moved - impulse))
        gap = max(gap, abs(force + np.trapezoid(dphi * np.abs(mid) ** 2, x)))
        prev = psi.copy()
    assert abs(impulse) > 0.2      # the packet met the step
    assert balance <= 1e-11
    assert gap <= 2e-6
