"""Smoothed-step modes, the quadrature force, extrapolation, diagnostics."""

import cmath
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from reference_checks import (assert_complex_parts, complex_model,
                              complex_propagators)
from stepforce import cli, modes, regularized
from stepforce.core import REG_SHAPES, PhysicalParams, RegularizedPotential
from stepforce.errors import (BelowThreshold, InvalidWidth, NoConvergence,
                              ProbeInsideSmoothing, UnderResolved)
from stepforce.force import weak_product_check
from stepforce.modes import solve_step_mode
from stepforce.regularized import (ConvergenceSeries, _linspace, _march,
                                   _propagators, _running_sum,
                                   _smooth_density, build_piecewise_model,
                                   extrapolate, route_b_integral, route_b_sweep,
                                   smooth_jump_diagnostics,
                                   solve_smooth_mode)

PARS = PhysicalParams(v0=0.5)
S_FORCE = -0.68629150101523961
D_FORCE = -0.76209992275549869
KFG_MIDPOINT_CANDIDATE = -1.2926285272888564
KFG_SHARP_CLOSED = 0.18466121818412234


def _solve(*args) -> regularized.NumericalMode:
    """The smooth mode of build_piecewise_model(*args)."""
    return solve_smooth_mode(build_piecewise_model(*args))


def test_model_builder_guards():
    reg = RegularizedPotential(v0=0.5, eps=0.05)
    with pytest.raises(UnderResolved, match="resolution"):
        build_piecewise_model("s", 1.0, reg, PARS, resolution=4)


def test_model_covers_the_smoothing_window():
    reg = RegularizedPotential(v0=0.5, eps=0.05)
    model = build_piecewise_model("s", 1.0, reg, PARS)
    assert model.window == pytest.approx(reg.support_halfwidth())
    assert len(model.edges) == len(model.values) + 1
    assert np.all(np.diff(model.values) >= 0.0)
    assert model.values[0] <= 1e-12 and model.values[-1] >= 0.5 - 1e-12


@pytest.mark.parametrize("shape", REG_SHAPES)
@pytest.mark.parametrize("v0", [0.5, -3.0, 4.0])
def test_plateaus_are_the_profile_limits(shape, v0):
    # no box: the solver's plateaus 0 and v0 are the profile's limits
    # phi(-inf) and phi(+inf) exactly, so even a wide width needs no domain
    reg = RegularizedPotential(v0=v0, eps=1.0, shape=shape)
    assert reg.eval(-math.inf) == 0.0
    assert reg.eval(math.inf) == v0


@pytest.mark.parametrize("theory,energy", [("s", 1e308), ("kfg", 1e300),
                                           ("dirac", 1e300),
                                           ("s", math.nan), ("kfg", math.inf)])
def test_model_rejects_a_non_finite_plateau_k2(theory, energy):
    reg = RegularizedPotential(v0=0.5, eps=0.05)
    with pytest.raises(ValueError, match="k\\^2 on the plateau .* must be "
                                         "finite"):
        build_piecewise_model(theory, energy, reg, PARS)


def test_a_march_that_leaves_the_double_range_is_refused_by_name():
    # kappa x_s = 1131 at eps = 0.2: the transmitted wave exp(-kappa x_s)
    # the march starts from underflows to zero, and so would every state
    reg = RegularizedPotential(1e4, 0.2, "erf")
    model = build_piecewise_model("s", 1.0, RegularizedPotential(2.0, 0.05),
                                  PhysicalParams(v0=2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"^the smooth-step march leaves "
                           r"the double range at eps 0\.2, energy 1\.0, "
                           r"v0 10000\.0$"):
            _solve("s", 1.0, reg, PhysicalParams(v0=1e4))
        # a state that grows past the largest double
        with pytest.raises(ValueError, match=r"at eps 0\.05, energy 1\.0, "
                                             r"v0 2\.0$"):
            _march(model, np.array([1e308, 1e308j]))


@pytest.mark.parametrize("v0,mass", [(0.5, 1.1125369292536007e-308),
                                     (-2.0, 1.3e-308)])
def test_a_spin0_charge_weight_past_the_doubles_is_refused(v0, mass):
    # (E - phi)/mc^2 at E = 2 overflows on the left plateau at mc^2 =
    # DBL_MIN / 2, and only on the right one, E - v0 = 4, at 1.3e-308:
    # refused before the model forms it at route B's nodes; at mc^2 =
    # 5e-308 it is 8e307 at most, and the model builds
    reg = RegularizedPotential(v0=v0, eps=0.1)
    build_piecewise_model("kfg", 2.0, reg, PhysicalParams(mass=5e-308, v0=v0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=(
                r"^the spin-0 charge weight \|E - phi\|/mc\^2 = inf at "
                r"E = 2\.0 leaves the double range$")):
            build_piecewise_model("kfg", 2.0, reg,
                                  PhysicalParams(mass=mass, v0=v0))


def test_an_underflowed_incident_k_is_refused_as_the_sharp_solver_does():
    # above the threshold E > 0, k^2 = 2 m E / hbar^2 = 2e-600 rounds to 0:
    # the split into incident and reflected waves would divide by ik = 0
    pars = PhysicalParams(mass=1e-300, v0=0.5)
    reg = RegularizedPotential(v0=0.5, eps=0.1)
    message = (r"^k\^2 on the plateau phi = 0\.0 at energy 1e-300 underflows "
               r"to 0$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            solve_step_mode("s", 1e-300, pars)
        with pytest.raises(ValueError, match=message):
            _solve("s", 1e-300, reg, pars)
        with pytest.raises(ValueError, match=message):
            route_b_sweep("s", 1e-300, "logistic", 0.5, pars)


def _scalar_matrix(k2: complex, d: float) -> np.ndarray:
    entries = _propagators(np.array([k2]), np.array([d]))
    return np.array([[entries[0][0], entries[1][0]],
                     [entries[2][0], entries[3][0]]])


def test_plane_wave_propagator_is_exact():
    k2 = 2.0
    k = cmath.sqrt(k2)
    d = 0.3
    p = _scalar_matrix(complex(k2), d)
    start = np.array([1.0, 1j * k])
    out = p @ start
    np.testing.assert_allclose(out, np.exp(1j * k * d) * start, rtol=1e-14)
    assert abs(np.linalg.det(p) - 1.0) <= 1e-14


def test_decaying_propagator_is_exact():
    kappa = cmath.sqrt(2.0)
    p = _scalar_matrix(complex(-2.0), 0.4)
    start = np.array([1.0, -kappa])
    out = p @ start
    np.testing.assert_allclose(out, np.exp(-kappa * 0.4) * start, rtol=1e-14)


def test_propagator_series_branch_near_zero():
    p = _scalar_matrix(complex(1e-20), 1e-3)
    np.testing.assert_allclose(p, np.array([[1.0, 1e-3], [0.0, 1.0]]),
                               atol=1e-15)
    assert abs(np.linalg.det(p) - 1.0) <= 1e-14


def test_smooth_mode_approaches_the_sharp_mode():
    sharp = solve_step_mode("s", 1.0, PARS)
    errs = []
    for eps in (0.1, 0.05, 0.025):
        nm = _solve("s", 1.0, RegularizedPotential(v0=0.5, eps=eps), PARS)
        assert nm.defect <= 1e-12
        errs.append(abs(nm.r - sharp.r))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= 1e-3


@pytest.mark.parametrize("theory,energy", [("s", 1.0), ("kfg", 2.0),
                                           ("dirac", 2.0)])
def test_smooth_mode_conserves_flux(theory, energy):
    reg = RegularizedPotential(v0=0.5, eps=0.05)
    nm = _solve(theory, energy, reg, PARS)
    assert nm.defect <= 1e-12


def test_smooth_evanescent_mode_keeps_unit_reflection():
    reg = RegularizedPotential(v0=2.0, eps=0.05)
    nm = _solve("s", 1.0, reg, PhysicalParams(v0=2.0))
    assert abs(abs(nm.r) - 1.0) <= 1e-12


def test_smooth_strong_step_overreflects():
    pars = PhysicalParams(v0=5.0)
    sharp = solve_step_mode("kfg", 2.0, pars)
    # the strong-step regime converges slowly (first order in eps): assert
    # over-reflection and a strictly shrinking defect against the sharp mode
    errors = []
    for eps in (0.05, 0.025, 0.0125, 0.00625):
        nm = _solve("kfg", 2.0, RegularizedPotential(v0=5.0, eps=eps), pars)
        assert nm.defect <= 1e-12
        assert abs(nm.r) > 1.0
        errors.append(abs(nm.r - sharp.r) / abs(sharp.r))
    assert errors[0] > errors[1] > errors[2] > errors[3]
    assert errors[-1] <= 0.15


def test_smooth_mode_profile_is_consistent():
    reg = RegularizedPotential(v0=0.5, eps=0.05)
    nm = _solve("s", 1.0, reg, PARS)

    def at(x):
        """(u, u') at the one point x."""
        u, ux = nm.eval_scalar(np.array([x]))
        return u[0], ux[0]

    # derivative channel against a finite difference of the value channel
    for x in (-1.0, 0.02, 1.3):
        h = 1e-5
        up, _ = at(x + h)
        um, _ = at(x - h)
        _, ux = at(x)
        assert ux == pytest.approx((up - um) / (2.0 * h), rel=1e-7)
    # continuity across the window-plateau handoff
    edge = reg.support_halfwidth()
    for x0 in (edge, -edge):
        inner, _ = at(x0 - 1e-9)
        outer, _ = at(x0 + 1e-9)
        assert abs(inner - outer) <= 1e-8


def test_smooth_solver_rejects_below_threshold():
    reg = RegularizedPotential(v0=0.5, eps=0.05)
    with pytest.raises(BelowThreshold):
        _solve("kfg", 0.5, reg, PARS)


@pytest.mark.parametrize("shape,min_order,tol", [("logistic", 1.0, 1e-3),
                                                 ("erf", 1.5, 1e-4),
                                                 ("ramp", 1.5, 1e-4)])
def test_route_b_reaches_the_closed_nonrelativistic_force(shape, min_order,
                                                          tol):
    series = route_b_sweep("s", 1.0, shape, 0.5, PARS)
    assert all(d <= 1e-12 for d in series.defects)
    assert series.order >= min_order
    assert abs(series.extrapolated - S_FORCE) / abs(S_FORCE) <= tol


def test_route_b_reaches_the_closed_spin_half_force():
    series = route_b_sweep("dirac", 2.0, "erf", 0.5, PARS)
    assert series.order >= 1.5
    assert abs(series.extrapolated - D_FORCE) / abs(D_FORCE) <= 1e-4


def test_route_b_two_component_limit_is_the_midpoint_average():
    series = route_b_sweep("kfg", 2.0, "erf", 0.5, PARS)
    mid_rel = (abs(series.extrapolated - KFG_MIDPOINT_CANDIDATE)
               / abs(KFG_MIDPOINT_CANDIDATE))
    sharp_rel = (abs(series.extrapolated - KFG_SHARP_CLOSED)
                 / abs(KFG_SHARP_CLOSED))
    assert mid_rel <= 1e-3
    assert sharp_rel > 0.5


def test_route_b_two_component_limit_is_shape_independent():
    limits = [route_b_sweep("kfg", 2.0, shape, 0.5, PARS).extrapolated
              for shape in ("logistic", "erf", "ramp")]
    spread = (max(limits) - min(limits)) / abs(min(limits))
    assert spread <= 1e-3


def test_route_b_single_width_force():
    # a single finite width sits near the closed force with an error that
    # shrinks as the width halves (no extrapolation in this helper)
    errors = []
    for eps in (0.1, 0.05):
        reg = RegularizedPotential(v0=0.5, eps=eps, shape="erf")
        value = route_b_integral(_solve("s", 1.0, reg, PARS))
        errors.append(abs(value - S_FORCE) / abs(S_FORCE))
    assert errors[0] <= 1e-2
    assert errors[1] < 0.5 * errors[0]


@pytest.mark.parametrize("theory,energy,v0,shape", [
    ("s", 1.0, 100.0, "erf"), ("kfg", 2.0, 60.0, "logistic")])
def test_route_b_panels_resolve_the_local_wavelength(theory, energy, v0,
                                                     shape):
    # a decay length far below eps sets the panel width, 2 pi / (8 k_max):
    # the quadrature then meets a 32x finer panelling within the 1e-8 it
    # owes (5.3e-9 and 4.4e-9 measured; eps-wide panels miss by 2.7e-6 and
    # 4.3e-7)
    reg = RegularizedPotential(v0=v0, eps=0.2, shape=shape)
    nm = _solve(theory, energy, reg, PhysicalParams(v0=v0))
    width = 2.0 * math.pi / (8.0 * max(abs(nm.model.k), abs(nm.model.q)))
    assert width < reg.eps
    x, weights = regularized._gl_panels(nm.model.window, width / 32, 8, 12)
    # the density at the finer nodes from the mode's own evaluation
    u, _ = nm.eval_scalar(x)
    rho = np.abs(u) ** 2
    if theory == "kfg":
        rho *= modes._charge_weight(energy, reg.eval(x), nm.model.params)
    fine = -np.sum(weights * reg.deriv(x) * rho)
    assert abs(route_b_integral(nm) - fine) <= 1e-8 * abs(fine)


def test_extrapolate_recovers_linear_and_quadratic_laws():
    eps = (0.2, 0.1, 0.05)
    limit, order, err = extrapolate(eps, [3.0 + 2.0 * e for e in eps])
    assert limit == pytest.approx(3.0, abs=1e-12)
    assert order == pytest.approx(1.0, abs=1e-9)
    assert err == pytest.approx(0.1, rel=1e-9)
    limit, order, err = extrapolate(eps, [5.0 - 4.0 * e * e for e in eps])
    assert limit == pytest.approx(5.0, abs=1e-12)
    assert order == pytest.approx(2.0, abs=1e-9)


def test_extrapolate_flat_series_short_circuits():
    limit, order, err = extrapolate((0.2, 0.1, 0.05), (0.7, 0.7, 0.7))
    assert limit == 0.7
    assert np.isnan(order)
    assert err == 0.0
    # flat relative to its size: steps of 2.3e-13 on values near 1000,
    # which would not shrink if they counted
    vals = (1000.0, 1000.0 + 2.0**-42, 1000.0 + 2.0**-41)
    limit, order, err = extrapolate((0.2, 0.1, 0.05), vals)
    assert (limit, err) == (vals[-1], 0.0) and np.isnan(order)


def test_extrapolate_rejects_nonmonotone_series():
    with pytest.raises(NoConvergence, match="sign"):
        extrapolate((0.2, 0.1, 0.05), (1.0, 0.5, 0.8))
    with pytest.raises(NoConvergence, match="shrink"):
        extrapolate((0.2, 0.1, 0.05), (1.0, 0.9, 0.7))
    with pytest.raises(ValueError):
        extrapolate((0.2, 0.1), (1.0, 0.9))
    with pytest.raises(ValueError):
        extrapolate((0.05, 0.1, 0.2), (1.0, 0.9, 0.85))


def test_convergence_series_validates_widths():
    good = dict(theory="s", energy=1.0, v0=0.5, shape="erf",
                values=(1.0, 0.9, 0.85), defects=(0.0, 0.0, 0.0),
                extrapolated=0.8, order=1.0, error_estimate=0.01)
    ConvergenceSeries(epsilons=(0.2, 0.1, 0.05), **good)
    with pytest.raises(ValueError):
        ConvergenceSeries(epsilons=(0.05, 0.1, 0.2), **good)
    with pytest.raises(ValueError):
        ConvergenceSeries(epsilons=(0.2, 0.1), **dict(
            good, values=(1.0, 0.9), defects=(0.0, 0.0)))


def _np_extrapolate(epsilons, values):
    """extrapolate's former body, on numpy arrays: the reference its
    Python-float body must equal bit for bit."""
    eps = np.asarray(epsilons, dtype=float)
    vals = np.asarray(values, dtype=float)
    d = np.diff(vals)
    scale = max(np.max(np.abs(vals)), 1.0)
    if np.all(np.abs(d) < 1e-13 * scale):
        return float(vals[-1]), float("nan"), 0.0
    signs = np.sign(d[np.abs(d) > 1e-13 * scale])
    if len(set(signs.tolist())) > 1:
        raise NoConvergence(
            f"differences change sign, no power-law trend: {d.tolist()}")
    if np.any(np.abs(d[1:]) >= np.abs(d[:-1])):
        raise NoConvergence(
            f"differences do not shrink monotonically: {d.tolist()}")
    orders = [math.log(abs(d[i]) / abs(d[i + 1])) / math.log(eps[i] / eps[i + 1])
              for i in range(len(d) - 1)]
    p = float(np.mean(orders))
    ratio = eps[-1] ** p / (eps[-2] ** p - eps[-1] ** p)
    correction = d[-1] * ratio
    return float(vals[-1] + correction), p, abs(float(correction))


def _fit_or_refusal(fit, eps, vals):
    try:
        return [float(v).hex() for v in fit(eps, vals)]
    except NoConvergence as exc:
        return str(exc)


def _noisy_power_law(rng, n: int) -> tuple:
    """Seeded widths and values of a noisy power law over n geometric
    widths, a few noisy enough to be refused."""
    eps = rng.uniform(0.05, 1.0) * rng.uniform(0.3, 0.8) ** np.arange(n)
    vals = tuple((rng.normal() + rng.normal() * eps ** rng.uniform(0.3, 3.0)
                  + rng.normal(size=n) * 10.0 ** rng.uniform(-12, -3)
                  ).tolist())
    return tuple(eps.tolist()), vals


def test_extrapolate_equals_the_numpy_reference():
    """Seeded noisy power laws over 3 to 9 geometric widths: numpy's mean
    adds fewer than eight orders left to right, as the fit does."""
    rng = np.random.default_rng(1818)
    refusals = 0
    for n in range(3, 10):
        for _ in range(300):
            eps, vals = _noisy_power_law(rng, n)
            want = _fit_or_refusal(_np_extrapolate, eps, vals)
            assert _fit_or_refusal(extrapolate, eps, vals) == want
            refusals += isinstance(want, str)
    assert 0 < refusals < 7 * 300 // 4
    # the flat series, and each refusal with its text
    eps = (0.2, 0.1, 0.05)
    for vals in ((0.7, 0.7, 0.7), (-3.0, -3.0 + 1e-14, -3.0),
                 (1.0, 0.5, 0.8), (1.0, 0.9, 0.7)):
        assert (_fit_or_refusal(extrapolate, eps, vals)
                == _fit_or_refusal(_np_extrapolate, eps, vals))
    assert math.isnan(extrapolate(eps, (0.7, 0.7, 0.7))[1])
    with pytest.raises(NoConvergence) as sign:
        extrapolate(eps, (1.0, 0.5, 0.8))
    assert str(sign.value) == ("no-convergence: differences change sign, no "
                               "power-law trend: [-0.5, 0.30000000000000004]")
    with pytest.raises(NoConvergence) as shrink:
        extrapolate(eps, (1.0, 0.9, 0.7))
    assert str(shrink.value) == (
        "no-convergence: differences do not shrink monotonically: "
        "[-0.09999999999999998, -0.20000000000000007]")


def _neumaier_sum(values):
    """sum() of floats as CPython 3.12 and later add them: compensated."""
    total, comp = 0.0, 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_extrapolate_does_not_depend_on_the_sum_builtin(monkeypatch):
    """A compensated sum() changes the last bit of some means of 3 to 7
    orders; the fit still equals numpy's left-to-right mean."""
    monkeypatch.setattr(regularized, "sum", _neumaier_sum, raising=False)
    assert regularized.sum([0.1, 0.2, 0.3]) == 0.6 != 0.1 + 0.2 + 0.3
    rng = np.random.default_rng(1919)
    for n in range(5, 10):
        for _ in range(400):
            eps, vals = _noisy_power_law(rng, n)
            assert (_fit_or_refusal(extrapolate, eps, vals)
                    == _fit_or_refusal(_np_extrapolate, eps, vals))


def test_a_sweep_refuses_an_unknown_shape_before_any_model(monkeypatch):
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(regularized, "build_piecewise_model", no_model)
    for shape in ("error-function", "linear-ramp", "Erf"):
        with pytest.raises(ValueError, match=re.escape(
                f"unknown shape {shape!r}; expected one of "
                f"('logistic', 'erf', 'ramp')")):
            route_b_sweep("kfg", 2.0, shape, 0.5, PARS)


def test_widths_are_checked_before_any_model_is_built(monkeypatch):
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(regularized, "build_piecewise_model", no_model)
    good = dict(theory="s", energy=1.0, v0=0.5, shape="erf",
                values=(1.0, 0.9, 0.85), defects=(0.0, 0.0, 0.0),
                extrapolated=0.8, order=1.0, error_estimate=0.01)
    checks = [
        lambda eps: route_b_sweep("s", 1.0, "erf", 0.5, PARS, eps),
        lambda eps: extrapolate(eps, (1.0, 0.9, 0.85)),
        lambda eps: ConvergenceSeries(epsilons=eps, **good)]
    for check in checks:
        with pytest.raises(ValueError, match=re.escape(
                "epsilons must be strictly decreasing, got [0.05, 0.1, 0.2]")):
            check((0.05, 0.1, 0.2))
        with pytest.raises(ValueError, match=re.escape(
                "epsilons must be strictly decreasing, got [0.2, 0.1, 0.1]")):
            check((0.2, 0.1, 0.1))
        with pytest.raises(ValueError, match=re.escape(
                "epsilons needs at least 3 decreasing widths to extrapolate")):
            check((0.2, 0.1))
        # the fit's powers of a non-positive width are no real numbers
        for eps, shown in (((0.2, 0.1, 0.0), "0.0"),
                           ((-0.1, -0.2, -0.4), "-0.1")):
            with pytest.raises(InvalidWidth, match=re.escape(
                    "invalid-width: smoothing width must be positive, got "
                    + shown)):
                check(eps)


@pytest.mark.parametrize("energy", [1e12, 1e300])
def test_segment_count_is_bounded_before_allocating(energy):
    reg = RegularizedPotential(v0=0.5, eps=0.2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=r"needs .* segments .* bound is 1e\+06"):
            build_piecewise_model("s", energy, reg, PARS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_jump_diagnostics_probe_must_clear_the_smoothing():
    reg = RegularizedPotential(v0=0.5, eps=0.1)
    with pytest.raises(ProbeInsideSmoothing, match=re.escape(
            "probe offset 0.2 must exceed 3*eps = 0.30000000000000004")):
        smooth_jump_diagnostics(2.0, reg, PARS, probe_offset=0.2)


@pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf, 0.03])
def test_jump_diagnostics_refuse_a_non_finite_or_boundary_offset(offset):
    """NaN and +-inf are refused by name, as is exactly 3 eps, before a
    mode is solved: NaN would give an all-NaN boundary with no warning."""
    reg = RegularizedPotential(v0=0.5, eps=0.01)
    assert 3.0 * reg.eps == 0.03
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProbeInsideSmoothing, match=re.escape(
                f"probe offset {offset} must exceed 3*eps = 0.03 and be "
                f"finite")):
            smooth_jump_diagnostics(2.0, reg, PARS, probe_offset=offset)


def test_jump_diagnostics_reproduce_the_matricial_condition():
    fractions_v, fractions_d = [], []
    for eps in (0.01, 0.005, 0.0025):
        reg = RegularizedPotential(v0=0.5, eps=eps)
        diag = smooth_jump_diagnostics(2.0, reg, PARS, probe_offset=0.2)
        fractions_v.append(diag.projected_fraction_value)
        fractions_d.append(diag.projected_fraction_deriv)
        expected = modes._expected_jump(reg.v0, PARS.rest_energy, diag.psi0)
        rel = (np.linalg.norm(diag.jump_value - expected)
               / np.linalg.norm(expected))
        assert rel <= 0.05
    assert fractions_v[0] <= 0.005
    assert fractions_d[0] <= 0.01
    assert fractions_v[0] > fractions_v[1] > fractions_v[2]
    assert fractions_d[0] > fractions_d[1] > fractions_d[2]


def test_smooth_derivative_jump_reproduces_the_matricial_condition():
    """The lifted derivative jump tends to (v0 / 2mc^2) [-1, +1] psi_x(0),
    psi_x(0) the midpoint of the two transported derivatives, at first
    order in eps."""
    misses = []
    for eps in (0.01, 0.005, 0.0025):
        diag = smooth_jump_diagnostics(
            2.0, RegularizedPotential(v0=0.5, eps=eps), PARS, probe_offset=0.2)
        expected = modes._expected_jump(0.5, PARS.rest_energy, diag.psix0)
        misses.append(np.linalg.norm(diag.jump_deriv - expected)
                      / np.linalg.norm(expected))
    assert misses[0] <= 0.01
    for a, b in zip(misses, misses[1:]):
        assert 1.8 <= a / b <= 2.2


def test_jump_fractions_and_ratio_read_the_stored_jumps():
    # each fraction is |projected| / |jump| and the ratio the first
    # component over the second, on jumps whose norms are sqrt(20) and 5:
    # tau3 + i tau2 maps [a, b] to (a + b) [1, -1]
    zero = np.zeros(2, dtype=complex)
    diag = modes.FVBoundary(
        psi0=0j, psix0=0j, Psi_left=zero, Psix_left=zero,
        Psi_right=np.array([2.0, 4.0], dtype=complex),
        Psix_right=np.array([3.0, 4.0], dtype=complex))
    assert diag.projected_fraction_value == pytest.approx(
        6.0 * math.sqrt(2.0) / math.sqrt(20.0), rel=1e-15)
    assert diag.projected_fraction_deriv == pytest.approx(
        7.0 * math.sqrt(2.0) / 5.0, rel=1e-15)
    assert diag.component_ratio_value == 0.5
    still = replace(diag, Psi_right=zero, Psix_right=zero)
    assert still.projected_fraction_value == still.projected_fraction_deriv == 0.0
    assert cmath.isnan(still.component_ratio_value)


# ---------------------------------------------------------------------------
# batched evaluation against the per-segment, per-node reference
# ---------------------------------------------------------------------------
#
# The reference below is the one-matrix-at-a-time implementation the batched
# code replaced: one 2x2 propagator and one matmul per fine segment and per
# quadrature node, cmath throughout, and a running sum node by node.  The
# batched code must reproduce it exactly, so these tests assert ==, and
# compare arrays by their bits, as np.array_equal takes -0.0 for +0.0.

def _bits(a) -> np.ndarray:
    """The float words of a complex array, for a comparison bit for bit."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def _window_points(mode, x):
    """The points of x strictly inside the mode's smoothing window, where
    the route-B density evaluates; eval_scalar's plateau values are
    test_array_evaluation_equals_scalar_calls' to check."""
    edges = mode.model.edges
    return x[(edges[0] < x) & (x < edges[-1])]


def _ref_scalar_propagator(k2, d):
    if k2 == 0.0:
        return np.array([[1.0, d], [0.0, 1.0]], dtype=complex)
    kk = cmath.sqrt(k2)
    z = kk * d
    if abs(z) < 1e-8:
        s_over_k = d * (1.0 - z * z / 6.0)
        c = 1.0 - z * z / 2.0
    else:
        s_over_k = cmath.sin(z) / kk
        c = cmath.cos(z)
    return np.array([[c, s_over_k], [-k2 * s_over_k, c]], dtype=complex)


def _ref_dirac_propagator(phi, energy, params, d):
    hc = params.hbar * params.c
    mc2 = params.rest_energy
    a = (energy - phi + mc2)
    b = (energy - phi - mc2)
    gen = (1j / hc) * np.array([[0.0, a], [b, 0.0]], dtype=complex)
    q2 = complex(a * b / hc**2)
    if q2 == 0.0:
        return np.eye(2, dtype=complex) + d * gen
    kk = cmath.sqrt(q2)
    z = kk * d
    if abs(z) < 1e-8:
        s_over_k = d * (1.0 - z * z / 6.0)
        c = 1.0 - z * z / 2.0
    else:
        s_over_k = cmath.sin(z) / kk
        c = cmath.cos(z)
    return c * np.eye(2, dtype=complex) + s_over_k * gen


def _ref_propagator(model, i, d):
    phi = model.values[i]
    if model.theory == "dirac":
        return _ref_dirac_propagator(phi, model.energy, model.params, d)
    return _ref_scalar_propagator(
        complex(modes._plateau_k2(model.theory, model.energy, phi,
                                  model.params)), d)


def _ref_march(model, init_state):
    edges = model.edges
    states = np.empty((len(model.values), 2), dtype=complex)
    v = init_state.astype(complex)
    for i in range(len(model.values) - 1, -1, -1):
        v = _ref_propagator(model, i, edges[i] - edges[i + 1]) @ v
        states[i] = v
    return states


def _ref_inside(mode, x):
    edges = mode.model.edges
    i = min(int(np.searchsorted(edges, x, side="right")) - 1,
            len(mode.model.values) - 1)
    return _ref_propagator(mode.model, i, x - edges[i]) @ mode.seg_states[i]


def _ref_eval_scalar(mode, x):
    edges = mode.model.edges
    if x <= edges[0]:
        e_p = cmath.exp(1j * mode.model.k * x)
        e_m = cmath.exp(-1j * mode.model.k * x)
        return (e_p + mode.r * e_m, 1j * mode.model.k * (e_p - mode.r * e_m))
    if x >= edges[-1]:
        e_t = mode.t * cmath.exp(1j * mode.model.q * x)
        return (e_t, 1j * mode.model.q * e_t)
    v = _ref_inside(mode, x)
    return (complex(v[0]), complex(v[1]))


def _ref_density(mode, x):
    if mode.theory == "s":
        return abs(_ref_eval_scalar(mode, x)[0]) ** 2
    if mode.theory == "kfg":
        u = _ref_eval_scalar(mode, x)[0]
        return ((mode.model.energy - mode.model.reg.eval(x))
                / mode.model.params.rest_energy * abs(u) ** 2)
    psi = _ref_inside(mode, x)
    return float(np.real(np.vdot(psi, psi)))


def _ref_route_b_integral(mode):
    reg = mode.model.reg
    xs = mode.model.window
    kmax = max(abs(mode.model.k), abs(mode.model.q), 1e-6)
    width = min(reg.eps, 2.0 * math.pi / (8.0 * kmax))
    n_panels = max(int(math.ceil(2.0 * xs / width)), 8)
    edges = np.linspace(-xs, xs, n_panels + 1)
    nodes, weights = np.polynomial.legendre.leggauss(12)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        for node, weight in zip(nodes, weights):
            x = mid + half * node
            total += weight * half * reg.deriv(x) * _ref_density(mode, x)
    return -total


def _ref_solve(monkeypatch, *args):
    with monkeypatch.context() as patched:
        patched.setattr(regularized, "_march", _ref_march)
        return _solve(*args)


ODD_UNITS = PhysicalParams(hbar=2.0, mass=3.0, c=1.5, v0=0.5)
# (theory, energy, v0, shape, params): every theory and shape, evanescent
# right sides, and a unit system other than hbar = mass = c = 1
EXACT_CASES = [
    ("s", 1.0, 0.5, "logistic", PARS),
    ("s", 1.0, 0.5, "erf", PARS),
    ("s", 1.0, 0.5, "ramp", PARS),
    ("kfg", 2.0, 0.5, "logistic", PARS),
    ("kfg", 2.0, 0.5, "erf", PARS),
    ("kfg", 2.0, 0.5, "ramp", PARS),
    ("dirac", 2.0, 0.5, "logistic", PARS),
    ("dirac", 2.0, 0.5, "erf", PARS),
    ("dirac", 2.0, 0.5, "ramp", PARS),
    ("s", 1.0, 2.0, "erf", PARS),
    ("kfg", 2.0, 1.5, "logistic", PARS),
    ("dirac", 2.0, 1.5, "ramp", PARS),
    ("kfg", 2.0, 5.0, "erf", PARS),
    ("s", 1.0, 0.5, "logistic", ODD_UNITS),
    ("kfg", ODD_UNITS.rest_energy + 1.0, 0.5, "erf", ODD_UNITS),
    ("dirac", ODD_UNITS.rest_energy + 1.0, 0.5, "ramp", ODD_UNITS),
]


def _case_id(case):
    theory, energy, v0, shape, params = case
    units = "odd-units" if params is ODD_UNITS else "natural"
    return f"{theory}-E{energy:g}-V{v0:g}-{shape}-{units}"


@pytest.mark.parametrize("case", EXACT_CASES, ids=_case_id)
def test_batched_solve_and_route_b_equal_the_reference(case, monkeypatch):
    theory, energy, v0, shape, params = case
    for eps in (0.05, 0.0125):
        reg = RegularizedPotential(v0=v0, eps=eps, shape=shape)
        nm = _solve(theory, energy, reg, params)
        ref = _ref_solve(monkeypatch, theory, energy, reg, params)
        assert np.array_equal(_bits(nm.seg_states), _bits(ref.seg_states))
        assert (nm.r, nm.t, nm.defect) == (ref.r, ref.t, ref.defect)
        assert route_b_integral(nm) == _ref_route_b_integral(ref)


@pytest.mark.parametrize("theory,energy", [("s", 1.0), ("kfg", 2.0),
                                           ("dirac", 2.0)])
@pytest.mark.parametrize("shape", ["logistic", "erf", "ramp"])
def test_batched_sweep_limits_equal_the_reference(theory, energy, shape,
                                                  monkeypatch):
    series = route_b_sweep(theory, energy, shape, 0.5, PARS)
    with monkeypatch.context() as patched:
        patched.setattr(regularized, "_march", _ref_march)
        patched.setattr(regularized, "route_b_integral", _ref_route_b_integral)
        ref = route_b_sweep(theory, energy, shape, 0.5, PARS)
    assert series.values == ref.values
    assert series.defects == ref.defects
    assert series.extrapolated == ref.extrapolated
    assert series.order == ref.order


@pytest.mark.parametrize("theory,energy,v0,regime", [
    ("s", 1.0, 0.5, "propagating"), ("s", 1.0, 2.0, "evanescent"),
    ("kfg", 2.0, 0.5, "propagating"), ("kfg", 2.0, 1.5, "evanescent"),
    ("kfg", 2.0, 5.0, "klein")])
def test_value_only_density_equals_the_per_node_reference(theory, energy,
                                                          v0, regime):
    """The scalar density carries u alone to the nodes, yet route B equals
    the per-node 2x2 reference, and u equals eval_scalar's to the bit on
    the window's points (route B evaluates no others)."""
    params = PhysicalParams(v0=v0)
    assert solve_step_mode(theory, energy, params).regime == regime
    for shape, eps in (("erf", 0.05), ("logistic", 0.0125), ("ramp", 0.025)):
        nm = _solve(theory, energy,
                    RegularizedPotential(v0=v0, eps=eps, shape=shape), params)
        assert route_b_integral(nm) == _ref_route_b_integral(nm)
        x = _window_points(nm, np.linspace(-1.5, 1.5, 1001) * nm.model.window)
        u, _ = nm.eval_scalar(x)
        value_only = nm._carry(*regularized._segments(nm.model.edges, x),
                               value_only=True)
        assert np.array_equal(_bits(value_only), _bits(u))


@pytest.fixture(scope="module")
def report_route_b_widths():
    """What the report's route-B and jump-diagnostic stages solve and
    evaluate: the mode of each width (35 widths of seven sweeps, then three
    widths), each route-B value with its mode, and the (mode, mask) of each
    route-B density."""
    solves, integrals, densities = [], [], []
    real_solve, real_integral = solve_smooth_mode, route_b_integral

    def solve(*args, **kwargs):
        solves.append(real_solve(*args, **kwargs))
        return solves[-1]

    def integral(mode):
        integrals.append((mode, real_integral(mode)))
        return integrals[-1][1]

    def density(mode, on):
        densities.append((mode, on))
        return _smooth_density(mode, on)

    pars = cli.build_params(cli.load_config(None), 0.5)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(regularized, "solve_smooth_mode", solve)
        patched.setattr(regularized, "route_b_integral", integral)
        patched.setattr(regularized, "_smooth_density", density)
        cli._report_route_b(pars)
        cli._report_jump_diagnostics(pars)
    return solves, integrals, densities


def test_carried_slope_factors_give_deriv_at_every_report_width(
        report_route_b_widths):
    """Each sweep forms phi''s factors at its first width and carries them
    to the four it rescales; at each of the 35 widths phi' from them has
    the words of a fresh reg.deriv at the width's nodes."""
    solves, integrals, _ = report_route_b_widths
    assert sum(b.model.slope_factors is a.model.slope_factors
               for a, b in zip(solves[:35], solves[1:35])) == 7 * 4
    for nm, _ in integrals:
        reg = nm.model.reg
        fresh = reg.deriv(nm.model.nodes[0])
        carried = reg.deriv_from(nm.model.slope_factors)
        assert np.array_equal(fresh.view(np.uint64), carried.view(np.uint64))


@pytest.mark.parametrize("theory,energy", [
    ("s", 1.0), ("kfg", 2.0), ("dirac", 2.0)])
def test_carry_reads_the_same_words_from_a_reversed_view(theory, energy):
    """solve_smooth_mode's seg_states is C-contiguous, at a built and at a
    rescaled width, and _carry's gathers give the words of the reversed
    view the march returns."""
    model = None
    for eps in (0.2, 0.05):
        reg = RegularizedPotential(v0=0.5, eps=eps, shape="erf")
        model = (model and regularized._rescaled(model, reg)
                 or build_piecewise_model(theory, energy, reg, PARS))
        nm = solve_smooth_mode(model)
        assert nm.seg_states.flags.c_contiguous
        reversed_view = np.ascontiguousarray(nm.seg_states[::-1])[::-1]
        assert not reversed_view.flags.c_contiguous
        viewed = replace(nm, seg_states=reversed_view)
        sites = regularized._segments(model.edges, model.nodes[0])
        for value_only in (False,) if theory == "dirac" else (False, True):
            want = nm._carry(*sites, value_only=value_only)
            got = viewed._carry(*sites, value_only=value_only)
            assert np.array_equal(_bits(np.stack(want)), _bits(np.stack(got)))


def _np_panels(window: float, n_panels: int):
    """Twelve-point Gauss-Legendre panels over np.linspace's edges."""
    edges = np.linspace(-window, window, n_panels + 1)
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    mid = (0.5 * (edges[:-1] + edges[1:]))[:, None]
    nodes, weights = np.polynomial.legendre.leggauss(12)
    return (mid + half * nodes).ravel(), (weights * half).ravel()


def test_linspace_equals_numpy_on_every_report_grid(report_route_b_widths):
    """Each width's fine edges, rescaled or built, and its route-B panels
    are np.linspace's grids bit for bit."""
    solves, integrals, _ = report_route_b_widths
    assert len(solves) == 35 + 3 and len(integrals) == 35
    # the sweeps rescale every width after the first
    assert sum(b.model.values is a.model.values
               for a, b in zip(solves, solves[1:])) == 7 * 4
    for nm in solves:
        edges, xs = nm.model.edges, nm.model.window
        assert np.array_equal(edges.view(np.uint64),
                              np.linspace(-xs, xs, len(edges)).view(np.uint64))
    for nm, _ in integrals:
        x, weights, _ = nm.model.nodes
        ref_x, ref_weights = _np_panels(nm.model.window, len(x) // 12)
        assert np.array_equal(_bits(x), _bits(ref_x))
        assert np.array_equal(_bits(weights), _bits(ref_weights))


def test_linspace_equals_numpy_on_random_ranges():
    rng = np.random.default_rng(28)
    for _ in range(2000):
        start, stop = rng.normal(size=2) * 10.0 ** rng.integers(-300, 300,
                                                                size=2)
        num = int(rng.integers(2, 5000))
        for a, b in ((start, stop), (-abs(start), abs(start))):
            a, b = float(a), float(b)
            assert np.array_equal(_linspace(a, b, num).view(np.uint64),
                                  np.linspace(a, b, num).view(np.uint64))


def _assert_skips_exactly_the_zero_slope_nodes(nm, value, on):
    """The route-B density of a width took exactly its nodes where phi' is
    not 0, and its value has the bits of the sum over all nodes (an
    all-true mask); returns the terms of all nodes."""
    x, weights, _ = nm.model.nodes
    slope = nm.model.reg.deriv(x)
    assert np.array_equal(on, slope != 0.0)
    terms = weights * slope * _smooth_density(nm, np.full(len(x), True))
    assert np.array_equal(_bits(value), _bits(-_running_sum(terms)))
    return terms


def test_every_route_b_node_lies_strictly_inside_its_window(
        report_route_b_widths):
    """_smooth_density locates its nodes without plateau masks, so route B
    must place every node strictly between the window's edges; each width
    evaluates its density once, at the nodes of nonzero slope."""
    _, integrals, densities = report_route_b_widths
    assert len(densities) == 35
    for (nm, value), (mode, on) in zip(integrals, densities):
        assert mode is nm
        x, edges = nm.model.nodes[0], nm.model.edges
        assert edges[0] < x.min() and x.max() < edges[-1]
        _assert_skips_exactly_the_zero_slope_nodes(nm, value, on)


@pytest.mark.parametrize("theory,energy,v0,shape", [
    ("s", 1.0, 0.5, "logistic"), ("kfg", 2.0, 0.5, "erf"),
    ("s", 1.0, 0.5, "ramp"), ("dirac", 2.0, 0.5, "erf"),
    ("kfg", 2.0, 5.0, "ramp")])
def test_route_b_skips_exactly_the_nodes_of_zero_slope(theory, energy, v0,
                                                       shape, monkeypatch):
    """A node where phi' is exactly 0 adds w 0 rho = +-0 to a sum that
    starts at +0.0: the sum over the other nodes has the bits of the sum
    over all of them, also where a Klein density turns that term into -0.
    The narrower width is rescaled from the wider one, as in a sweep."""
    params = PhysicalParams(v0=v0)
    skipped, model = [], None
    for eps in (0.2, 0.0125):
        reg = RegularizedPotential(v0=v0, eps=eps, shape=shape)
        if model is None:
            model = build_piecewise_model(theory, energy, reg, params)
        else:
            model = regularized._rescaled(model, reg)
            assert model is not None
        nm = solve_smooth_mode(model)
        seen = []

        def density(mode, on):
            seen.append(on)
            return _smooth_density(mode, on)

        with monkeypatch.context() as patched:
            patched.setattr(regularized, "_smooth_density", density)
            value = route_b_integral(nm)
        assert len(seen) == 1
        terms = _assert_skips_exactly_the_zero_slope_nodes(nm, value, seen[0])
        slope = reg.deriv(model.nodes[0])
        skipped.append(int((slope == 0.0).sum()))
        if v0 > energy:
            # the Klein density is negative right of the step: -0 terms
            assert np.signbit(terms[slope == 0.0]).any()
    assert min(skipped) > 0


@pytest.mark.parametrize("theory,params,energy", [
    ("s", PARS, 1.0), ("kfg", PARS, 2.0), ("dirac", PARS, 2.0),
    ("s", ODD_UNITS, 1.0), ("kfg", ODD_UNITS, ODD_UNITS.rest_energy + 1.0),
    ("dirac", ODD_UNITS, ODD_UNITS.rest_energy + 1.0)])
def test_batched_propagators_cover_every_branch(theory, params, energy):
    """k^2 = 0, the |k d| < 1e-8 series, growing and decaying segments."""
    model = build_piecewise_model(
        theory, energy, RegularizedPotential(v0=0.5, eps=0.05), params)
    mc2 = params.rest_energy
    threshold = energy if theory == "s" else energy - mc2
    # k^2 = 0 exactly, propagating, evanescent and (relativistic) klein
    values = np.array([threshold, 0.0, 0.3, energy + 0.5, energy + 4.0 * mc2])
    model = regularized._model(theory, energy, np.linspace(-1.0, 1.0, 6),
                               values, model.reg, params, model.k, model.q)
    assert model.k2[0] == 0.0
    dists = np.array([-0.3, -1e-12, 0.0, 1e-12, 0.7, -2.0])
    idx = np.repeat(np.arange(len(values)), len(dists))
    d = np.tile(dists, len(values))
    gen = model.generator
    entries = _propagators(model.k2[idx], d,
                           None if gen is None else gen[:, idx])
    # Dirac's off-diagonal entries come over i
    off = 1.0 if gen is None else 1j
    for j, (i, dj) in enumerate(zip(idx.tolist(), d.tolist())):
        ref = _ref_propagator(model, i, np.float64(dj))
        got = np.array([[entries[0][j], off * entries[1][j]],
                        [off * entries[2][j], entries[3][j]]])
        # by value: where one component is zero, its sign may differ from
        # the reference's (its literal k^2 = 0 matrix has +0 where
        # -k^2 sin(kd)/k is -0j); the march below holds to the bit
        assert np.array_equal(got, ref), (i, dj)
    # to the bit, the parts of the batched complex body's entries
    ck2, cgen = complex_model(model)
    assert_complex_parts(entries, complex_propagators(
        ck2[idx], d, None if cgen is None else cgen[:, idx]), gen is not None)
    for init in ([0.3 - 0.2j, 1.1 + 0.4j], [1.0, 0.0], [0.0, 1j]):
        init = np.array(init, dtype=complex)
        assert np.array_equal(_bits(_march(model, init)),
                              _bits(_ref_march(model, init))), init


@pytest.mark.parametrize("theory,energy,v0", [("s", 1.0, 0.5),
                                              ("s", 1.0, 2.0),
                                              ("kfg", 2.0, 0.5),
                                              ("kfg", 2.0, 1.5),
                                              ("dirac", 2.0, 0.5),
                                              ("dirac", 2.0, 1.5)])
def test_array_evaluation_equals_scalar_calls(theory, energy, v0):
    reg = RegularizedPotential(v0=v0, eps=0.05, shape="erf")
    nm = _solve(theory, energy, reg, PhysicalParams(v0=v0))
    edges = nm.model.edges
    # plateaus, both window edges, segment edges (|k d| = 0), points just
    # past a segment edge (the series branch) and generic window points
    x = np.concatenate([[-20.0, -3.7, edges[0], edges[-1], 2.9, 20.0],
                        edges[1:-1:97], edges[1:-1:89] + 1e-13,
                        np.linspace(edges[0], edges[-1], 301)[1:-1]])
    if theory == "dirac":
        # the spinor is evaluated inside the window only, where route B's
        # nodes lie; each other point is refused by name
        inside = x[(x > edges[0]) & (x < edges[-1])]
        psi = nm.eval_spinor(inside)
        assert psi.shape == (len(inside), 2)
        for j, xj in enumerate(inside.tolist()):
            (one,) = nm.eval_spinor(np.array([xj]))
            assert np.array_equal(psi[j], one)
            assert np.array_equal(one, _ref_inside(nm, xj))
        window = re.escape(f"smoothing window ({-nm.model.window!r}, "
                           f"{nm.model.window!r}) only")
        for xj in (-20.0, float(edges[0]), float(edges[-1]), 20.0):
            with pytest.raises(ValueError, match=window + ".*"
                               + re.escape(f"got x = {xj!r}")):
                nm.eval_spinor(np.array([0.0, xj]))
    else:
        u, ux = nm.eval_scalar(x)
        for j, xj in enumerate(x.tolist()):
            (one_u,), (one_ux,) = nm.eval_scalar(np.array([xj]))
            assert (u[j], ux[j]) == (one_u, one_ux) == _ref_eval_scalar(nm, xj)


def test_the_spinor_refuses_nan_and_takes_no_points():
    nm = _solve("dirac", 2.0, RegularizedPotential(v0=0.5, eps=0.05), PARS)
    with pytest.raises(ValueError, match="window .* only, got x = nan$"):
        nm.eval_spinor(np.array([0.0, math.nan]))
    assert nm.eval_spinor(np.empty(0)).shape == (0, 2)


def test_the_scalar_takes_nan_to_nan():
    # NaN lies on neither plateau, and the window lookup clamps it to the
    # last segment, whose carry makes NaN of it
    nm = _solve("kfg", 2.0, RegularizedPotential(v0=0.5, eps=0.05), PARS)
    u, ux = nm.eval_scalar(np.array([0.0, math.nan]))
    assert cmath.isnan(u[1]) and cmath.isnan(ux[1])
    (u0,), (ux0,) = nm.eval_scalar(np.array([0.0]))
    assert (u[0], ux[0]) == (u0, ux0)


def test_each_evaluation_is_refused_for_the_other_kind_of_mode():
    reg = RegularizedPotential(v0=0.5, eps=0.05)
    dirac = _solve("dirac", 2.0, reg, PARS)
    with pytest.raises(ValueError, match="undefined for the spin-1/2"):
        dirac.eval_scalar(np.array([0.01]))
    for theory, energy in (("s", 1.0), ("kfg", 2.0)):
        scalar = _solve(theory, energy, reg, PARS)
        with pytest.raises(ValueError, match="only for the spin-1/2"):
            scalar.eval_spinor(np.array([0.01]))


# A double whose square the C library's pow rounds one ulp away from x * x
# (numpy's square): the batched code must square through pow, like the
# scalar code it replaced.
POW_SQUARE_DIFFERS = 4.68625888565849


def test_pow_square_differs_from_the_product():
    assert POW_SQUARE_DIFFERS ** 2 != POW_SQUARE_DIFFERS * POW_SQUARE_DIFFERS
    assert POW_SQUARE_DIFFERS ** 2 != np.square(POW_SQUARE_DIFFERS)


@pytest.mark.parametrize("theory,energy", [("s", 1.0), ("kfg", 2.0),
                                           ("s", 3.0), ("kfg", 7.0)])
def test_batched_k2_equals_the_scalar_formula(theory, energy):
    model = build_piecewise_model(
        theory, energy, RegularizedPotential(v0=0.5, eps=0.05), ODD_UNITS)
    # E - phi = 4.68625888565849 exactly, then the profile's own samples
    phi = energy - POW_SQUARE_DIFFERS
    assert energy - phi == POW_SQUARE_DIFFERS
    values = np.concatenate([[phi, -phi], model.values])
    model = regularized._model(theory, energy, model.edges, values, model.reg,
                               ODD_UNITS, model.k, model.q)
    ref = [complex(modes._plateau_k2(theory, energy, v, ODD_UNITS))
           for v in values.tolist()]
    assert model.k2.tolist() == ref


def test_density_equals_abs_squared_per_node():
    reg = RegularizedPotential(v0=0.5, eps=0.05)
    for theory, energy in (("s", 1.0), ("kfg", 2.0)):
        nm = _solve(theory, energy, reg, PARS)
        x = nm.model.nodes[0]
        # a segment state (a, 0) whose u at one route-B node is the
        # pow-sensitive value: there u = cos(k d) a, which a double next to
        # POW_SQUARE_DIFFERS / cos(k d) rounds to exactly
        i = len(x) // 3
        j, d = (a[i] for a in nm.model.node_sites[:2])
        (c,), _ = regularized._cos_sinc(nm.model.k2[[j]], np.array([d]))
        start = POW_SQUARE_DIFFERS / c
        states = nm.seg_states.copy()
        states[j] = next(a for a in start + np.spacing(start) * np.arange(-4, 5)
                         if c * a == POW_SQUARE_DIFFERS), 0.0
        nm = replace(nm, seg_states=states)
        u, _ = nm.eval_scalar(x)
        assert u[i] == POW_SQUARE_DIFFERS
        weight = (energy - reg.eval(x)) / PARS.rest_energy
        rho = _smooth_density(nm, np.full(len(x), True))
        for j, v in enumerate(u.tolist()):
            ref = abs(v) ** 2
            assert rho[j] == (ref if theory == "s" else weight[j] * ref)


def test_running_sum_equals_the_scalar_loop():
    def loop(terms, start=0.0):
        total = start
        for term in terms.tolist():
            total += term
        return total

    got = _running_sum(np.array([-0.0]))
    assert type(got) is float
    assert got == 0.0 and math.copysign(1.0, got) == 1.0
    assert math.copysign(1.0, loop(np.array([-0.0]))) == 1.0
    assert _running_sum(np.array([])) == 0.0
    rng = np.random.default_rng(7)
    terms = rng.normal(size=4001) * 10.0 ** rng.integers(-8, 8, size=4001)
    assert _running_sum(terms) == loop(terms)
    cterms = terms + 1j * terms[::-1]
    got = _running_sum(cterms, 0.0j)
    assert type(got) is complex and got == loop(cterms, 0.0j)


def test_weak_product_equals_the_per_node_reference():
    hbar, mass, energy = 2.0, 3.0, 1.0
    # at v0 = 1e4, kappa = 122 > 0.25 / eps: the panels are 0.25 / kappa
    # wide, narrower than eps, and mass 3 tells 2 m from 2 / m in kappa
    for v0 in (500.0, 1.0e4):
        reg = RegularizedPotential(v0=v0, eps=0.0025)
        got = weak_product_check(energy, reg,
                                 PhysicalParams(hbar=hbar, mass=mass))
        nm = _solve("s", energy, reg,
                    PhysicalParams(hbar=hbar, mass=mass, v0=v0))
        kappa = math.sqrt(2.0 * mass * (v0 - energy)) / hbar
        width = min(reg.eps, 0.25 / kappa)
        n_panels = max(int(math.ceil(2.0 * got.window / width)), 16)
        nodes, weights = np.polynomial.legendre.leggauss(10)
        edges = np.linspace(-got.window, got.window, n_panels + 1)
        total = 0.0 + 0.0j
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            mid = 0.5 * (a + b)
            for node, wgt in zip(nodes, weights):
                x = mid + half * node
                u, _ = _ref_eval_scalar(nm, x)
                total += wgt * half * reg.eval(x) * u
        assert got.integral == complex(total)
