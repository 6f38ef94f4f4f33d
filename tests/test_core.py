"""Parameters, smoothed step potentials, and grids."""

import math
import os
import re
import sys
import tempfile

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from stepforce.core import (REG_SHAPES, GridSpec, PhysicalParams,
                            RegularizedPotential)
from stepforce.errors import InvalidWidth
from stepforce.timeevo import PacketSpec, gaussian_packet


def test_default_params_are_natural_units():
    pars = PhysicalParams()
    assert pars.hbar == pars.mass == pars.c == 1.0
    assert pars.rest_energy == 1.0


def test_rest_energy_scales_with_c_squared():
    pars = PhysicalParams(hbar=1.0, mass=2.0, c=10.0)
    assert pars.rest_energy == 200.0


@pytest.mark.parametrize("bad", [{"hbar": 0.0}, {"mass": -1.0}, {"c": 0.0}])
def test_nonpositive_constants_rejected(bad):
    with pytest.raises(ValueError):
        PhysicalParams(**bad)


# hypothesis caches the constants it reads from the source under the
# temporary directory, not in the checkout
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(),
                                     "stepforce-hypothesis"))

# each edge of the doubles, either sign: zeros, subnormals, the normal
# range's ends, NaN and the infinities
_EDGES = [0.0, 5e-324, 1e-310, sys.float_info.min, 1e-308, 1e-154, 1.0,
          1e154, 1e308, sys.float_info.max, math.inf, math.nan]
_CONSTANT = st.one_of(st.sampled_from(_EDGES + [-x for x in _EDGES]),
                      st.floats())


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(hbar=_CONSTANT, mass=_CONSTANT, c=_CONSTANT, v0=_CONSTANT)
def test_params_take_exactly_the_positive_constants_of_finite_mc2(
        hbar, mass, c, v0):
    # mc^2 is the double the constructor forms: mass * c**2 where that is
    # finite and positive (** can overflow), else (mass * c) * c; v0 takes
    # any value
    try:
        rest = mass * c**2
    except OverflowError:
        rest = math.inf
    if not 0.0 < rest < math.inf:
        rest = (mass * c) * c
    bad = [name for name, value in (("hbar", hbar), ("mass", mass), ("c", c))
           if not value > 0]
    if not bad and 0.0 < rest < math.inf:
        pars = PhysicalParams(hbar=hbar, mass=mass, c=c, v0=v0)
        assert pars.rest_energy == rest
        return
    with pytest.raises(ValueError) as refused:
        PhysicalParams(hbar=hbar, mass=mass, c=c, v0=v0)
    if bad:
        value = {"hbar": hbar, "mass": mass, "c": c}[bad[0]]
        assert str(refused.value) == f"{bad[0]} must be positive, got {value}"
    else:
        assert str(refused.value) == (
            f"the rest energy mass * c^2 of mass {mass!r} and c {c!r} must "
            f"be finite and positive")


@pytest.mark.parametrize("name", ["hbar", "mass", "c"])
def test_a_nan_constant_is_rejected_by_name_and_value(name):
    with pytest.raises(ValueError, match=f"^{name} must be positive, got nan$"):
        PhysicalParams(**{name: float("nan")})


@pytest.mark.parametrize("mass,c,rest", [(1e300, 1e-200, 1e-100),
                                         (1e-300, 1e200, 1e100)])
def test_a_rest_energy_past_the_square_of_c_is_accepted(mass, c, rest):
    # c**2 underflows to 0 or overflows, while mc^2 is a normal double
    assert PhysicalParams(mass=mass, c=c).rest_energy == rest


@pytest.mark.parametrize("mass,c", [(1.0, 1e200), (1e300, 1e10)])
def test_an_overflowing_rest_energy_is_rejected(mass, c):
    with pytest.raises(ValueError, match="rest energy mass \\* c\\^2 .* must "
                                         "be finite"):
        PhysicalParams(mass=mass, c=c)


@pytest.mark.parametrize("shape", REG_SHAPES)
def test_smoothed_step_midpoint_symmetry(shape):
    reg = RegularizedPotential(v0=0.7, eps=0.05, shape=shape)
    xs = np.linspace(-0.4, 0.4, 81)
    np.testing.assert_allclose(reg.eval(xs) + reg.eval(-xs), 0.7, atol=1e-15)
    assert reg.eval(0.0) == pytest.approx(0.35, abs=1e-15)


@pytest.mark.parametrize("shape", REG_SHAPES)
def test_smoothed_step_derivative_has_unit_mass(shape):
    reg = RegularizedPotential(v0=0.7, eps=0.05, shape=shape)
    half = reg.support_halfwidth()
    xs = np.linspace(-half, half, 40001)
    mass = np.trapezoid(reg.deriv(xs), xs)
    assert mass == pytest.approx(0.7, rel=1e-8)
    assert np.all(reg.deriv(xs) >= 0.0)


@pytest.mark.parametrize("shape", REG_SHAPES)
def test_smoothed_step_plateaus_outside_support(shape):
    reg = RegularizedPotential(v0=0.7, eps=0.05, shape=shape)
    half = reg.support_halfwidth()
    assert abs(reg.eval(half) - 0.7) <= 1e-16
    assert abs(reg.eval(-half)) <= 1e-16


def test_smoothed_step_derivative_matches_finite_difference():
    for shape in ("logistic", "erf"):
        reg = RegularizedPotential(v0=0.5, eps=0.1, shape=shape)
        for x in (-0.15, -0.02, 0.0, 0.07, 0.2):
            h = 1e-6
            fd = (reg.eval(x + h) - reg.eval(x - h)) / (2.0 * h)
            assert reg.deriv(x) == pytest.approx(fd, rel=1e-8, abs=1e-12)


def _inline_deriv(reg, x):
    """deriv as one expression per shape, its factors formed inline."""
    u = np.asarray(x, dtype=float) / reg.eps
    if reg.shape == "logistic":
        s = scipy.special.expit(u)
        return reg.v0 / reg.eps * s * (1.0 - s)
    if reg.shape == "erf":
        return reg.v0 / (reg.eps * np.sqrt(np.pi)) * np.exp(-(u**2))
    return np.where(np.abs(u) <= 1.0, reg.v0 / (2.0 * reg.eps), 0.0)


def _field_words(a):
    return a.dtype.str, np.ascontiguousarray(a).view(np.uint8).tobytes()


@pytest.mark.parametrize("shape", REG_SHAPES)
def test_deriv_is_its_factors_combined_word_for_word(shape):
    """deriv(x) has the words of the inline formula, at every point its
    factors or the scale v0 / eps can round differently: +-0, the logistic
    tails where expit rounds to 1 (and 1 - s to 0), erf's band where
    exp(-u^2) turns subnormal and the ramp's edges |u| = 1.  Its factors
    are of u alone: at x and eps times 2^-5 they keep their words, and
    deriv_from of them at that width has the inline formula's words."""
    rng = np.random.default_rng(36)
    tails = rng.uniform(36.0, 800.0, 100)
    band = rng.uniform(26.6, 27.3, 400)
    u = np.concatenate([rng.normal(scale=8.0, size=2000), [0.0, -0.0],
                        tails, -tails, band, -band])
    for v0, eps in ((0.5, 0.05), (-3.0, 0.2), (1e-300, 1e-3),
                    (7.0, 2.0**-40), (1e300, 3.0)):
        reg = RegularizedPotential(v0=v0, eps=eps, shape=shape)
        edges = np.array([-eps, eps])
        x = np.concatenate([u * eps, edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, 2.0 * edges)])
        want = _field_words(_inline_deriv(reg, x))
        factors = reg.deriv_factors(x)
        assert _field_words(reg.deriv(x)) == want
        assert _field_words(reg.deriv_from(factors)) == want
        if shape == "ramp":
            assert np.array_equal(factors[0], np.abs(x / eps) <= 1.0)
        narrow = RegularizedPotential(v0=v0, eps=eps * 2.0**-5, shape=shape)
        x_narrow = x * 2.0**-5
        assert (list(map(_field_words, narrow.deriv_factors(x_narrow)))
                == list(map(_field_words, factors)))
        assert (_field_words(narrow.deriv_from(factors))
                == _field_words(_inline_deriv(narrow, x_narrow)))


def test_shapes_outside_reg_shapes_are_refused():
    for shape in ("error-function", "linear-ramp", "LOGISTIC", "Erf", "spline"):
        with pytest.raises(ValueError, match=re.escape(
                f"unknown shape {shape!r}; expected one of "
                f"('logistic', 'erf', 'ramp')")):
            RegularizedPotential(0.5, 0.1, shape)


def test_invalid_width_and_unknown_shape_rejected():
    with pytest.raises(InvalidWidth):
        RegularizedPotential(v0=0.5, eps=0.0)
    with pytest.raises(InvalidWidth):
        RegularizedPotential(v0=0.5, eps=-0.1)
    with pytest.raises(ValueError):
        RegularizedPotential(v0=0.5, eps=0.1, shape="spline")


def test_ramp_support_is_exactly_eps():
    reg = RegularizedPotential(v0=1.0, eps=0.2, shape="ramp")
    assert reg.support_halfwidth() == 0.2
    assert reg.eval(0.21) == 1.0
    assert reg.eval(-0.21) == 0.0
    assert reg.deriv(0.21) == 0.0
    assert reg.deriv(0.0) == pytest.approx(1.0 / 0.4)


def test_grid_spec_spacing_and_validation():
    spec = GridSpec(x_min=-1.0, x_max=1.0, n_points=5)
    assert spec.dx == pytest.approx(0.5)
    grid = GridSpec(x_min=-40.0, x_max=40.0, n_points=321)
    xs = gaussian_packet(PacketSpec(x0=-10.0, sigma=2.0, k0=1.0, grid=grid)).x
    assert xs[0] == -40.0 and xs[-1] == 40.0 and len(xs) == 321
    assert np.diff(xs) == pytest.approx(grid.dx)
    with pytest.raises(ValueError, match=re.escape(
            "x_max must exceed x_min, got x_min = 1.0 and x_max = -1.0")):
        GridSpec(x_min=1.0, x_max=-1.0, n_points=5)
    with pytest.raises(ValueError, match=re.escape(
            "need at least 2 grid points, got 1")):
        GridSpec(x_min=0.0, x_max=1.0, n_points=1)
