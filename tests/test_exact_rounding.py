"""The rounding facts the batched route-B arithmetic relies on.

Each test asserts equality of the bits (signs of zero included), not of
the values: the batched code must reproduce the scalar formulas exactly.
"""

import warnings

import numpy as np
import pytest

from reference_checks import (assert_complex_parts, cdiv, complex_model,
                              complex_propagators)
from stepforce.core import PhysicalParams, RegularizedPotential
from stepforce.regularized import (_cmul, _model, _propagators,
                                   build_piecewise_model)


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def test_float_power_square_equals_python_pow():
    rng = np.random.default_rng(2024)
    x = np.concatenate([
        [4.68625888565849, 0.0, -0.0, 5e-324, -5e-324, 1e150, -1e150,
         1e-150, -1e-150],
        rng.uniform(-10.0, 10.0, 50_000),
        rng.choice([-1.0, 1.0], 50_000) * 10.0 ** rng.uniform(-150, 150,
                                                               50_000)])
    ref = np.array([v ** 2 for v in x.tolist()])
    assert np.array_equal(bits(np.float_power(x, 2.0)), bits(ref))
    # the value that tells pow(x, 2) from x * x squares through pow
    assert np.float_power(4.68625888565849, 2.0) == 4.68625888565849 ** 2
    assert np.float_power(4.68625888565849, 2.0) != np.square(4.68625888565849)


def _axis_factors(rng, n, zero_sign):
    """Complex factors with one component exactly zero (of the given sign):
    real-valued, then imaginary-valued, magnitudes over 1e-20 .. 1e20."""
    mag = rng.normal(size=n) * 10.0 ** rng.uniform(-20, 20, n)
    zero = np.full(n, zero_sign)
    real_valued = np.empty(n, dtype=complex)
    real_valued.real, real_valued.imag = mag, zero
    imag_valued = np.empty(n, dtype=complex)
    imag_valued.real, imag_valued.imag = zero, mag[::-1]
    return real_valued, imag_valued


@pytest.mark.parametrize("zero_sign", [0.0, -0.0])
def test_product_with_an_axis_factor_equals_cmul(zero_sign):
    rng = np.random.default_rng(5)
    n = 20_000
    general = (rng.normal(size=n) * 10.0 ** rng.uniform(-20, 20, n)
               + 1j * rng.normal(size=n) * 10.0 ** rng.uniform(-20, 20, n))
    for axis in _axis_factors(rng, n, zero_sign):
        for a, b in ((axis, general), (general, axis), (axis, axis[::-1])):
            assert np.array_equal(bits(a * b), bits(_cmul(a, b)))
    # a float array is a real-valued factor with a +0 imaginary part
    real = rng.normal(size=n) * 10.0 ** rng.uniform(-20, 20, n)
    assert np.array_equal(bits(real * general), bits(_cmul(real, general)))


def test_general_products_need_cmul():
    # numpy's complex multiply fuses; with no zero component it can round
    # away from CPython's product, which is why _cmul stays for them
    rng = np.random.default_rng(9)
    a = rng.normal(size=5000) + 1j * rng.normal(size=5000)
    b = rng.normal(size=5000) + 1j * rng.normal(size=5000)
    ref = np.array([x * y for x, y in zip(a.tolist(), b.tolist())])
    assert np.array_equal(bits(_cmul(a, b)), bits(ref))


@pytest.mark.parametrize("theory,energy", [("s", 1.0), ("kfg", 2.0),
                                           ("dirac", 2.0)])
def test_propagators_at_zero_k2_are_the_free_propagator(theory, energy):
    """The |k d| < 1e-8 series gives c = 1 and s_over_k = d at k^2 = 0,
    whatever the sign of d, and nothing else moves: the entries carry the
    parts of the complex free propagator and of the complex body."""
    params = PhysicalParams(v0=0.5)
    model = build_piecewise_model(
        theory, energy, RegularizedPotential(v0=0.5, eps=0.05), params)
    mc2 = params.rest_energy
    threshold = energy if theory == "s" else energy - mc2
    # k^2 = 0 exactly, then propagating, evanescent and klein segments
    values = np.array([threshold, 0.0, 0.3, energy + 0.5,
                       energy + 4.0 * mc2])
    model = _model(theory, energy, np.linspace(-1.0, 1.0, len(values) + 1),
                   values, model.reg, params, model.k, model.q)
    dists = np.array([-0.3, 0.7, -2.0, 1e-12, -1e-12, 0.0, -0.0])
    idx = np.repeat(np.arange(len(values)), len(dists))
    d = np.tile(dists, len(values))
    (k2, gen), (ck2, cgen) = (model.k2, model.generator), complex_model(model)
    k2, ck2 = k2[idx], ck2[idx]
    gen, cgen = (None, None) if gen is None else (gen[:, idx], cgen[:, idx])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entries = _propagators(k2, d, gen)
    zero = k2 == 0.0
    assert zero.tolist() == (idx == 0).tolist()
    one, free = np.ones(zero.sum(), dtype=complex), d[zero].astype(complex)
    if gen is None:
        expected = (one, free, -ck2[zero] * free, one)
    else:
        expected = (one, free * cgen[0, zero], free * cgen[1, zero], one)
    assert_complex_parts([m[zero] for m in entries], expected,
                         gen is not None)
    nonzero = _propagators(k2[~zero], d[~zero],
                           None if gen is None else gen[:, ~zero])
    for got, rest in zip(entries, nonzero):
        assert np.array_equal(bits(got[~zero]), bits(rest))
    _assert_same_entries(k2, d, gen, cgen)


def test_one_exp_gives_the_complex_cos_and_sin():
    """The C library's complex exp, cos and sin share one sincos, so
    exp(i x) = cos(x + 0j) + i sin(x + 0j) bit for bit on the real axis."""
    rng = np.random.default_rng(31)
    n = 1_000_000 // 3
    tiny = np.finfo(float).tiny
    near = [np.nextafter(1e-8, 0.0), 1e-8, np.nextafter(1e-8, 1.0),
            np.nextafter(tiny, 0.0), tiny, np.nextafter(tiny, 1.0)]
    x = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1e6, -1e6], near, np.negative(near),
        rng.uniform(-1e6, 1e6, n), rng.uniform(-20.0, 20.0, n),
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 6.0, n)])
    e = np.exp(1j * x)
    assert np.array_equal(bits(e.real), bits(np.cos(x + 0j).real))
    assert np.array_equal(bits(e.imag), bits(np.sin(x + 0j).real))


def test_real_cos_and_sin_equal_the_parts_of_one_exp():
    """On the real axis _propagators takes np.cos and np.sin: they equal
    the parts of np.exp(1j x) bit for bit, save sin(-0.0) = -0.0 where the
    exp gives +0.0 (an entry the |k d| < 1e-8 series overwrites)."""
    rng = np.random.default_rng(1811)
    tiny = np.finfo(float).tiny
    near = [np.nextafter(1e-8, 0.0), 1e-8, np.nextafter(1e-8, 1.0)]
    edges = [0.0, 5e-324, tiny, *near]
    x = np.concatenate([edges, np.negative(edges),
                        rng.uniform(-1e6, 1e6, 1_000_000)])
    e = np.exp(1j * x)
    assert np.array_equal(bits(np.cos(x)), bits(e.real))
    differs = np.flatnonzero(bits(np.sin(x)) != bits(e.imag))
    assert differs.tolist() == np.flatnonzero(bits(x) == bits(-0.0)).tolist()
    assert differs.tolist() == [len(edges)]
    assert bits(np.sin(x[differs])).tolist() == bits([-0.0]).tolist()
    assert bits(e.imag[differs]).tolist() == bits([0.0]).tolist()


def test_cdiv_reference_equals_the_python_quotient():
    rng = np.random.default_rng(11)
    a = rng.normal(size=600) + 1j * rng.normal(size=600)
    b = rng.normal(size=600) + 1j * rng.normal(size=600)
    # by-real, by-imaginary and mixed divisors, real and imaginary ones
    for divisor in (b, b.real + 0.1j * b.real, 0.1 * b.imag + 1j * b.imag,
                    b.real + 0j, 1j * b.imag):
        ref = np.array([x / y for x, y in zip(a.tolist(), divisor.tolist())])
        assert np.array_equal(bits(cdiv(a, divisor)), bits(ref))
    ref = np.array([x / 6.0 for x in a.tolist()])
    assert np.array_equal(bits(cdiv(a, 6.0)), bits(ref))


def test_the_real_generator_is_the_imaginary_part_of_the_complex_one():
    """(1 / (hbar c)) f rounds as the imaginary part of (i / (hbar c)) f,
    whose real part is +-0, on the report's Dirac models and on odd
    units."""
    odd = PhysicalParams(hbar=0.7, mass=2.0, c=3.0, v0=0.5)
    for params, energy in ((PhysicalParams(v0=0.5), 2.0),
                           (odd, odd.rest_energy + 1.3)):
        for eps in (0.2, 0.0125):
            model = build_piecewise_model(
                "dirac", energy, RegularizedPotential(v0=0.5, eps=eps),
                params)
            ck2, cgen = complex_model(model)
            assert np.array_equal(bits(model.generator), bits(cgen.imag))
            assert not cgen.real.any()
            assert np.array_equal(bits(model.k2), bits(ck2.real))


def _assert_same_entries(k2, d, gen, cgen):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _propagators(k2, d, gen)
    assert_complex_parts(got, complex_propagators(k2.astype(complex), d, cgen),
                         gen is not None)


ROUTE_B_SWEEPS = [("s", 1.0, "logistic"), ("s", 1.0, "erf"),
                  ("kfg", 2.0, "logistic"), ("kfg", 2.0, "erf"),
                  ("kfg", 2.0, "ramp"), ("dirac", 2.0, "logistic"),
                  ("dirac", 2.0, "erf")]


@pytest.mark.parametrize("theory,energy,shape", ROUTE_B_SWEEPS)
def test_route_b_march_propagators_equal_the_complex_body(theory, energy,
                                                          shape):
    """Every width of the report's seven route-B sweeps, in march order."""
    params = PhysicalParams(v0=0.5)
    for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
        model = build_piecewise_model(
            theory, energy, RegularizedPotential(v0=0.5, eps=eps,
                                                 shape=shape), params)
        edges, gen = model.edges[::-1], model.generator
        cgen = complex_model(model)[1]
        _assert_same_entries(model.k2[::-1], edges[1:] - edges[:-1],
                             *((None, None) if gen is None
                               else (gen[:, ::-1], cgen[:, ::-1])))


@pytest.mark.parametrize("theory,energy", [("s", 1.0), ("kfg", 2.0),
                                           ("dirac", 2.0)])
def test_real_and_imaginary_axis_propagators_equal_the_complex_body(
        theory, energy):
    """k^2 of both signs and zero, |k d| on both sides of 1e-8, d of both
    signs and zero, segments of both axes in one call and apart."""
    params = PhysicalParams(v0=0.5)
    model = build_piecewise_model(
        theory, energy, RegularizedPotential(v0=0.5, eps=0.05), params)
    mc2 = params.rest_energy
    threshold = energy if theory == "s" else energy - mc2
    rng = np.random.default_rng(17)
    # k^2 = 0 (Dirac: +0 at the upper threshold, -0 at the lower one)
    values = np.concatenate([[threshold, energy + mc2, energy + 4.0 * mc2],
                             energy + rng.uniform(-6.0, 6.0, 40)])
    model = _model(theory, energy, np.linspace(-1.0, 1.0, len(values) + 1),
                   values, model.reg, params, model.k, model.q)
    k2 = model.k2
    assert (k2 > 0.0).any() and (k2 < 0.0).any()
    if theory == "dirac":
        assert bits(k2[:2]).tolist() == bits([0.0, -0.0]).tolist()
    kabs = np.sqrt(np.abs(k2))
    moving = np.flatnonzero(kabs > 0.0)
    edge = 1e-8 / kabs[moving]          # d where |k d| reaches 1e-8
    steps = [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf),
             np.full_like(edge, 0.7)]
    n = len(values)
    d = np.concatenate([np.tile([-2.0, -1e-12, -0.0, 0.0, 1e-12, 0.3], n),
                        *steps, *np.negative(steps)])
    idx = np.concatenate([np.repeat(np.arange(n), 6),
                          np.tile(moving, 2 * len(steps))])
    series = np.abs(kabs[idx] * d) < 1e-8
    assert series.any() and (~series & (np.abs(d) < 1e-6)).any()
    gen, cgen = model.generator, complex_model(model)[1]
    for part in (np.full(len(idx), True), k2[idx] >= 0.0, k2[idx] < 0.0):
        at = idx[part]
        _assert_same_entries(k2[at], d[part], *((None, None) if gen is None
                                                else (gen[:, at],
                                                      cgen[:, at])))
