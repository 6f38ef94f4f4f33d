"""The rounding facts the batched route-B arithmetic relies on.

Each test asserts equality of the bits (signs of zero included), not of
the values: the batched code must reproduce the scalar formulas exactly.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from stepforce.core import PhysicalParams, RegularizedPotential
from stepforce.regularized import (_cmul, _complex, _propagators,
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
    """The |k d| < 1e-8 series gives c = 1 + 0j and s_over_k = d + 0j at
    k^2 = 0, whatever the sign of d, and nothing else moves."""
    params = PhysicalParams(v0=0.5)
    model = build_piecewise_model(
        theory, energy, RegularizedPotential(v0=0.5, eps=0.05), params)
    mc2 = params.rest_energy
    threshold = energy if theory == "s" else energy - mc2
    # k^2 = 0 exactly, then propagating, evanescent and klein segments
    values = np.array([threshold, 0.0, 0.3, energy + 0.5,
                       energy + 4.0 * mc2])
    model = replace(model, values=values,
                    edges=np.linspace(-1.0, 1.0, len(values) + 1))
    dists = np.array([-0.3, 0.7, -2.0, 1e-12, -1e-12, 0.0, -0.0])
    idx = np.repeat(np.arange(len(values)), len(dists))
    d = np.tile(dists, len(values))
    k2, gen = model.k2[idx], model.generator
    gen = None if gen is None else gen[:, idx]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entries = _propagators(k2, d, gen)
    zero = k2 == 0.0
    assert zero.tolist() == (idx == 0).tolist()
    one, free = np.ones(zero.sum(), dtype=complex), d[zero].astype(complex)
    if gen is None:
        expected = (one, free, -k2[zero] * free, one)
    else:
        expected = (one, free * gen[0, zero], free * gen[1, zero], one)
    nonzero = _propagators(k2[~zero], d[~zero],
                           None if gen is None else gen[:, ~zero])
    for got, want, rest in zip(entries, expected, nonzero):
        assert np.array_equal(bits(got[zero]), bits(want))
        assert np.array_equal(bits(got[~zero]), bits(rest))


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


# The complex propagator body the real-axis code replaced: the reference
# the new entries must equal bit for bit.

def _cdiv_by_real(a, b):
    ratio = b.imag / b.real
    denom = b.real + b.imag * ratio
    return _complex((a.real + a.imag * ratio) / denom,
                    (a.imag - a.real * ratio) / denom)


def _cdiv_by_imag(a, b):
    ratio = b.real / b.imag
    denom = b.real * ratio + b.imag
    return _complex((a.real * ratio + a.imag) / denom,
                    (a.imag * ratio - a.real) / denom)


def _cdiv(a, b):
    """a / b rounded as CPython rounds a complex quotient (b nonzero)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    by_real = np.abs(b.real) >= np.abs(b.imag)
    a, b, by_real = np.broadcast_arrays(a, b, by_real)
    out = np.empty(a.shape, dtype=complex)
    for mask, branch in ((by_real, _cdiv_by_real), (~by_real, _cdiv_by_imag)):
        out[mask] = branch(a[mask], b[mask])
    return out


def _complex_propagators(k2, d, generator=None):
    kk = np.sqrt(k2)
    z = kk * d
    with np.errstate(divide="ignore", invalid="ignore"):
        c, s_over_k = np.cos(z), _cdiv(np.sin(z), kk)
    series = np.hypot(z.real, z.imag) < 1e-8
    if series.any():
        z2 = z[series] * z[series]
        c[series] = 1.0 - _cdiv(z2, 2.0)
        s_over_k[series] = d[series] * (1.0 - _cdiv(z2, 6.0))
    if generator is None:
        return c, s_over_k, -k2 * s_over_k, c
    g01, g10 = generator
    return c, s_over_k * g01, s_over_k * g10, c


def test_cdiv_reference_equals_the_python_quotient():
    rng = np.random.default_rng(11)
    a = rng.normal(size=600) + 1j * rng.normal(size=600)
    b = rng.normal(size=600) + 1j * rng.normal(size=600)
    # by-real, by-imaginary and mixed divisors, real and imaginary ones
    for divisor in (b, b.real + 0.1j * b.real, 0.1 * b.imag + 1j * b.imag,
                    b.real + 0j, 1j * b.imag):
        ref = np.array([x / y for x, y in zip(a.tolist(), divisor.tolist())])
        assert np.array_equal(bits(_cdiv(a, divisor)), bits(ref))
    ref = np.array([x / 6.0 for x in a.tolist()])
    assert np.array_equal(bits(_cdiv(a, 6.0)), bits(ref))


def _assert_same_entries(k2, d, gen):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _propagators(k2, d, gen)
    for g, want in zip(got, _complex_propagators(k2, d, gen)):
        assert np.array_equal(bits(g), bits(want))


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
        _assert_same_entries(model.k2[::-1], edges[1:] - edges[:-1],
                             None if gen is None else gen[:, ::-1])


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
    model = replace(model, values=values,
                    edges=np.linspace(-1.0, 1.0, len(values) + 1))
    k2 = model.k2
    assert (k2.real > 0.0).any() and (k2.real < 0.0).any()
    if theory == "dirac":
        assert bits(k2.real[:2]).tolist() == bits([0.0, -0.0]).tolist()
    kabs = np.sqrt(np.abs(k2.real))
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
    gen = model.generator
    for part in (np.full(len(idx), True), k2.real[idx] >= 0.0,
                 k2.real[idx] < 0.0):
        _assert_same_entries(k2[idx[part]], d[part],
                             None if gen is None else gen[:, idx[part]])
