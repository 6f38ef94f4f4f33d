"""The rounding facts the batched route-B arithmetic relies on.

Each test asserts equality of the bits (signs of zero included), not of
the values: the batched code must reproduce the scalar formulas exactly.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from stepforce.core import PhysicalParams, RegularizedPotential
from stepforce.regularized import _cmul, _propagators, build_piecewise_model


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
