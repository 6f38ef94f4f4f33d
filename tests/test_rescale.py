"""A width of a power-of-two eps ladder rescales the previous width's model
and route-B nodes, as route_b_sweep does: every width must equal its direct
build bit for bit, and each guard must send the widths it covers to the
direct build."""

import math
import os
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from stepforce import regularized
from stepforce.core import REG_SHAPES, PhysicalParams, RegularizedPotential
from stepforce.modes import solve_step_mode
from stepforce.regularized import (_RESCALE_FLOOR, PiecewiseModel, _rescaled,
                                   build_piecewise_model, route_b_integral,
                                   route_b_sweep, solve_smooth_mode)

# hypothesis's cache under the temporary directory, not in the checkout
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(),
                                     "stepforce-hypothesis"))

PARS = PhysicalParams(v0=0.5)
ODD_UNITS = PhysicalParams(hbar=2.0, mass=3.0, c=1.5, v0=0.5)


def _field_words(value):
    """A model field with every number as its words, zero signs included:
    None, a string or a parameter record as it is, tuples entry by entry."""
    if value is None or isinstance(value, (str, PhysicalParams,
                                           RegularizedPotential)):
        return value
    if isinstance(value, tuple):
        return tuple(map(_field_words, value))
    a = np.asarray(value)
    return a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()


def _words(mode, value) -> tuple:
    """The float words of a width's route-B value, r, t, defect and
    seg_states, and of every field of the model they come from."""
    model = mode.model
    return (np.array([value, mode.r, mode.t, mode.defect],
                     dtype=complex).tobytes(),
            np.ascontiguousarray(mode.seg_states).tobytes(),
            {f.name: _field_words(getattr(model, f.name))
             for f in fields(PiecewiseModel)})


def _ladder(theory, energy, shape, v0, params, epsilons):
    """Per width of route_b_sweep's loop: (whether it was rescaled from the
    width before, whether it equals the direct per-width path bit for
    bit)."""
    out, model = [], None
    for eps in epsilons:
        reg = RegularizedPotential(v0=v0, eps=eps, shape=shape)
        rescaled = model and _rescaled(model, reg)
        model = rescaled or build_piecewise_model(theory, energy, reg, params)
        nm = solve_smooth_mode(model)
        direct = solve_smooth_mode(
            build_piecewise_model(theory, energy, reg, params))
        same = (_words(nm, route_b_integral(nm))
                == _words(direct, route_b_integral(direct)))
        out.append((rescaled is not None, same))
    return out


def _case(theory, regime, params):
    """(energy, v0) of a step in this regime: the s theory has no Klein
    regime."""
    if theory == "s":
        return 1.0, {"propagating": 0.5, "evanescent": 2.0}[regime]
    energy = params.rest_energy + 1.0
    return energy, {"propagating": 0.5, "evanescent": 1.5,
                    "klein": energy + params.rest_energy + 2.0}[regime]


@st.composite
def _ladders(draw):
    theory = draw(st.sampled_from(("s", "kfg", "dirac")))
    regimes = ("propagating", "evanescent") + (("klein",) * (theory != "s"))
    regime = draw(st.sampled_from(regimes))
    params = draw(st.sampled_from((PARS, ODD_UNITS)))
    shape = draw(st.sampled_from(REG_SHAPES))
    # a first width in [1/16, 1/4): no wavelength cap binds in these cases
    first = math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)),
                       draw(st.sampled_from((-2, -3))))
    steps = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    epsilons = [first]
    for step in steps:
        epsilons.append(math.ldexp(epsilons[-1], -step))
    return theory, regime, params, shape, epsilons


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_ladders())
def test_every_rescaled_width_equals_its_direct_build(ladder):
    theory, regime, params, shape, epsilons = ladder
    energy, v0 = _case(theory, regime, params)
    assert solve_step_mode(theory, energy,
                           PhysicalParams(params.hbar, params.mass, params.c,
                                          v0)).regime == regime
    widths = _ladder(theory, energy, shape, v0, params, epsilons)
    assert widths == [(False, True)] + [(True, True)] * (len(epsilons) - 1)


def test_a_sweep_of_the_default_widths_rescales_each_narrower_width(
        monkeypatch):
    solved = []

    def solve(*args, **kwargs):
        solved.append(solve_smooth_mode(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(regularized, "solve_smooth_mode", solve)
    route_b_sweep("kfg", 2.0, "erf", 0.5, PARS)
    assert [b.model.values is a.model.values
            for a, b in zip(solved, solved[1:])] == [True] * 4


@pytest.mark.parametrize("case", [
    # not a power-of-two ladder
    ("s", 1.0, "logistic", 0.5, (0.2, 0.15, 0.1), [False, False, False]),
    # a wavelength cap binds at 0.2 and 0.1 (at 400 and 30 also at 0.05)
    ("s", 400.0, "erf", 0.5, (0.2, 0.1, 0.05), [False, False, False]),
    ("s", 100.0, "logistic", 0.5, (0.2, 0.1, 0.05), [False, False, False]),
    ("kfg", 30.0, "erf", 0.5, (0.2, 0.1, 0.05), [False, False, False]),
    # the panel cap binds at 0.2 alone: 0.1 is built, 0.05 rescaled
    ("s", 20.0, "erf", 0.5, (0.2, 0.1, 0.05), [False, False, True]),
    # just above and just below the floor
    ("s", 1.0, "logistic", 0.5,
     (4.0 * _RESCALE_FLOOR, 2.0 * _RESCALE_FLOOR, _RESCALE_FLOOR),
     [False, True, True]),
    ("dirac", 2.0, "erf", 0.5,
     tuple(4.0 * math.nextafter(_RESCALE_FLOOR, 0.0) / 2**j
           for j in range(3)), [False, True, False]),
    # far below the floor a rescale rounds some Gauss nodes differently
    ("kfg", 2.0, "erf", 0.5, (0.7371 * 2.0**-990, 0.7371 * 2.0**-1018),
     [False, False]),
], ids=["not-power-of-two", "s-400-capped", "s-100-capped", "kfg-30-capped",
        "panel-cap-first", "above-floor", "below-floor", "far-below-floor"])
def test_each_guard_sends_its_widths_to_the_direct_build(case):
    theory, energy, shape, v0, epsilons, rescaled = case
    widths = _ladder(theory, energy, shape, v0, PhysicalParams(v0=v0),
                     epsilons)
    assert widths == [(r, True) for r in rescaled]
