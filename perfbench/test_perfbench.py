"""Tests of the benchmark's pure helpers (no stepforce, no timing).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json

import numpy as np
import pytest

import refclock
import stats


# -- tail percentile ----------------------------------------------------------

@pytest.mark.parametrize("n, cap, want", [
    (1, 99.0, None), (19, 99.0, None), (20, 99.0, 50.0), (39, 99.0, 50.0),
    (40, 99.0, 75.0), (99, 99.0, 75.0), (100, 99.0, 90.0),
    (999, 99.0, 90.0), (1000, 99.0, 99.0), (10**6, 99.0, 99.0),
    (1000, 90.0, 90.0), (105, 90.0, 90.0), (104, 90.0, 90.0),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, cap, want):
    assert stats.tail_percentile(n, cap) == want


def test_tail_value_uses_max_for_tiny_samples():
    assert stats.tail_value([3.0], 90.0) == ("max", 3.0)
    label, value = stats.tail_value(list(range(1, 101)), 99.0)
    assert label == "p90"
    assert value == pytest.approx(90.1)


def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 50.0) == 2.5
    assert stats.percentile(values, 0.0) == 1.0
    assert stats.percentile(values, 100.0) == 4.0
    assert stats.percentile(values, 90.0) == pytest.approx(3.7)


def test_quartile_spread_matches_statistics_quantiles():
    assert stats.quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    values = [9.0, 10.0, 10.0, 11.0, 10.0, 12.0, 8.0, 10.0, 10.0, 10.0]
    assert stats.quartile_spread(values) == pytest.approx((10.25 - 9.75) / 10.0)


# -- self time ------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, -1, 0.0, 10.0),   # root
        (1, 0, 1.0, 4.0),     # child of root
        (2, 1, 1.5, 2.5),     # grandchild
        (3, 0, 5.0, 9.0),     # second child of root
    ]
    got = stats.self_times(spans)
    assert got[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert got[1] == pytest.approx(3.0 - 1.0)
    assert got[2] == pytest.approx(1.0)
    assert got[3] == pytest.approx(4.0)
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_of_leaf_is_its_duration():
    assert stats.self_times([(7, -1, 2.0, 2.5)]) == {7: 0.5}


# -- failure accounting -------------------------------------------------------

def test_tally_counts_attempts_and_failures():
    tally = stats.Tally(keep=2)
    assert tally.record([]) is True
    assert tally.record(["a"]) is False
    assert tally.record(["b", "c"]) is False
    assert tally.record(["d"]) is False
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.fail_frac == pytest.approx(0.75)
    assert tally.reasons == ["a", "b; c"]


def test_tally_without_attempts_counts_as_all_failed():
    assert stats.Tally().fail_frac == 1.0


# -- oracle comparison --------------------------------------------------------

def _bundle(seed=0):
    worst = {"continuity": 0.0, "flux": 3e-13, "evanescent_reflection": 0.0,
             "identity_residual_rel": 1e-16}
    return {
        "seed": seed,
        "flagships": {"s": {"r": 0.1}},
        "random_sweeps": {"kfg": {"n_draws": 100, "worst": dict(worst)}},
        "route_b": {"kfg": {"verdicts": {
            "logistic": {"matched": "midpoint_average"}}}},
        "ehrenfest": {"dt_halving_ratio": 4.0,
                      "free": {"max_deviation_rel": 1e-9},
                      "scattering": {"max_deviation_rel": 0.01},
                      "scattering_half_dt": {"max_deviation_rel": 0.003}},
    }


def _oracle(text):
    return {"report_seed0_sha256": stats.sha256_text(text)}


def test_seed0_report_must_match_the_oracle_bytes():
    text = json.dumps(_bundle(), sort_keys=True)
    oracle = _oracle(text)
    assert stats.check_report(text, 0, oracle, _bundle()) == []
    problems = stats.check_report(text + "\n", 0, oracle, _bundle())
    assert any("sha256" in p for p in problems)


def test_other_seed_must_equal_seed0_outside_the_sweeps():
    ref = _bundle()
    oracle = _oracle(json.dumps(ref))
    other = _bundle(seed=5)
    other["random_sweeps"]["kfg"]["worst"]["continuity"] = 2e-13
    assert stats.check_report(json.dumps(other), 5, oracle, ref) == []
    moved = copy.deepcopy(other)
    moved["flagships"]["s"]["r"] = 0.2
    problems = stats.check_report(json.dumps(moved), 5, oracle, ref)
    assert problems == ["section 'flagships' differs from the seed-0 bundle"]


def test_other_seed_sweep_residuals_meet_the_criteria():
    ref = _bundle()
    bad = _bundle(seed=3)
    bad["random_sweeps"]["kfg"]["worst"]["identity_residual_rel"] = 2e-12
    problems = stats.check_report(json.dumps(bad), 3, _oracle("x"), ref)
    assert len(problems) == 1 and "identity_residual_rel" in problems[0]


def test_report_gates_apply_to_every_seed():
    bad = _bundle()
    bad["ehrenfest"]["dt_halving_ratio"] = 5.5
    bad["route_b"]["kfg"]["verdicts"]["logistic"]["matched"] = "both"
    text = json.dumps(bad)
    problems = stats.check_report(text, 0, _oracle(text), bad)
    assert len(problems) == 2


def test_amplitude_scale_keeps_criteria_tolerance_up_to_unit_reflection():
    assert stats.amplitude_scale(0.3) == 1.0
    assert stats.amplitude_scale(1.0) == 1.0
    assert stats.amplitude_scale(4.0e4) == 4.0e4


def test_sweep_residuals_are_bounded_by_the_theory_scale():
    ref = _bundle()
    other = _bundle(seed=2)
    other["random_sweeps"]["kfg"]["worst"]["flux"] = 2e-9
    oracle = _oracle("x")
    assert len(stats.check_report(json.dumps(other), 2, oracle, ref)) == 1
    assert stats.check_report(json.dumps(other), 2, oracle, ref,
                              scales={"kfg": 5e3}) == []


def test_route_b_check_against_recorded_candidates():
    s_rec = {"theory": "s", "closed_form": -0.6863, "extrapolated": -0.6862}
    assert stats.check_route_b(-0.6862, s_rec) == []
    assert len(stats.check_route_b(-0.6800, s_rec)) == 2
    kfg = {"theory": "kfg", "closed_form": 0.1847, "midpoint": -1.2926,
           "extrapolated": -1.2930}
    assert stats.check_route_b(-1.2930, kfg) == []
    assert any("closed form" in p for p in
               stats.check_route_b(0.1847, dict(kfg, extrapolated=0.1847)))


# -- reference clock ------------------------------------------------------------

def test_smoothed_reference_ignores_a_lone_slow_sample():
    assert refclock.smoothed([1.0, 1.0, 9.0, 1.0, 1.0]) == [1.0] * 5
    assert refclock.smoothed([2.0]) == [2.0]


def test_interval_cost_divides_by_the_nearest_reference():
    starts, ends, refs = [0.0, 10.0], [0.5, 10.5], [0.5, 1.0]
    assert refclock.interval_cost(1.0, 3.0, starts, ends, refs) == 4.0
    assert refclock.interval_cost(8.0, 9.0, starts, ends, refs) == 1.0


def test_interval_cost_skips_the_handler_runs_inside_it():
    starts, ends, refs = [0.0, 2.0, 4.0], [0.1, 2.2, 4.1], [0.5, 0.5, 0.25]
    # [1, 2] and [2.2, 3.5] at 0.5 s per unit; the handler's 0.2 s is cut.
    got = refclock.interval_cost(1.0, 3.5, starts, ends, refs)
    assert got == pytest.approx((1.0 + 1.3) / 0.5)


def test_a_uniformly_slower_host_leaves_the_cost_unchanged():
    starts = [0.0, 1.0, 2.0]
    ends = [s + 0.01 for s in starts]
    fast = refclock.interval_cost(0.2, 2.5, starts, ends, [1.0, 1.0, 1.0])
    slow_starts = [2 * s for s in starts]
    slow_ends = [2 * e for e in ends]
    slow = refclock.interval_cost(0.4, 5.0, slow_starts, slow_ends,
                                  [2.0, 2.0, 2.0])
    assert slow == pytest.approx(fast)


def test_reference_kernels_return_finite_values():
    for kernel in refclock.KERNELS.values():
        assert np.all(np.isfinite(kernel()))
