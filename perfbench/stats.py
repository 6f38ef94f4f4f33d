"""Pure helpers of the benchmark: percentiles, self time, oracle checks.

Nothing here imports stepforce, so the unit tests in
``test_perfbench.py`` run without the program and without timing anything.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics

# Percentiles a tail metric may use, highest first.
TAIL_CANDIDATES = (99.0, 90.0, 75.0, 50.0)

# Acceptance tolerances (criteria 01-06 of tests/test_acceptance.py).
RESIDUAL_TOL = 1e-12
CLOSED_FORM_TOL = 1e-3       # criterion 05: s and dirac route-B limits
MIDPOINT_TOL = 5e-3          # criterion 06: kfg route-B limit
# Recorded route-B limits may move by summation order, not by more.
ORACLE_EXTRAPOLATED_TOL = 1e-9


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int, cap: float = 99.0):
    """Highest candidate percentile <= cap with at least ten samples beyond.

    Returns None when even the median has fewer than ten samples above it.
    """
    for q in TAIL_CANDIDATES:
        if q <= cap and n * (100.0 - q) / 100.0 >= 10.0:
            return q
    return None


def tail_value(values, cap: float = 99.0) -> tuple:
    """(percentile used, value) of the tail; the maximum for tiny samples."""
    q = tail_percentile(len(values), cap)
    if q is None:
        return "max", max(values)
    return f"p{q:g}", percentile(values, q)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def self_times(spans) -> dict:
    """Self time of every span: its duration minus its children's durations.

    ``spans`` is an iterable of (span_id, parent_id, start, end).  Calls on
    one thread nest without overlap, so the children of a span cover the
    sum of their durations.
    """
    rows = list(spans)
    covered = {}
    for _, parent, start, end in rows:
        covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - covered.get(sid, 0.0)
            for sid, _, start, end in rows}


class Tally:
    """Attempted and failed operations; a failure keeps its first reasons."""

    def __init__(self, keep: int = 5):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []
        self._keep = keep

    def record(self, problems) -> bool:
        """Count one operation; ``problems`` lists why it failed, if it did."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < self._keep:
                self.reasons.append("; ".join(str(p) for p in problems))
            return False
        return True

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_gates(bundle: dict) -> list:
    """Gates every report bundle must pass, whatever its seed."""
    problems = []
    eh = bundle["ehrenfest"]
    ratio = eh["dt_halving_ratio"]
    if not 3.0 <= ratio <= 5.0:
        problems.append(f"dt_halving_ratio {ratio} outside [3, 5]")
    for case in ("free", "scattering", "scattering_half_dt"):
        dev = eh[case]["max_deviation_rel"]
        if not dev <= 0.02:
            problems.append(f"ehrenfest.{case}.max_deviation_rel {dev} > 0.02")
    for shape, verdict in bundle["route_b"]["kfg"]["verdicts"].items():
        if verdict["matched"] != "midpoint_average":
            problems.append(f"kfg verdict ({shape}) is {verdict['matched']}")
    return problems


def amplitude_scale(r_squared: float) -> float:
    """Factor on the criteria 01-04 tolerances for a mode with this |r|^2.

    Klein super-reflection gives spin-0 modes |r| > 1, up to |r|^2 ~ 1e6
    next to the k + q pole; every residual is then a difference of terms
    that large, so its rounding floor grows with |r|^2.  Modes with
    |r| <= 1 keep the criteria's own tolerances.
    """
    return max(1.0, r_squared)


def _sweep_problems(sweeps: dict, scales: dict) -> list:
    """Worst-case random-sweep residuals against criteria 01-04.

    ``scales`` maps each theory to the largest ``amplitude_scale`` of its
    draws.
    """
    problems = []
    for theory, block in sweeps.items():
        bound = RESIDUAL_TOL * scales[theory]
        for name, value in block["worst"].items():
            if not value <= bound:
                problems.append(f"random_sweeps.{theory}.worst.{name} "
                                f"{value} > {bound}")
    return problems


def check_report(text: str, seed: int, oracle: dict, oracle_bundle: dict,
                 scales: dict | None = None) -> list:
    """Problems with one report's JSON text; empty when it is correct.

    Seed 0 must reproduce the recorded bytes.  Any other seed must equal
    the seed-0 bundle outside ``seed`` and ``random_sweeps``, and its sweep
    residuals must meet the acceptance tolerances, scaled per theory by
    ``scales`` (see ``_sweep_problems``).
    """
    bundle = json.loads(text)
    problems = _report_gates(bundle)
    if seed == 0:
        digest = sha256_text(text)
        if digest != oracle["report_seed0_sha256"]:
            problems.append(f"seed-0 report sha256 {digest} differs from "
                            f"the oracle {oracle['report_seed0_sha256']}")
        return problems
    if bundle.get("seed") != seed:
        problems.append(f"report seed {bundle.get('seed')} != {seed}")
    for key in sorted(set(bundle) | set(oracle_bundle)):
        if key in ("seed", "random_sweeps"):
            continue
        if bundle.get(key) != oracle_bundle.get(key):
            problems.append(f"section {key!r} differs from the seed-0 bundle")
    scales = scales or {}
    return problems + _sweep_problems(
        bundle["random_sweeps"],
        {t: scales.get(t, 1.0) for t in bundle["random_sweeps"]})


def check_route_b(extrapolated: float, record: dict) -> list:
    """Criteria 05/06 for one route-B sweep against its recorded candidates."""
    problems = []
    closed = record["closed_form"]
    if record["theory"] == "kfg":
        mid = record["midpoint"]
        if not abs(extrapolated - mid) <= MIDPOINT_TOL * abs(mid):
            problems.append(f"kfg limit {extrapolated} not within "
                            f"{MIDPOINT_TOL} of the midpoint {mid}")
        if not abs(extrapolated - closed) > MIDPOINT_TOL * abs(closed):
            problems.append(f"kfg limit {extrapolated} within "
                            f"{MIDPOINT_TOL} of the closed form {closed}")
    elif not abs(extrapolated - closed) <= CLOSED_FORM_TOL * abs(closed):
        problems.append(f"{record['theory']} limit {extrapolated} not within "
                        f"{CLOSED_FORM_TOL} of the closed form {closed}")
    want = record["extrapolated"]
    if not abs(extrapolated - want) <= ORACLE_EXTRAPOLATED_TOL * abs(want):
        problems.append(f"limit {extrapolated!r} moved from the recorded "
                        f"{want!r}")
    return problems
