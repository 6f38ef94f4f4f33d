"""stepforce benchmark.

    python3 perfbench/run.py --workload {report,routeb,sharp} --seed N \
        --seconds S --trace {0,1}

Runs one workload in this single process, with one BLAS thread, against
the stepforce sources in ``src/`` of the checkout that holds this file.
The untraced run (``--trace 0``) measures the end-to-end metrics, timed
in reference-clock units (``refclock.py``) so that the host's drifting
speed cancels; the traced run (``--trace 1``) wraps stepforce's public functions and reports
the per-layer metrics.  Every operation's output is checked; an operation
that raises or fails its check counts as failed.  The last line of
standard output is the result as one JSON object; the full record (machine,
input properties, every figure with its base) goes to
``perfbench/out/result-<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import os
import sys

# One thread: set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
STATE_PATH = os.path.join(OUT_DIR, "counters.json")

SETUP_REPEATS = 5
# Fewest ops an untraced run makes, so its tail percentile keeps ten
# samples beyond it: p90 of 15 route-B passes, p99 of 1000 sharp ops.
MIN_OPS = {"report": 1, "routeb": 105, "sharp": 1000}
# Traced runs alternate untraced and traced blocks of this many ops (the
# difference is the tracing overhead), for at most MAX_BLOCK_PAIRS pairs.
BLOCK_OPS = {"routeb": 7, "sharp": 300}
MIN_BLOCK_PAIRS = 3
MAX_BLOCK_PAIRS = 10
PROBE_OP_BASE = 1_000_000
# Counters that must repeat exactly between traced runs of one seed.
REPEATED_COUNTERS = ("timeevo.cn_steps", "regularized.smooth_solves",
                     "regularized.segments", "core.reg_deriv_calls",
                     "modes.draw_accept_ratio")


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description="stepforce benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import stepforce from this checkout's src/, and nothing else."""
    init = os.path.join(SRC, "stepforce", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no stepforce sources at {init}")
    sys.path.insert(0, SRC)
    import stepforce
    if os.path.realpath(stepforce.__file__) != os.path.realpath(init):
        raise BenchError(f"stepforce imported from {stepforce.__file__}")
    import workloads
    return workloads


def build(args):
    """Imports plus inputs: everything that happens before the first op."""
    wl_mod = import_program()
    if args.workload not in wl_mod.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; expected one "
                         f"of {sorted(wl_mod.WORKLOADS)}")
    try:
        oracle, oracle_bundle = wl_mod.load_oracle()
    except OSError as exc:
        raise BenchError(f"oracle missing: {exc}") from exc
    wl = wl_mod.WORKLOADS[args.workload](args.seed, oracle, oracle_bundle)
    return wl_mod, wl, oracle, oracle_bundle


def measure_setup(args) -> list:
    """Seconds from spawning a fresh process to its inputs being built."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--trace", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"setup probe failed (exit {code})")
        samples.append(ready - start)
    return samples


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

class Runner:
    """Runs a workload's ops in order, timing each and checking its output."""

    def __init__(self, wl, tally, tracer=None, clock=None):
        self.wl = wl
        self.tally = tally
        self.tracer = tracer
        self.clock = clock
        self.index = 0
        self.times: list = []
        self.spans: list = []
        self.work: list = []

    def one(self, traced: bool = False) -> float:
        i = self.index
        self.index += 1
        if traced:
            self.tracer.op = i
        paused = self.clock.paused if self.clock else 0.0
        start = time.perf_counter()
        try:
            result = self.wl.op(i)
        except Exception as exc:  # an op that raises counts as failed
            elapsed = time.perf_counter() - start
            self.tally.record([f"op {i}: {type(exc).__name__}: {exc}"])
            return elapsed
        finally:
            if traced:
                self.tracer.op = -1
        end = time.perf_counter()
        # Reference-clock samples taken during the op are not its time.
        elapsed = end - start - ((self.clock.paused if self.clock else 0.0)
                                 - paused)
        if traced:
            for name, n in getattr(self.wl, "counters", lambda r: {})(
                    result).items():
                self.tracer.counts[(i, name, -1)] = n
        ok = self.tally.record(self.wl.check(i, result))
        self.work.append(self.wl.work(result) if ok else 0)
        self.times.append(elapsed)
        self.spans.append((start, end))
        return elapsed

    def block(self, n: int, traced: bool = False) -> list:
        if traced:
            self.tracer.install()
        try:
            return [self.one(traced) for _ in range(n)]
        finally:
            if traced:
                self.tracer.uninstall()

    def for_seconds(self, seconds: float, min_ops: int):
        """Ops until both the time and the op floor are reached, whole passes."""
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or self.index < min_ops
               or self.index % self.wl.pass_len):
            self.one()


# ---------------------------------------------------------------------------
# untraced and traced runs
# ---------------------------------------------------------------------------

def end_to_end(wl, runner, setup) -> dict:
    """End-to-end metrics of an untraced run, in reference-clock units."""
    import stats
    costs = [runner.clock.cost(a, b) for a, b in runner.spans]
    work = runner.work
    if not costs:
        raise BenchError("no operation completed")
    tail_q, tail = stats.tail_value(costs, wl.tail_cap)
    return {
        "op_p50_ref": (statistics.median(costs), "ref", f"{len(costs)} ops"),
        "op_tail_ref": (tail, "ref", f"{tail_q} of {len(costs)} ops"),
        "work_per_kref": (sum(work) / sum(costs) * 1e3, "1/kref",
                          f"{sum(work)} {wl.work_unit} in {sum(costs):.1f} "
                          f"ref of ops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB", "ru_maxrss of this process"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh processes"),
    }


def wall_figures(wl, runner) -> dict:
    """The same op figures in wall-clock time, which the host's speed moves."""
    import stats
    times, work = runner.times, runner.work
    tail_q, tail = stats.tail_value(times, wl.tail_cap)
    return {
        "op_p50_ms": (statistics.median(times) * 1e3, "ms",
                      f"{len(times)} ops"),
        "op_tail_ms": (tail * 1e3, "ms", f"{tail_q} of {len(times)} ops"),
        "work_per_s": (sum(work) / sum(times), "1/s",
                       f"{sum(work)} {wl.work_unit} in {sum(times):.3f} s "
                       f"of ops"),
    }


NAMED = {  # each workload's own names for its wall-clock figures
    "report": {"op_p50_ms": ("report_s", 1e-3, "s")},
    "routeb": {"op_p50_ms": ("sweep_p50_ms", 1.0, "ms"),
               "op_tail_ms": ("sweep_p90_ms", 1.0, "ms"),
               "work_per_s": ("solves_per_s", 1.0, "1/s")},
    "sharp": {"op_p50_ms": ("mode_p50_us", 1e3, "us"),
              "op_tail_ms": ("mode_p99_us", 1e3, "us"),
              "work_per_s": ("modes_per_s", 1.0, "1/s")},
}


def named_figures(workload, figures, tally) -> dict:
    out = {}
    for key, (name, scale, unit) in NAMED[workload].items():
        value, _, base = figures[key]
        out[name] = (value * scale, unit, base)
    out["fail_frac"] = (tally.fail_frac, "ratio",
                        f"{tally.failed} of {tally.attempted} ops")
    return out


def run_untraced(args, wl, tally, setup) -> dict:
    import refclock
    with refclock.RefClock(refclock.KERNELS[wl.reference]) as clock:
        runner = Runner(wl, tally, clock=clock)
        runner.for_seconds(args.seconds, MIN_OPS[args.workload])
    metrics = end_to_end(wl, runner, setup)
    wall = wall_figures(wl, runner)
    ref = clock.summary()
    figures = dict(wall, **named_figures(args.workload, wall, tally))
    figures["ref_kernel_ms"] = (ref["kernel_ms_p50"], "ms",
                                f"median of {ref['samples']} reference "
                                f"samples, every {ref['period_s']} s")
    return {"metrics": metrics, "figures": figures, "refclock": ref}


def calibrate_overhead() -> tuple:
    """Seconds a span wrapper and a count wrapper add to one call."""
    import tracing

    def noop():
        return None

    probe = tracing.Tracer()
    spanned = probe.span_wrapper(noop, "calibration")
    counted = probe.count_wrapper(noop, "calibration")
    costs = []
    for fn in (spanned, counted):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(20000):
                fn()
            mid = time.perf_counter()
            for _ in range(20000):
                noop()
            end = time.perf_counter()
            best = min(best, ((mid - start) - (end - mid)) / 20000)
        costs.append(best)
    return costs[0], costs[1]


def run_traced(args, wl_mod, wl, tally, oracle, oracle_bundle) -> dict:
    import layers
    import tracing
    tracer = tracing.Tracer()
    runner = Runner(wl, tally, tracer)
    untraced, traced, traced_ops = [], [], []
    if args.workload == "report":
        traced_ops.append(runner.index)
        traced += runner.block(1, traced=True)
        span_cost, count_cost = calibrate_overhead()
        spans = tracer.ops.tolist().count(traced_ops[0])
        calls = sum(n for (op, _, _), n in tracer.counts.items()
                    if op == traced_ops[0])
        spent = spans * span_cost + calls * count_cost
        overhead = (spent / (traced[0] - spent),
                    f"calibrated: {spans} spans x {span_cost * 1e6:.3f} us, "
                    f"{calls} counted calls x {count_cost * 1e6:.3f} us")
    else:
        n = BLOCK_OPS[args.workload]
        start = time.perf_counter()
        pairs = 0
        while pairs < MAX_BLOCK_PAIRS and (
                pairs < MIN_BLOCK_PAIRS
                or time.perf_counter() - start < args.seconds):
            untraced += runner.block(n)
            traced_ops += range(runner.index, runner.index + n)
            traced += runner.block(n, traced=True)
            pairs += 1
        overhead = (statistics.median(traced) / statistics.median(untraced)
                    - 1.0,
                    f"median of {len(traced)} traced vs {len(untraced)} "
                    f"untraced ops, interleaved in blocks of {n}")
    counter_ops = traced_ops[:wl.counter_ops]

    ctx = types.SimpleNamespace(oracle=oracle, oracle_bundle=oracle_bundle,
                                count=tracer.count)
    probe_ops = []
    tracer.install()
    try:
        for k, part in enumerate(wl.probes):
            tracer.op = PROBE_OP_BASE + k
            probe_ops.append(tracer.op)
            wl_mod.PROBES[part](ctx)
    finally:
        tracer.op = -1
        tracer.uninstall()

    cols = layers.Columns(tracer)
    passes = max(len(traced_ops) // wl.pass_len, 1)
    own = layers.layer_metrics(layers.SpanView(cols, traced_ops), passes,
                               layers.SpanView(cols, counter_ops))
    probe_view = layers.SpanView(cols, probe_ops)
    probed = layers.layer_metrics(probe_view, 1, probe_view)
    own["trace.overhead_frac"] = (overhead[0], "ratio", overhead[1])
    metrics, sources, missing = {}, {}, []
    for name, unit in layers.PER_LAYER:
        got = own.get(name) or probed.get(name)
        if got is None:
            missing.append(name)
            continue
        metrics[name] = got
        sources[name] = "workload" if name in own else "probe"
    figures = {f"trace.overhead_frac.{args.workload}": metrics.get(
        "trace.overhead_frac", (float("nan"), "ratio", "missing"))}
    checks = {}
    if args.workload == "report":
        figures.update(layers.report_breakdown(
            layers.SpanView(cols, traced_ops), passes))
        figures["report_s"] = (traced[0], "s", "1 traced pass")
        gap = abs(traced[0] - figures.get("report.stage_sum_s", (0.0,))[0])
        checks["stage_sum_gap_frac"] = gap / traced[0]
        checks["stage_sum_within_overhead"] = gap / traced[0] <= overhead[0]
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(
        OUT_DIR, f"trace-{args.workload}-seed{args.seed}.npz")
    tracer.save(trace_path)
    return {"metrics": metrics, "figures": figures, "sources": sources,
            "missing": missing, "checks": checks,
            "trace_file": os.path.relpath(trace_path, ROOT)}


# ---------------------------------------------------------------------------
# machine block and counter repeatability
# ---------------------------------------------------------------------------

def steal_jiffies() -> int:
    """Steal time of all CPUs from /proc/stat (read-only), or -1."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def machine() -> dict:
    import numpy
    import scipy
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def code_hash() -> str:
    digest = hashlib.sha256()
    for folder in (os.path.join(SRC, "stepforce"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def repeat_check(args, metrics) -> list:
    """Compare this run's work counters with an earlier run of the seed."""
    counters = {k: metrics[k][0] for k in REPEATED_COUNTERS if k in metrics}
    key = f"{code_hash()}/{args.workload}/{args.seed}"
    try:
        with open(STATE_PATH) as fh:
            state = json.load(fh)
    except (OSError, ValueError):
        state = {}
    problems = []
    earlier = state.get(key)
    if earlier is None:
        state[key] = counters
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(STATE_PATH, "w") as fh:
            json.dump(state, fh, indent=1, sort_keys=True)
    else:
        for name, value in counters.items():
            if earlier.get(name) != value:
                problems.append(f"counter {name} = {value} differs from "
                                f"{earlier.get(name)} in an earlier traced "
                                f"run of seed {args.seed}")
    return problems


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_table(title: str, figures: dict):
    print(title)
    for name, (value, unit, base) in figures.items():
        print(f"  {name:44s} {value:16.6g} {unit:6s} {base}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0 and not args.setup_probe:
        raise BenchError("--seconds must be positive")
    wl_mod, wl, oracle, oracle_bundle = build(args)
    own_setup = time.perf_counter() - STARTED
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    import stats
    setup = measure_setup(args)
    tally = stats.Tally()
    steal_before = steal_jiffies()
    wall_start = time.perf_counter()
    if args.trace:
        out = run_traced(args, wl_mod, wl, tally, oracle, oracle_bundle)
        problems = repeat_check(args, out["metrics"])
        problems += [f"per-layer metric {m} missing" for m in out["missing"]]
    else:
        out = run_untraced(args, wl, tally, setup)
        problems = []
    wall = time.perf_counter() - wall_start
    steal_after = steal_jiffies()
    correct = tally.failed == 0 and not problems
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "correct": correct,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.reasons, "problems": problems,
        "machine": dict(machine(), steal_jiffies_before=steal_before,
                        steal_jiffies_after=steal_after),
        "wall_s": wall, "own_setup_s": own_setup, "setup_samples_s": setup,
        "inputs": wl.properties(),
        "metrics": {k: {"value": v, "unit": u, "base": b}
                    for k, (v, u, b) in out["metrics"].items()},
        "figures": {k: {"value": v, "unit": u, "base": b}
                    for k, (v, u, b) in out["figures"].items()},
    }
    for key in ("sources", "checks", "trace_file", "refclock"):
        if key in out:
            record[key] = out[key]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print_table(f"{args.workload} seed {args.seed} trace {args.trace}: "
                f"{tally.attempted} ops, {tally.failed} failed", out["metrics"])
    print_table("workload figures", out["figures"])
    for line in tally.reasons + problems:
        print(f"  problem: {line}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
