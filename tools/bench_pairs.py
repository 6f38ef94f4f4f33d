"""Summarize paired benchmark runs of two source trees as BENCH_<label>.json.

    python3 tools/bench_pairs.py --workload routeb --seeds $(seq 71 80) \
        --parent PARENT/perfbench/out --change perfbench/out --label routeb_x

Each side's directory holds the untraced records that
``perfbench/run.py --trace 0`` writes (``result-<workload>-seed<N>-trace0.json``).
Run the two trees alternately, one seed each, so that the pairs share the
host's drift.  For every end-to-end metric of BENCHMARK.json the output holds
each side's values by seed, their median and quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the pairs the change
wins (strictly better in the metric's direction), and the machine block.
The same summaries of two wall-clock figures follow under ``figures``: the
reference kernel's median (``ref_kernel_ms``) and the workload's own time
of one op (``WALL_FIGURES``), so a gain in reference units can be checked
against the wall clock.  ``pair_ratios`` holds, for each pair, the
change/parent ratio of the wall figure next to that of ``ref_kernel_ms``:
a gain in reference units that comes from a slower kernel, not from a
faster op, shows as a kernel ratio above 1 next to a wall ratio near 1.
``attempted`` summarizes each side's ops per run the same way, and the
``peak_rss_mb`` line shows their medians: the runner keeps every op's
record in memory, so a run that makes more ops reads a higher peak RSS.

Each metric also gets a ``verdict``, decided in this order:

* ``gain``: the change wins at least nine tenths of the pairs and its
  median is better than the parent's by more than the parent's quartile
  distance;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's ``bound``, a fraction of the parent's median;
* ``unresolved``: the parent's quartile distance is wider than the bound
  and not every change run beats every parent run;
* ``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_STEAL = ("steal_jiffies_before", "steal_jiffies_after")
# each workload's wall-clock time of one op, as perfbench/run.py names it
WALL_FIGURES = {"report": "report_s", "routeb": "sweep_p50_ms",
                "sharp": "mode_p50_us"}


def load_records(folder: str, workload: str, seeds: list) -> list:
    records = []
    for seed in seeds:
        path = os.path.join(folder, f"result-{workload}-seed{seed}-trace0.json")
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def _machine(record: dict) -> dict:
    return {k: v for k, v in record["machine"].items() if k not in _STEAL}


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def verdict(metric: dict) -> str:
    """The verdict on one metric's summaries (see the module docstring)."""
    # sign * value is lower when better
    sign = 1.0 if metric["better"] == "lower" else -1.0
    before, after = metric["parent"], metric["change"]
    gain = sign * (before["median"] - after["median"])
    spread = before["q3"] - before["q1"]
    bound = metric["bound"] * abs(before["median"])
    pairs = len(before["values"])
    if 10 * metric["change_wins"] >= 9 * pairs and gain > spread:
        return "gain"
    if -gain > bound:
        return "worse"
    separated = (max(sign * v for v in after["values"])
                 < min(sign * v for v in before["values"]))
    if spread > bound and not separated:
        return "unresolved"
    return "within bound"


def compare(parent: list, change: list, end_to_end: list) -> dict:
    """The comparison of two equally long, seed-paired record lists."""
    if len(parent) < 2 or len(parent) != len(change):
        raise ValueError("need at least two pairs of records")
    seeds = [r["seed"] for r in parent]
    if seeds != [r["seed"] for r in change]:
        raise ValueError("parent and change records are not paired by seed")
    machines = [_machine(r) for r in parent + change]
    if any(m != machines[0] for m in machines):
        raise ValueError("the records come from different machines")
    metrics = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        wins = sum((a < b) if lower else (a > b)
                   for b, a in zip(before, after))
        metrics[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"],
            "parent": summarize(before), "change": summarize(after),
            "change_wins": wins,
        }
        metrics[name]["verdict"] = verdict(metrics[name])
    figures = {}
    names = (WALL_FIGURES[parent[0]["workload"]], "ref_kernel_ms")
    for name in names:
        figures[name] = {
            "unit": parent[0]["figures"][name]["unit"],
            "parent": summarize([r["figures"][name]["value"] for r in parent]),
            "change": summarize([r["figures"][name]["value"] for r in change]),
        }
    ratios = [{"seed": seed, **{name: (c["figures"][name]["value"]
                                       / p["figures"][name]["value"])
                                for name in names}}
              for seed, p, c in zip(seeds, parent, change)]
    return {
        "workload": parent[0]["workload"],
        "seconds": parent[0]["seconds"],
        "seeds": seeds,
        "pairs": len(seeds),
        "all_correct": all(r["correct"] for r in parent + change),
        "failed_ops": {"parent": sum(r["failed"] for r in parent),
                       "change": sum(r["failed"] for r in change)},
        "machine": machines[0],
        "metrics": metrics,
        "figures": figures,
        "pair_ratios": ratios,
        "attempted": {"parent": summarize([r["attempted"] for r in parent]),
                      "change": summarize([r["attempted"] for r in change])},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--parent", required=True,
                        help="folder of the parent tree's result records")
    parser.add_argument("--change", required=True,
                        help="folder of the change's result records")
    parser.add_argument("--label", required=True)
    parser.add_argument("--out-dir", default=ROOT)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    try:
        bench = compare(load_records(args.parent, args.workload, args.seeds),
                        load_records(args.change, args.workload, args.seeds),
                        end_to_end)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    ops = bench["attempted"]
    for name, m in bench["metrics"].items():
        print(f"{name:14s} {m['parent']['median']:12.6g} -> "
              f"{m['change']['median']:12.6g} {m['unit']:7s} "
              f"{m['verdict']:12s} "
              f"change wins {m['change_wins']}/{bench['pairs']}"
              + (f" at {ops['parent']['median']:g} -> "
                 f"{ops['change']['median']:g} ops a run"
                 if name == "peak_rss_mb" else ""))
    for name, f in bench["figures"].items():
        print(f"{name:14s} {f['parent']['median']:12.6g} -> "
              f"{f['change']['median']:12.6g} {f['unit']:7s} (wall clock)")
    for pair in bench["pair_ratios"]:
        print(f"seed {pair['seed']}: change/parent " + ", ".join(
            f"{name} {pair[name]:.4f}" for name in bench["figures"]))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
