"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/spread.py --workload routeb --seeds 1-10

Runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric the median of the runs and the distance between their
first and third quartiles as a share of that median, next to the metric's
bound.  A spread should stay under a third of its bound.  The per-run
results go to ``perfbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload,
                                  "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)
    ok = all(r["correct"] for r in runs)
    print(f"{'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        spread = stats.quartile_spread(values) if len(values) > 1 else 0.0
        flag = "" if spread < metric["bound"] / 3.0 else "  <-- above bound/3"
        print(f"{metric['name']:16s} {statistics.median(values):12.6g} "
              f"{spread:8.4f} {metric['bound']:6.3f}{flag}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.workload}.json"),
              "w") as fh:
        json.dump(runs, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
