"""Record the benchmark's oracle from the current source tree.

    python3 perfbench/make_oracle.py

Writes ``perfbench/oracle/report_seed0.json`` (the seed-0 report bytes)
and ``perfbench/oracle/oracle.json`` (their sha256 plus the seven route-B
sweeps with their recorded limits and closed-form candidates).  Run it only
at a commit whose seed-0 report is the accepted reference: every later
check compares against these files instead of recomputing them.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from stepforce import cli  # noqa: E402
from stepforce.reporting import dumps_json  # noqa: E402

from stats import sha256_text  # noqa: E402
from workloads import ROUTE_B_SWEEPS  # noqa: E402


def main() -> int:
    text = dumps_json(cli.run_report(cli.load_config(None), 0))
    bundle = json.loads(text)
    sweeps = []
    for theory, energy, shape in ROUTE_B_SWEEPS:
        block = bundle["route_b"][theory]
        assert block["energy"] == energy
        cands = block["verdicts"][shape]["candidates"]
        record = {
            "theory": theory, "energy": energy, "shape": shape,
            "extrapolated": block["series"][shape]["extrapolated"],
            "closed_form": cands["sharp_closed_form"],
        }
        if theory == "kfg":
            record["midpoint"] = cands["midpoint_average"]
        sweeps.append(record)
    out_dir = os.path.join(HERE, "oracle")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report_seed0.json"), "w",
              newline="") as fh:
        fh.write(text)
    oracle = {"report_seed0_sha256": sha256_text(text), "route_b": sweeps}
    with open(os.path.join(out_dir, "oracle.json"), "w", newline="") as fh:
        json.dump(oracle, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"report sha256 {oracle['report_seed0_sha256']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
