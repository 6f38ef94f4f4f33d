"""tools/bench_pairs.py on synthetic benchmark records."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

MACHINE = {"nproc": 2, "cpu_model": "test cpu", "python": "3.11.7"}
END_TO_END = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())[
    "end_to_end"]


def write_record(folder: Path, seed: int, p50: float, work: float,
                 steal: int = 0, machine=MACHINE, workload="routeb",
                 wall=(2.0, 9.0), attempted=100):
    """A record whose other end-to-end metrics read 1.0; ``wall`` holds
    its reference-kernel median and its workload's wall time of one op."""
    folder.mkdir(parents=True, exist_ok=True)
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in END_TO_END}
    metrics["op_p50_ref"]["value"] = p50
    metrics["work_per_kref"]["value"] = work
    op_name, op_unit = {"routeb": ("sweep_p50_ms", "ms"),
                        "report": ("report_s", "s")}[workload]
    record = {
        "workload": workload, "seed": seed, "seconds": 10.0, "trace": 0,
        "correct": True, "attempted": attempted, "failed": 0,
        "machine": dict(machine, steal_jiffies_before=steal,
                        steal_jiffies_after=steal + 3),
        "metrics": metrics,
        "figures": {"ref_kernel_ms": {"value": wall[0], "unit": "ms"},
                    op_name: {"value": wall[1], "unit": op_unit},
                    "fail_frac": {"value": 0.0, "unit": "ratio"}},
    }
    path = folder / f"result-{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps(record))


def test_two_paired_records_per_side(tmp_path, capsys):
    write_record(tmp_path / "parent", 7, 4.0, 1000.0, steal=10)
    write_record(tmp_path / "parent", 8, 3.0, 1100.0)
    write_record(tmp_path / "change", 7, 3.5, 900.0)
    write_record(tmp_path / "change", 8, 2.0, 1400.0, steal=99)
    code = bench_pairs.main([
        "--workload", "routeb", "--seeds", "7", "8",
        "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"),
        "--label", "demo", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    out = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert out["workload"] == "routeb"
    assert out["seeds"] == [7, 8] and out["pairs"] == 2
    assert out["all_correct"] is True
    assert out["failed_ops"] == {"parent": 0, "change": 0}
    assert out["machine"] == MACHINE
    p50 = out["metrics"]["op_p50_ref"]
    assert p50["parent"]["values"] == [4.0, 3.0]
    assert p50["parent"]["median"] == 3.5
    assert p50["change"]["median"] == 2.75
    assert p50["parent"]["q1"] <= p50["parent"]["median"] <= p50["parent"]["q3"]
    assert p50["change_wins"] == 2          # lower is better
    work = out["metrics"]["work_per_kref"]
    assert work["better"] == "higher"
    assert work["change_wins"] == 1         # 900 < 1000 loses, 1400 wins
    assert out["metrics"]["peak_rss_mb"]["change_wins"] == 0    # ties
    assert set(out["metrics"]) == {m["name"] for m in END_TO_END}
    assert set(out["figures"]) == {"ref_kernel_ms", "sweep_p50_ms"}
    assert out["figures"]["sweep_p50_ms"]["unit"] == "ms"
    assert out["figures"]["sweep_p50_ms"]["change"]["values"] == [9.0, 9.0]


def test_wall_figures_of_the_report_workload(tmp_path, capsys):
    for seed, before, after in ((3, (2.3, 42.5), (2.9, 27.1)),
                                (4, (2.4, 43.3), (3.0, 26.3))):
        write_record(tmp_path / "parent", seed, 18000.0, 0.05,
                     workload="report", wall=before)
        write_record(tmp_path / "change", seed, 9000.0, 0.1,
                     workload="report", wall=after)
    code = bench_pairs.main([
        "--workload", "report", "--seeds", "3", "4",
        "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"),
        "--label", "lanes", "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "report_s" in out and "(wall clock)" in out
    figures = json.loads((tmp_path / "BENCH_lanes.json").read_text())[
        "figures"]
    assert set(figures) == {"ref_kernel_ms", "report_s"}
    assert figures["report_s"]["unit"] == "s"
    assert figures["report_s"]["parent"]["values"] == [42.5, 43.3]
    assert figures["report_s"]["change"]["median"] == pytest.approx(26.7)
    assert figures["ref_kernel_ms"]["parent"]["median"] == pytest.approx(2.35)
    assert figures["ref_kernel_ms"]["change"]["median"] == pytest.approx(2.95)


def test_each_pair_shows_its_wall_and_kernel_ratios(tmp_path, capsys):
    # a gain in reference units from a slower kernel: the op's wall time
    # moves little while the kernel slows
    for seed, before, after in ((3, (2.0, 40.0), (2.5, 38.0)),
                                (4, (2.4, 41.0), (2.4, 41.0))):
        write_record(tmp_path / "parent", seed, 18000.0, 0.05,
                     workload="report", wall=before)
        write_record(tmp_path / "change", seed, 15000.0, 0.06,
                     workload="report", wall=after)
    assert bench_pairs.main([
        "--workload", "report", "--seeds", "3", "4",
        "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"),
        "--label", "pairs", "--out-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ("seed 3: change/parent report_s 0.9500, ref_kernel_ms 1.2500"
            in lines)
    assert ("seed 4: change/parent report_s 1.0000, ref_kernel_ms 1.0000"
            in lines)
    ratios = json.loads((tmp_path / "BENCH_pairs.json").read_text())[
        "pair_ratios"]
    assert [r["seed"] for r in ratios] == [3, 4]
    assert ratios[0]["report_s"] == pytest.approx(0.95)
    assert ratios[0]["ref_kernel_ms"] == pytest.approx(1.25)
    assert ratios[1] == {"seed": 4, "report_s": 1.0, "ref_kernel_ms": 1.0}


def test_ops_per_run_show_beside_the_peak_rss(tmp_path, capsys):
    # the runner's memory grows with the ops it records
    for seed, before, after in ((1, 2500, 3100), (2, 3300, 5000)):
        write_record(tmp_path / "parent", seed, 1.7, 2800.0,
                     attempted=before)
        write_record(tmp_path / "change", seed, 1.6, 3100.0, attempted=after)
    assert bench_pairs.main([
        "--workload", "routeb", "--seeds", "1", "2",
        "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"),
        "--label", "ops", "--out-dir", str(tmp_path)]) == 0
    rss = [line for line in capsys.readouterr().out.splitlines()
           if line.startswith("peak_rss_mb")]
    assert len(rss) == 1
    assert rss[0].endswith("change wins 0/2 at 2900 -> 4050 ops a run")
    ops = json.loads((tmp_path / "BENCH_ops.json").read_text())["attempted"]
    assert ops["parent"]["values"] == [2500, 3300]
    assert ops["change"]["values"] == [3100, 5000]
    assert ops["parent"]["median"] == 2900
    assert ops["change"]["median"] == 4050
    assert ops["change"]["q1"] <= 4050 <= ops["change"]["q3"]


def test_records_without_the_wall_figure_are_refused(tmp_path, capsys):
    for side in ("parent", "change"):
        for seed in (1, 2):
            write_record(tmp_path / side, seed, 4.0, 1000.0)
    path = tmp_path / "change" / "result-routeb-seed2-trace0.json"
    record = json.loads(path.read_text())
    del record["figures"]["sweep_p50_ms"]
    path.write_text(json.dumps(record))
    code = bench_pairs.main([
        "--workload", "routeb", "--seeds", "1", "2",
        "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"), "--label", "x",
        "--out-dir", str(tmp_path)])
    assert code == 2
    assert "sweep_p50_ms" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_x.json").exists()


def test_unpaired_or_mixed_records_are_refused(tmp_path):
    write_record(tmp_path / "parent", 1, 4.0, 1000.0)
    write_record(tmp_path / "parent", 2, 4.0, 1000.0)
    write_record(tmp_path / "change", 1, 3.0, 1000.0)
    write_record(tmp_path / "change", 2, 3.0, 1000.0,
                 machine=dict(MACHINE, nproc=4))
    load = bench_pairs.load_records
    with pytest.raises(ValueError, match="different machines"):
        bench_pairs.compare(load(tmp_path / "parent", "routeb", [1, 2]),
                            load(tmp_path / "change", "routeb", [1, 2]),
                            END_TO_END)
    with pytest.raises(ValueError, match="paired by seed"):
        bench_pairs.compare(load(tmp_path / "parent", "routeb", [1, 2]),
                            load(tmp_path / "change", "routeb", [2, 1]),
                            END_TO_END)
    code = bench_pairs.main([
        "--workload", "routeb", "--seeds", "1", "2", "3",
        "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"), "--label", "x",
        "--out-dir", str(tmp_path)])
    assert code == 2
    assert not (tmp_path / "BENCH_x.json").exists()


def _metric(better: str, bound: float, before: list, after: list) -> dict:
    """A metric's summaries as compare() writes them."""
    lower = better == "lower"
    wins = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
    return {"better": better, "bound": bound, "change_wins": wins,
            "parent": bench_pairs.summarize(before),
            "change": bench_pairs.summarize(after)}


PARENT = [2.0 + 0.01 * i for i in range(10)]    # quartile distance 0.055
WIDE = [1.0, 1.5] * 5                           # median 1.25, quartiles 1, 1.5


@pytest.mark.parametrize("better,bound,before,after,expected", [
    # 10/10 wins and a median gap of 0.5 against the quartile distance
    ("lower", 0.25, PARENT, [v - 0.5 for v in PARENT], "gain"),
    # 10/10 wins, but a gap of 0.001 lies inside the parent's quartiles
    ("lower", 0.25, PARENT, [v - 0.001 for v in PARENT], "within bound"),
    # 8/10 wins with a wide gap is not a gain
    ("lower", 0.25, PARENT, [v - 0.5 for v in PARENT[:8]] + PARENT[8:],
     "within bound"),
    # higher is better: the change's median is 30 % under the parent's
    ("higher", 0.25, [1000.0 + i for i in range(10)],
     [700.0 + i for i in range(10)], "worse"),
    # 20 % worse passes a 25 % bound and fails a 10 % one
    ("lower", 0.25, PARENT, [1.2 * v for v in PARENT], "within bound"),
    ("lower", 0.1, PARENT, [1.2 * v for v in PARENT], "worse"),
    # the parent's quartile distance, 0.5, is wider than 10 % of 1.25
    ("lower", 0.1, WIDE, WIDE[::-1], "unresolved"),
    # as wide, but every change run beats every parent run
    ("lower", 0.1, WIDE, [0.99] * 10, "within bound"),
    ("higher", 0.1, WIDE, [1.51] * 10, "within bound")])
def test_each_metric_gets_its_verdict(better, bound, before, after, expected):
    assert bench_pairs.verdict(_metric(better, bound, before, after)) == expected


def test_the_verdicts_are_stored_and_printed(tmp_path, capsys):
    for seed, (p50, work) in enumerate(zip(PARENT, range(1000, 1010))):
        write_record(tmp_path / "parent", seed, p50, float(work))
        write_record(tmp_path / "change", seed, p50 - 0.5, work - 300.0)
    assert bench_pairs.main([
        "--workload", "routeb", "--seeds", *map(str, range(10)),
        "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"),
        "--label", "v", "--out-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    metrics = json.loads((tmp_path / "BENCH_v.json").read_text())["metrics"]
    assert {name: m["verdict"] for name, m in metrics.items()} == {
        "op_p50_ref": "gain", "work_per_kref": "worse",
        "op_tail_ref": "within bound", "peak_rss_mb": "within bound",
        "setup_s": "within bound"}
    for name, m in metrics.items():
        line, = [ln for ln in lines if ln.startswith(name + " ")]
        assert f" {m['verdict']} " in line
