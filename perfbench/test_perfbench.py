"""Smoke test of the benchmark: every workload at its smallest size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import spans
from run import EXACT_COUNTS, HERE, ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload, trace, cwd=ROOT, runner=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith("# env ") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(run_bench(workload, 0))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = result_of(run_bench(workload, 1))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert metrics["trace.count_drift"] == 0
    assert 0 < metrics["trace.coverage"] <= 1
    assert metrics["trace.unattributed_s"] >= 0
    assert metrics["estimator.component_fits"] >= 2
    assert metrics["solver.factor_count"] >= 1
    for name in EXACT_COUNTS:
        assert metrics[name] == int(metrics[name])
    if workload == "study-L4":
        assert metrics["synth.generate_s"] > 0 and metrics["metrics.mv_pca_s"] > 0
        assert metrics["serialize.written_mb"] > metrics["serialize.read_csv_mb"] / 2
    else:
        assert metrics["synth.generate_s"] == 0
    if workload.startswith("kfold"):
        assert metrics["selection.candidate_fits"] > 0


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path,
                     runner=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_times_subtract_children():
    recorded = [["estimator.fit", 0.0, 10.0, -1],
                ["solver.SaddleSystem.solve", 1.0, 4.0, 0],
                ["solver.SaddleSystem.solve", 3.0, 6.0, 0],
                ["estimator.deflate", 7.0, 8.0, 0],
                ["cli.main", 20.0, None, -1]]
    assert spans.self_times(recorded) == [
        ("estimator.fit", 4.0), ("solver.SaddleSystem.solve", 3.0),
        ("solver.SaddleSystem.solve", 3.0), ("estimator.deflate", 1.0)]
