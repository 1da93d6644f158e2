"""Smoke test of the benchmark: tiny inputs, one repetition per workload.

Checks that every metric BENCHMARK.json names is printed, with its unit,
for every workload it applies to, and that the result JSON carries
exactly those metrics.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# printed end-to-end metrics that the result JSON leaves out
REPORT_ONLY = {
    "failed_share": ("ratio", WORKLOADS),
    "acc_mean": ("ratio", ["grid_cluster"]),
    "objective_median": ("1", ["grid_cluster"]),
}


def smoke(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    assert out.returncode == 0, out.stderr
    printed = {}
    for line in out.stdout.splitlines():
        if line.startswith("metric "):
            _, workload, name, value, unit = line.split()
            float(value)
            printed[workload, name] = unit
    results = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    return printed, results


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(trace):
    printed, results = smoke(trace)
    listed = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    expected = {(w, name): unit for name, unit in listed.items() for w in WORKLOADS}
    if not trace:
        expected.update({(w, name): unit for name, (unit, ws) in REPORT_ONLY.items()
                         for w in ws})
    missing = {k: v for k, v in expected.items() if printed.get(k) != v}
    assert not missing

    assert len(results) == len(WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
