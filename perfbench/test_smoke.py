"""Smoke test: each workload runs at a tiny scale, passes its output checks,
and reports every metric BENCHMARK.json names, with the unit it declares."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_gridvolt()

import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace, tmp_path):
    result, info = run.run_workload(workload, seed=0, seconds=0, trace=trace,
                                    scale=workloads.TINY,
                                    workdir=str(tmp_path))
    assert result["correct"], info["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
