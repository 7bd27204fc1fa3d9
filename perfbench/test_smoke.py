"""Smoke test of the benchmark: the tiny ``smoke`` field through the whole
path, untraced and traced, checking the result line's shape."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "smoke", "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC[kind]}
    for spec in SPEC[kind]:
        got = metrics[spec["name"]]
        assert math.isfinite(got["value"]), spec["name"]
        assert got["unit"] == spec["unit"], spec["name"]
