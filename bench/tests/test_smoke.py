"""Smoke test of the benchmark: every workload at a tiny size with a fixed seed.

    python3 -m pytest bench/tests

It checks names, units, correctness and trace coverage; it makes no timing
assertions.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import per_layer_metrics  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "bench/run.py",
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS + run.EXTRA_WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    proc = _run(workload, 0)
    record, result = _parse(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert record["error_rate"] == {"value": 0.0, "unit": "fraction"}
    assert list(result["metrics"]) == [name for name, _, _ in run.END_TO_END]
    for name, unit, _ in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    for name, unit, _ in run.END_TO_END + run.REPORTED:
        assert re.search(rf"^#\s+{name}\s+\S+ {re.escape(unit)}$", proc.stdout, re.M)
    assert record["op_p50_ms"]["value"] > 0
    assert re.search(r"^#\s+error_rate\s+0 fraction$", proc.stdout, re.M)


@pytest.mark.parametrize("workload", run.WORKLOADS + run.EXTRA_WORKLOADS)
def test_trace_has_a_span_for_each_layer_reached(workload):
    record, result = _parse(_run(workload, 1))
    assert result["correct"] is True
    assert list(result["metrics"]) == [name for name, _, _ in per_layer_metrics()]
    spans = np.load(BENCH / "out" / f"trace-{workload}.npz")
    names = spans["names"].tolist()
    seen = {names[i] for i in np.unique(spans["name"])}
    assert "bench.op" in seen
    assert record["layers_expected"]
    for layer in record["layers_expected"]:
        assert result["metrics"][f"{layer}.calls"]["value"] > 0, layer
        assert layer in seen, layer
    # Self times of each op add up to its traced duration.
    assert abs(result["metrics"]["trace.unaccounted_ms"]["value"]) < 1.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", ".work"))
    proc = _run("small_fibers", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
