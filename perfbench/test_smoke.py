"""Smoke test of the benchmark at minimal length.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload must finish its shortest run with no failed operation and
emit exactly the metrics BENCHMARK.json declares, each with its unit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=cwd, check=False,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(declared) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    proc = bench(workload, 0)
    metrics = result_of(proc)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())
    ratio_row = next(line for line in proc.stdout.splitlines() if line.startswith("failed_ops_ratio"))
    assert ratio_row.split()[1] == "0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload):
    metrics = result_of(bench(workload, 1))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units(SPEC["per_layer"])
    value = {k: v["value"] for k, v in metrics.items()}
    if workload == "wide_session":
        assert value["fieldpoly.crt_basis.hit_ratio"] > 0.9
        assert value["params.validate_params.calls_per_reconstruct"] == 1
    if workload == "cli_ceremony":
        assert value["fieldpoly.crt_basis.hit_ratio"] < 0.1
        assert value["params.validate_params.calls_per_reconstruct"] == 2
        assert value["cli.exit_codes.5"] >= 1 and value["cli.exit_codes.other"] == 0
    if workload == "audit":
        assert value["oracle.states_enumerated"] > 0


def test_layer_map_covers_per_layer_metrics():
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text(encoding="utf-8"))
    mapped = [name for row in layer_map["rows"] for name in row["metrics"]]
    assert sorted(mapped) == sorted(units(SPEC["per_layer"]))
    for row in layer_map["rows"]:
        assert set(row["on"]) | set(row["flat_on"]) <= set(WORKLOADS)


def test_fails_without_sources():
    bare = ROOT / ".bench_tmp" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
