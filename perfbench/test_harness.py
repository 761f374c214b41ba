"""Smoke test of the benchmark harness (about 15 seconds).

    python3 -m pytest -q perfbench/test_harness.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a cheap slice of every workload is correct, and that traced and
untraced passes give identical outcomes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {"end_to_end": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
         "per_layer": {m["name"]: m["unit"] for m in SPEC["per_layer"]}}

# Cheap operations of each workload, so a pass takes well under a second.
CHEAP = {
    "synth": lambda op: op.params["half_width"] == 8 and op.params["offset"] == 0,
    "audit": lambda op: op.kind == "quiddity_of" or op.id.endswith("-8"),
    "count": lambda op: op.params["band"] <= 8 and "-16/" in op.id,
    "frieze": lambda op: op.kind != "validate" or op.params["depth"] == 64,
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_and_untraced_outcomes_agree(name, tmp_path):
    workload = workloads.SETUP[name](0, tmp_path)
    workload.ops = [op for op in workload.ops if CHEAP[name](op)]
    assert workload.ops
    untraced = [run.run_pass(workload)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [run.run_pass(workload, tracer)]
    finally:
        tracer.uninstall()
    assert run.outcomes(untraced) == run.outcomes(traced) == ["ok"] * len(workload.ops)
    assert not tracer.missing
    layer = run.per_layer(tracer, workload.ops, traced, untraced)
    assert {k: u for k, (_, u) in layer.items()} == UNITS["per_layer"]
    e2e = run.end_to_end([0.1], untraced)
    assert {k: u for k, (_, u) in e2e.items()} == UNITS["end_to_end"]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "count", "--seed", "0",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = UNITS["per_layer" if trace == "1" else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    report = {line.split()[0]: line.split()[-1] for line in proc.stdout.splitlines()[2:-1]
              if len(line.split()) == 3}
    assert all(report.get(name) == unit for name, unit in want.items())


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_runs", "_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "count", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
