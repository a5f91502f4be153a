"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench

The quick runs use one second of jobs per workload; the whole file
takes about 90 s on a 2-core Xeon, most of it in the 1M-row
``bigpop-pool`` set-up.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import DEFAULT_SEED, DIAGNOSTICS, END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, workload: str, trace: int, seed: int = DEFAULT_SEED, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_quick_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _ in expected
    }
    prefix = "layer" if trace else "metric"
    for name, unit, _ in expected:
        assert any(line.startswith(f"{prefix} {name} = ") and f" {unit}" in line for line in lines), name
    for name, unit in DIAGNOSTICS if trace else ():
        assert any(line.startswith(f"diagnostic {name} = ") and f" {unit}" in line for line in lines), name
    assert any(line.startswith("failed_frac = 0 ") for line in lines)
    assert any(line.startswith("env nproc=") and "numpy=" in line for line in lines)
    assert any(line.startswith("check replay:") for line in lines)
    assert any(line.startswith("check reference:") and "match" in line for line in lines)


def test_corrupted_reference_fails_the_run(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    digest = reference["digests"]["plugin-small-n"][0]
    reference["digests"]["plugin-small-n"][0] = ("0" if digest[0] != "0" else "1") + digest[1:]
    path.write_text(json.dumps(reference))
    proc = bench(tmp_path, "plugin-small-n", 0)
    assert proc.returncode == 1
    assert "differs from reference.json" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_run_without_the_program_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "twophase-all", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_tail_is_highest_percentile_with_ten_beyond_and_at_least_the_median():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 13)]) == (6.5, 50.0)
    assert run.tail([float(i) for i in range(1, 31)]) == (20.0, 100.0 * 20 / 30)
