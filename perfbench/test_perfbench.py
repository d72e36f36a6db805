"""Self-test of the benchmark: a smallest-size pass of every workload.

Run from the repository root with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END, PER_LAYER, tail
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smallest_pass_reports_every_metric_and_matches_goldens(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", trace, "--size", "small")
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in out["metrics"].values())
        assert "fail_ratio 0.0 ratio" in proc.stdout


def test_same_seed_same_inputs():
    for name, cls in WORKLOADS.items():
        wl = cls("small")
        goldens = json.loads((ROOT / "perfbench" / "goldens" / f"{name}-small.json").read_text())
        assert wl.order(5, goldens) == wl.order(5, goldens)
        assert set(wl.order(5, goldens)) <= {int(k) for k in goldens}


def test_golden_mismatch_fails_the_run(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "perfbench" / "goldens" / "tiny-oracle-small.json"
    goldens = json.loads(path.read_text())
    for entry in goldens.values():
        entry["det_social"] = "99 99"
    path.write_text(json.dumps(goldens))
    proc = bench("--workload", "tiny-oracle", "--seed", "0", "--seconds", "0",
                 "--size", "small", cwd=tmp_path)
    assert proc.returncode == 1
    out = result(proc)
    assert out["correct"] is False and out["failed"] == out["attempted"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "study4", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_has_ten_samples_beyond_it():
    value, pct = tail([float(v) for v in range(1, 101)])
    assert value == 90.0 and pct == 90.0
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
