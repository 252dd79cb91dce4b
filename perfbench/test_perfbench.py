"""Self-test of the benchmark, at tiny input sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the root of a checkout. Each test runs perfbench/run.py in a
subprocess, as the benchmark is run for real.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MODULES = ("cli.main", "spaces", "cassinian", "delta", "verify", "scenarios")


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, result = bench(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_reference_digest_fails_the_run(tmp_path):
    ref = json.loads((HERE / "reference.json").read_text())
    entry = ref["digests"]["tiny"]["delta-n200"][str(5 % ref["pool"])]
    entry["delta.w1"] = "0" * len(entry["delta.w1"])
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))
    for trace in (0, 1):
        code, result = bench("delta-n200", trace, "--reference", str(bad))
        assert code != 0
        assert result["correct"] is False and result["failed"] > 0
        if trace:
            assert result["metrics"]["failed_frac"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_and_unattributed_add_up_to_the_traced_wall(workload):
    code, result = bench(workload, 1)
    assert code == 0
    m = {name: v["value"] for name, v in result["metrics"].items()}
    parts = sum(m[f"{mod}.self_s"] for mod in MODULES) + m["unattributed_s"]
    assert parts == pytest.approx(m["traced_wall_s"], rel=1e-9, abs=1e-12)
    assert m["unattributed_s"] >= 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert code != 0 and result is None
