"""Harness smoke test: each workload at reduced size, untraced and traced.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric declared in BENCHMARK.json is emitted with its unit,
that the workload-specific times are printed, and that no op fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SPECIFIC = {
    "ensemble": {"entropic_ms_p50": "ms", "exact-prox_ms_p50": "ms"},
    "wide_vocab": {"simulate_s": "s", "prox_iterate_s": "s"},
    "claims": {"verify_s": "s", "witness_s": "s"},
    "sweep": {"sweep_s": "s"},
}


def run_bench(run_py: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    done = run_bench(HERE / "run.py", workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    line = next(line for line in lines if line.startswith("printed: "))
    printed = {name: (m["value"], m["unit"]) for name, m in json.loads(line[len("printed: "):]).items()}
    assert printed["failed_ratio"] == (0.0, "ratio")
    for name, unit in SPECIFIC[workload].items():
        assert printed[name][1] == unit and printed[name][0] > 0
    assert printed["op_ms_p50"][1] == "ms" and printed["op_ms_p50"][0] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path / HERE.name / "run.py", "ensemble", 0)
    assert done.returncode != 0
    assert done.stdout == ""
