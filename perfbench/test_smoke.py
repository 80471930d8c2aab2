"""Smoke test of the benchmark itself: every workload at its tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run exits 0, that its outputs verify, and that every
metric BENCHMARK.json names is printed with its unit, both in the metric
lines and in the final JSON line.  Also checks that a copy of the
benchmark without the program refuses to produce a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = {(p[1], p[3]) for p in (line.split() for line in lines) if p[0] == "metric"}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert (metric["name"], metric["unit"]) in printed
        if not trace:
            assert result["metrics"][metric["name"]]["value"] > 0
    assert any(line.startswith("metric failed_frac") for line in lines)
    report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
    assert {"elimination_backend", "python", "nproc"} <= set(report["env"])


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
