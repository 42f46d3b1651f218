"""Tiny-size runs of every workload, traced and untraced, end to end."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from metrics import ALL, END_TO_END, PER_LAYER

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ALL)
def test_tiny_run_is_correct_and_complete(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [m.name for m in declared]
    for metric in declared:
        assert result["metrics"][metric.name]["unit"] == metric.unit
    if not trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert all(values[m.name] > 0 for m in END_TO_END), values


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", "hosp_batch", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
