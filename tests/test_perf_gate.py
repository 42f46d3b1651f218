"""The perf rows of the gate table: pass, slowdown, hash drift, missing file.

Drives ``benchmarks/check_all_gates.main`` in process with ``--gates
perf`` against synthetic trajectory files, plus one check that the
*committed* baseline at the repo root is itself well-formed and
self-consistent — the nightly and CI jobs compare against it, so a
malformed commit would silently turn the gate into a no-op (exit 2),
not a failure.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import check_all_gates  # noqa: E402
from _gate import EXIT_MISSING, EXIT_PASS, EXIT_REGRESSION  # noqa: E402

BASELINE = {
    "scale": "smoke",
    "n_tuples": 800,
    "n_fds": 3,
    "algorithm": "greedy-m",
    "wall_seconds": 0.2,
    "calibration_seconds": 0.01,
    "phase_seconds": {"detect": 0.1, "targets/search": 0.05},
    "edits": 442,
    "cost": 12.5,
    "output_hash": "ed47302ef255617b",
}


def _write(tmp_path: Path, entries) -> Path:
    path = tmp_path / "BENCH_repair.json"
    path.write_text(json.dumps(entries, indent=2))
    return path


def _latest(**overrides):
    entry = copy.deepcopy(BASELINE)
    entry.update(overrides)
    return entry


def _run(path: Path) -> int:
    """The perf gate's exit code; it reads BENCH_repair.json beside *path*."""
    return check_all_gates.main(
        ["check_all_gates.py", "--gates", "perf"], root=path.parent
    )


def test_matching_latest_passes(tmp_path):
    path = _write(tmp_path, [BASELINE, _latest(wall_seconds=0.21)])
    assert _run(path) == EXIT_PASS


def test_single_entry_is_its_own_baseline(tmp_path):
    # a fresh machine's first run must not self-compare into a failure
    path = _write(tmp_path, [BASELINE])
    assert _run(path) == EXIT_PASS


def test_two_x_slowdown_fails(tmp_path):
    path = _write(tmp_path, [BASELINE, _latest(wall_seconds=0.4)])
    assert _run(path) == EXIT_REGRESSION


def test_regression_just_under_ceiling_passes(tmp_path):
    ceiling = next(
        row.bound
        for row in check_all_gates.ROWS
        if row.gate == "perf" and row.op == "<="
    )
    path = _write(
        tmp_path,
        [BASELINE, _latest(wall_seconds=BASELINE["wall_seconds"] * (ceiling - 0.01))],
    )
    assert _run(path) == EXIT_PASS


def test_calibration_cancels_machine_speed(tmp_path):
    # 2x wall on a machine measured 2x slower is NOT a regression
    slower_machine = _latest(wall_seconds=0.4, calibration_seconds=0.02)
    path = _write(tmp_path, [BASELINE, slower_machine])
    assert _run(path) == EXIT_PASS


def test_output_hash_change_fails_even_when_faster(tmp_path):
    faster_but_different = _latest(
        wall_seconds=0.1, output_hash="0000000000000000"
    )
    path = _write(tmp_path, [BASELINE, faster_but_different])
    assert _run(path) == EXIT_REGRESSION


def test_baseline_matches_on_workload_shape(tmp_path):
    # a paper-scale entry must not become the smoke run's baseline
    paper = _latest(scale="paper", n_tuples=5000, wall_seconds=9.0)
    slow_smoke = _latest(wall_seconds=0.4)
    path = _write(tmp_path, [paper, BASELINE, slow_smoke])
    assert _run(path) == EXIT_REGRESSION


def test_missing_file_exits_missing(tmp_path):
    assert _run(tmp_path / "absent.json") == EXIT_MISSING


def test_malformed_trajectory_exits_missing(tmp_path):
    path = tmp_path / "BENCH_repair.json"
    path.write_text("[{\"scale\": \"smoke\"}]")
    assert _run(path) == EXIT_MISSING


def test_committed_baseline_is_gate_ready():
    committed = ROOT / "BENCH_repair.json"
    trajectory = json.loads(committed.read_text())
    assert trajectory, "committed trajectory must not be empty"
    entry = trajectory[0]
    for key in (
        "scale",
        "n_tuples",
        "algorithm",
        "wall_seconds",
        "calibration_seconds",
        "phase_seconds",
        "output_hash",
    ):
        assert key in entry, key
    assert entry["calibration_seconds"] > 0
    assert _run(committed) == EXIT_PASS


@pytest.mark.parametrize("exit_codes", [(EXIT_PASS, EXIT_REGRESSION, EXIT_MISSING)])
def test_exit_codes_are_distinct(exit_codes):
    assert len(set(exit_codes)) == 3
    assert exit_codes[0] == 0  # success must be the conventional zero
