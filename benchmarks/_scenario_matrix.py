"""Append one detector scenario-matrix run to ``BENCH_scenarios.json``.

The workload is the shipped scenario grid
(:data:`repro.eval.runner.SCENARIOS` — every error profile on its
natural dataset) crossed with every registry detector, at 2000 tuples
under ``REPRO_BENCH_SCALE=paper`` and 400 at ``smoke``. Each run
appends one ``kind="scenario"`` entry:

* identity — scale, tuple count, the detector and scenario lists;
* the matrix — per (scenario x detector) cell-exact precision / recall
  / F1 from :func:`repro.eval.metrics.evaluate_detection`, plus flagged
  counts and per-detector seconds;
* the FD anchor — a full ``greedy-m`` repair of the ``fd-noise``
  scenario scored against the injected truth, run twice (detectors off,
  every detector on) with both output hashes recorded. The
  ``scenario`` rows of ``benchmarks/check_all_gates.py`` fail when the
  hashes diverge: detectors are an advisory signal layer and must never change
  the repair (``docs/scenarios.md``).

The ``kind`` marker keeps the ``perf`` gate rows from trending these
entries as end-to-end repair runs.

Usage::

    PYTHONPATH=src python benchmarks/_scenario_matrix.py \
        [path/to/BENCH_scenarios.json]
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _gate import ROOT, calibration_seconds  # noqa: E402
from _harness import SCALE  # noqa: E402

from repro.core.engine import Repairer  # noqa: E402
from repro.detect import DETECTORS  # noqa: E402
from repro.eval.metrics import evaluate_repair  # noqa: E402
from repro.eval.runner import SCENARIOS, scenario_matrix  # noqa: E402
from repro.exec.config import RepairConfig  # noqa: E402
from repro.obs import repair_output_hash  # noqa: E402

DEFAULT_PATH = ROOT / "BENCH_scenarios.json"
SCENARIO_N = 2000 if SCALE == "paper" else 400
REPAIR_ALGORITHM = "greedy-m"


def matrix_entry() -> dict:
    """One scenario-matrix run as a trajectory entry."""
    detectors = DETECTORS.names()
    start = time.perf_counter()
    results = scenario_matrix(detectors=detectors, n=SCENARIO_N)
    matrix_wall = time.perf_counter() - start
    matrix = [
        {
            "scenario": r.scenario.name,
            "dataset": r.scenario.dataset,
            "profile": r.scenario.profile,
            "detector": r.detector,
            "target": r.is_target,
            "precision": round(r.quality.precision, 6),
            "recall": round(r.quality.recall, 6),
            "f1": round(r.quality.f1, 6),
            "flagged_cells": r.quality.flagged_cells,
            "true_errors": r.quality.true_errors,
            "seconds": round(r.seconds, 4),
        }
        for r in results
    ]
    return {
        "kind": "scenario",
        "scale": SCALE,
        "n_tuples": SCENARIO_N,
        "calibration_seconds": round(calibration_seconds(), 4),
        "detectors": list(detectors),
        "scenarios": [s.name for s in SCENARIOS],
        "datasets": sorted({s.dataset for s in SCENARIOS}),
        "matrix_seconds": round(matrix_wall, 4),
        "matrix": matrix,
        "fd_repair": _fd_repair_anchor(),
    }


def _fd_repair_anchor() -> dict:
    """The fd-noise scenario repaired end-to-end, detectors off vs on.

    Scores the repair cell-exactly against the injected truth and pins
    both output hashes; the gate requires them identical (the advisory
    detector layer must not influence the search).
    """
    scenario = next(s for s in SCENARIOS if s.name == "fd-noise")
    _, dirty, truth, fds, thresholds = scenario.workload(SCENARIO_N)
    hashes = {}
    quality = None
    edits = 0
    for label, spec in (("plain", None), ("detectors", tuple(DETECTORS))):
        repairer = Repairer(
            fds,
            algorithm=REPAIR_ALGORITHM,
            thresholds=thresholds,
            config=RepairConfig(detectors=spec),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = repairer.repair(dirty)
        hashes[label] = repair_output_hash(result.edits, result.cost)
        if label == "plain":
            variables = result.stats.get("variables", set())
            quality = evaluate_repair(result.edits, truth, variables)
            edits = len(result.edits)
    return {
        "scenario": scenario.name,
        "algorithm": REPAIR_ALGORITHM,
        "precision": round(quality.precision, 6),
        "recall": round(quality.recall, 6),
        "f1": round(quality.f1, 6),
        "edits": edits,
        "true_errors": quality.true_errors,
        "output_hash_plain": hashes["plain"],
        "output_hash_detectors": hashes["detectors"],
        "byte_identical": hashes["plain"] == hashes["detectors"],
    }


def main(argv: list) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_PATH
    entry = matrix_entry()
    trajectory = []
    if path.exists():
        trajectory = json.loads(path.read_text())
    trajectory.append(entry)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    targets = [c for c in entry["matrix"] if c["target"]]
    anchor = entry["fd_repair"]
    print(
        f"scenarios: {len(entry['scenarios'])} scenario(s) x "
        f"{len(entry['detectors'])} detector(s) on {entry['n_tuples']} "
        f"tuples ({SCALE}) — target-diagonal F1 "
        + ", ".join(f"{c['scenario']}={c['f1']:.3f}" for c in targets)
        + f"; fd repair F1 {anchor['f1']:.3f}, hashes "
        f"{'identical' if anchor['byte_identical'] else 'DIVERGED'}; "
        f"{len(trajectory)} entr{'y' if len(trajectory) == 1 else 'ies'} "
        f"in {path}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
