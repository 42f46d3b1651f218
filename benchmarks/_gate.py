"""Shared constants of the CI gate table (``check_all_gates.py``).

Exit codes of the checker:

* ``EXIT_PASS`` (0) — every gated property holds;
* ``EXIT_REGRESSION`` (1) — a bench ran but a property failed (a real
  regression, fail the job loudly);
* ``EXIT_MISSING`` (2) — a gate could not run at all (missing or
  malformed bench file, missing tooling). CI treats this differently
  from a regression: the *pipeline* is broken, not the code under test.

``calibration_seconds()`` times a fixed pure-Python workload so
wall-clock measurements can be compared across machines of different
speeds: the perf and search rows compare *calibrated* times (seconds /
calibration), which cancels the machine's scalar speed out of the
comparison. Every bench writer stamps its entries with it.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional

EXIT_PASS = 0
EXIT_REGRESSION = 1
EXIT_MISSING = 2

#: repository root (the checker lives in benchmarks/)
ROOT = Path(__file__).resolve().parent.parent


_CALIBRATION_CACHE: Optional[float] = None


def calibration_seconds(rounds: int = 3) -> float:
    """Wall seconds of a fixed pure-Python workload (best of *rounds*).

    The workload mixes integer arithmetic, string slicing, and dict
    churn — the same instruction mix the repair hot paths exercise — so
    the ratio ``bench_wall / calibration_seconds`` is roughly
    machine-independent. Cached per process.
    """
    global _CALIBRATION_CACHE
    if _CALIBRATION_CACHE is not None:
        return _CALIBRATION_CACHE
    text = "abcdefghijklmnopqrstuvwxyz" * 8
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        table = {}
        for i in range(40_000):
            total += i * 31 % 997
            chunk = text[i % 26 : i % 26 + 13]
            table[chunk] = table.get(chunk, 0) + 1
        best = min(best, time.perf_counter() - start)
        assert total and table  # keep the loop un-eliminable
    _CALIBRATION_CACHE = best
    return best
