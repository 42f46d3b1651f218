"""CI gate over the BENCH_simjoin.json trajectory.

Two checks, each against the latest entry of its kind in the
trajectory file:

* **ablation** — the latest strategy-ablation entry
  (``benchmarks/test_ablation_simjoin.py``, recognized by its
  ``oracle_scan`` row) must show the ``indexed`` strategy examining no
  more candidate pairs than the naive oracle's full scan, which
  examines all ``P * (P - 1) / 2`` pattern pairs — the regression the
  candidate-generation layer exists to prevent.
* **vectorized floor** — the latest ``vectorized_simjoin`` sweep entry
  (``benchmarks/_trajectory.py --simjoin``) must show (a) one repair
  hash per algorithm across indexed-serial, vectorized-serial and
  vectorized ``n_jobs=2`` — byte-identity is the contract; (b) the
  vectorized detect wall at least ``2x`` faster than indexed on the
  HOSP slice at paper scale (``1.3x`` at smoke, where fixed numpy
  overheads weigh against an ~0.07s baseline); and (c) distinct-id
  pairs examined no greater than the tuple fan-out they stand in for.

Either entry kind may be missing (older trajectories); a check without
an entry is skipped rather than failed, but both missing is MISSING.
Exit status follows the shared gate conventions (``benchmarks/_gate.py``):
0 on pass, 1 on regression, 2 when the trajectory is missing or
malformed. A verdict block is appended to ``$GITHUB_STEP_SUMMARY`` when
set.

Usage::

    python benchmarks/check_simjoin_gate.py [path/to/BENCH_simjoin.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _gate import (  # noqa: E402
    EXIT_MISSING,
    EXIT_PASS,
    EXIT_REGRESSION,
    ROOT,
    verdict_summary,
)

DEFAULT_PATH = ROOT / "BENCH_simjoin.json"

#: minimum indexed/vectorized detect-wall ratio on the HOSP sweep
VECTOR_SPEEDUP_FLOOR = {"paper": 2.0, "smoke": 1.3}


def _last(trajectory: list, predicate) -> dict:
    for entry in reversed(trajectory):
        if isinstance(entry, dict) and predicate(entry):
            return entry
    return {}


def _check_ablation(entry: dict) -> tuple:
    """(ok, detail) for the strategy-ablation entry."""
    indexed = entry["strategies"]["indexed"]["pairs_examined"]
    scan = entry["oracle_scan"]["pairs_examined"]
    possible = entry.get("possible_pairs", 0)
    reduction = 1.0 - indexed / possible if possible else 0.0
    detail = (
        f"scale `{entry.get('scale')}`, n `{entry.get('n_tuples')}` — "
        f"possible `{possible}`, indexed examined `{indexed}`, "
        f"scan examined `{scan}`, reduction `{reduction:.1%}`"
    )
    print(
        f"gate: ablation scale={entry.get('scale')} "
        f"n={entry.get('n_tuples')} possible={possible} "
        f"indexed_examined={indexed} scan_examined={scan}"
    )
    if indexed > scan:
        return False, detail + " — indexed examined MORE than the full scan"
    return True, detail


def _check_vectorized(entry: dict) -> tuple:
    """(ok, detail) for the vectorized_simjoin sweep entry."""
    problems = []
    hosp = entry.get("hosp", {})
    speedup = float(hosp.get("speedup", 0.0))
    floor = VECTOR_SPEEDUP_FLOOR.get(str(entry.get("scale")), 1.3)
    if speedup < floor:
        problems.append(
            f"HOSP speedup `{speedup}x` under the `{floor}x` floor"
        )
    if not entry.get("hashes_match", False):
        problems.append("repair hashes differ across strategies/n_jobs")
    vectorized = hosp.get("vectorized", {})
    distinct = int(vectorized.get("distinct_pairs_examined", 0))
    fanout = int(vectorized.get("tuple_fanout", 0))
    if distinct > fanout:
        problems.append(
            f"distinct pairs `{distinct}` exceed tuple fan-out `{fanout}`"
        )
    tax = entry.get("tax", {})
    detail = (
        f"scale `{entry.get('scale')}` — HOSP speedup `{speedup}x` "
        f"(floor `{floor}x`), Tax speedup `{tax.get('speedup')}x`, "
        f"distinct `{distinct}` vs fan-out `{fanout}`, hashes "
        f"{'one value per algorithm' if entry.get('hashes_match') else 'MISMATCHED'}"
    )
    print(
        f"gate: vectorized scale={entry.get('scale')} "
        f"hosp_speedup={speedup} floor={floor} distinct={distinct} "
        f"fanout={fanout} hashes_match={entry.get('hashes_match')}"
    )
    if problems:
        return False, detail + " — " + "; ".join(problems)
    return True, detail


def main(argv: list) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_PATH
    if not path.exists():
        print(f"gate: {path} not found; run the simjoin ablation first",
              file=sys.stderr)
        verdict_summary("simjoin gate", "MISSING", f"`{path.name}` not found")
        return EXIT_MISSING
    try:
        trajectory = json.loads(path.read_text())
        ablation = _last(trajectory, lambda e: "oracle_scan" in e)
        vectorized = _last(
            trajectory, lambda e: e.get("workload") == "vectorized_simjoin"
        )
        if not ablation and not vectorized:
            raise ValueError("no ablation or vectorized_simjoin entries")
        checks = []
        if ablation:
            checks.append(("ablation", _check_ablation(ablation)))
        if vectorized:
            checks.append(("vectorized", _check_vectorized(vectorized)))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        print(f"gate: cannot read latest trajectory entries: {exc}",
              file=sys.stderr)
        verdict_summary(
            "simjoin gate", "MISSING", f"malformed `{path.name}`: {exc}"
        )
        return EXIT_MISSING

    detail = "; ".join(f"{name}: {result[1]}" for name, result in checks)
    if not all(result[0] for _, result in checks):
        failing = [name for name, result in checks if not result[0]]
        print(f"gate: FAIL — {', '.join(failing)} check(s) regressed",
              file=sys.stderr)
        verdict_summary("simjoin gate", "FAIL", detail)
        return EXIT_REGRESSION
    print(f"gate: PASS — {len(checks)} check(s)")
    verdict_summary("simjoin gate", "PASS", detail)
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main(sys.argv))
