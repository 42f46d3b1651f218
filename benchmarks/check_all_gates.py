"""The CI gate table: every gated bound is one row, one loop checks them.

Each row of :data:`ROWS` holds

* ``gate`` — the gate it belongs to (``--gates`` selects by this name);
* ``check`` — what the row measures, as printed;
* ``source`` — the ``BENCH_*.json`` file it reads, or a live run for the
  kernel gate (:data:`LIVE_BENCH`, the Myers-vs-two-row microbench;
  :data:`LIVE_SUITE`, ``tests/test_kernels.py`` under pytest);
* ``select`` — picks ``(latest, baseline)`` from the source: the latest
  entry of a kind, workload or algorithm and the first entry of the same
  shape (the committed one), or ``None`` when no entry applies;
* ``value`` — the measured quantity of that pair (it raises
  :class:`Skip` when the check does not apply); a ``(value, note)`` pair
  adds context to the printed detail;
* ``op`` and ``bound`` — the comparison that must hold. A callable bound
  is read from the same pair (the baseline's hash, the floor of the
  entry's scale).

Verdicts. A row is MISSING (the pipeline is broken, not the code under
test) when its source is absent or malformed or its entry cannot be
read (:class:`Unreadable`), and when its entry holds nothing fresh to
compare (:class:`NotMeasured`, e.g. only the committed baseline). It is
skipped when its selector finds no entry or its value raises
:class:`Skip`; otherwise the comparison decides PASS or FAIL. A gate is
MISSING when any row is unreadable, else FAIL when any row fails, else
MISSING when any row is not measured or every row was skipped, else
PASS. The exit code aggregates over the selected gates (``_gate.py``):
1 when any gate failed, else 2 when any is missing, else 0.

Output: one console line per row, and, when ``$GITHUB_STEP_SUMMARY`` is
set (inside a GitHub Actions step), one markdown table with the same
rows.

Usage::

    python benchmarks/check_all_gates.py [--gates kernel,perf,...]
"""

from __future__ import annotations

import json
import operator
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _gate import EXIT_MISSING, EXIT_PASS, EXIT_REGRESSION, ROOT  # noqa: E402

GATES = (
    "kernel", "simjoin", "search", "perf", "substrate", "sched", "serve",
    "scenario",
)

LIVE_BENCH = "live: kernel microbench"
LIVE_SUITE = "live: tests/test_kernels.py"
REPAIR = "BENCH_repair.json"
SIMJOIN = "BENCH_simjoin.json"
SERVE = "BENCH_serve.json"
SCENARIOS = "BENCH_scenarios.json"

PASS, FAIL, MISSING, UNREADABLE, SKIP = (
    "PASS", "FAIL", "MISSING", "UNREADABLE", "SKIP",
)
ICONS = {
    PASS: "✅ PASS", FAIL: "❌ FAIL", MISSING: "⚠️ MISSING",
    UNREADABLE: "⚠️ MISSING", SKIP: "➖ SKIP",
}
OPS = {
    "==": operator.eq, ">=": operator.ge, "<=": operator.le,
    "<": operator.lt, ">": operator.gt,
}

#: repair output hashes of the five algorithms of Sec. 3-4 on the pinned
#: 800-tuple HOSP slice, recorded on the row-major substrate before the
#: columnar rewrite; any drift means a change altered repair semantics
PINNED_HASHES = {
    "appro-m": "ed47302ef255617b",
    "exact-m": "ed47302ef255617b",
    "exact-s": "3a25e7b8fe51b497",
    "greedy-m": "ed47302ef255617b",
    "greedy-s": "3a25e7b8fe51b497",
}
#: minimum vectorized-over-indexed detect speedup on the HOSP sweep, by
#: scale: fixed numpy overheads weigh against the ~0.07s smoke baseline
VECTOR_SPEEDUP_FLOOR = {"paper": 2.0, "smoke": 1.3}
#: absolute F1 drop allowed before a scenario row trips (the detectors
#: are deterministic on the seeded workloads, so any real drop is a code
#: change, but CI should not flap on a future stochastic scenario)
F1_TOLERANCE = 0.02

Pick = Tuple[dict, dict]


class Unreadable(Exception):
    """The row cannot run: a missing or malformed source or entry."""


class NotMeasured(Exception):
    """The entry is readable but holds nothing fresh to compare."""


class Skip(Exception):
    """The row's check does not apply to the selected entry."""


@dataclass(frozen=True)
class Row:
    gate: str
    check: str
    source: str
    select: Callable[[Any], Optional[Pick]]
    value: Callable[[dict, dict], Any]
    op: str
    bound: Any


# -- selectors ---------------------------------------------------------
def latest(match: Callable[[dict], bool], *shape: str):
    """Selector of the last entry *match* accepts and its baseline.

    The baseline is the first accepted entry that agrees with the
    latest on every *shape* key, so a scale switch starts a fresh
    comparison and a lone entry is its own baseline.
    """
    def select(entries: List[dict]) -> Optional[Pick]:
        matching = [e for e in entries if match(e)]
        if not matching:
            return None
        last = matching[-1]
        baseline = next(
            e for e in matching if all(e.get(k) == last.get(k) for k in shape)
        )
        return last, baseline
    return select


def where(key: str, value: Any) -> Callable[[dict], bool]:
    return lambda entry: entry.get(key) == value


def live(data: dict) -> Pick:
    return data, data


#: timed repair runs only: tax_substrate/skew_sched entries carry no
#: top-level wall_seconds, serve and scenario entries have their own rows
PERF_RUN = latest(
    lambda e: "wall_seconds" in e and e.get("kind") not in ("serve", "scenario"),
    "scale", "n_tuples", "algorithm",
)
SUBSTRATE = latest(where("workload", "tax_substrate"))
SCHED = latest(where("workload", "skew_sched"))
VECTORIZED = latest(where("workload", "vectorized_simjoin"))
SERVE_ENTRY = latest(where("kind", "serve"))
SCENARIO_ENTRY = latest(where("kind", "scenario"), "scale", "n_tuples")


# -- value functions ---------------------------------------------------
def calibrated(entry: dict, key: str) -> float:
    """``entry[key]`` over the entry's machine calibration."""
    calibration = float(entry.get("calibration_seconds") or 0.0)
    seconds = float(entry[key])
    return seconds / calibration if calibration > 0 else seconds


def wall_ratio(last: dict, base: dict) -> Tuple[float, str]:
    base_rate = calibrated(base, "wall_seconds")
    last_rate = calibrated(last, "wall_seconds")
    ratio = last_rate / base_rate if base_rate > 0 else 1.0
    return ratio, (
        f"{last.get('algorithm')} on {last.get('n_tuples')} tuples "
        f"({last.get('scale')}): {last_rate:.2f} vs {base_rate:.2f}"
    )


def search_speedup(last: dict, base: dict) -> Tuple[float, str]:
    if base is last:
        raise NotMeasured(
            "only the committed baseline is present; run "
            f"benchmarks/_trajectory.py --algorithm {last.get('algorithm')}"
        )
    if "search_seconds" not in base or "search_seconds" not in last:
        raise NotMeasured("entries lack search_seconds timings")
    last_search = calibrated(last, "search_seconds")
    if last_search <= 0:
        raise NotMeasured("entries lack search_seconds timings")
    base_search = calibrated(base, "search_seconds")
    return base_search / last_search, f"{base_search:.2f} -> {last_search:.2f}"


def ablation_examined(entry: dict, _: dict) -> Tuple[int, str]:
    indexed = entry["strategies"]["indexed"]["pairs_examined"]
    possible = entry.get("possible_pairs", 0)
    reduction = 1.0 - indexed / possible if possible else 0.0
    return indexed, (
        f"{entry.get('scale')}, n {entry.get('n_tuples')}, "
        f"reduction {reduction:.1%} of {possible}"
    )


def hosp_vectorized(entry: dict, key: str) -> int:
    return int(entry.get("hosp", {}).get("vectorized", {}).get(key, 0))


def task_bytes_max(entry: dict, _: dict) -> int:
    return int(entry.get("shipping", {}).get("task_bytes_max", 0))


def task_reduction(entry: dict, _: dict) -> float:
    task_max = task_bytes_max(entry, entry)
    row_major = int(entry.get("shipping", {}).get("row_major_task_bytes", 0))
    if not task_max:
        raise Skip("no task_bytes_max to compare against")
    return row_major / task_max


def lpt_speedup(entry: dict, mode: str) -> float:
    """Serial CPU total over the modeled makespan of *mode*'s units.

    The units are list-scheduled longest-first onto the entry's worker
    count, as an idle pool worker grabs the largest pending task. The
    replay of measured CPU seconds does not depend on machine load, so
    the row means the same on one core as on many.
    """
    serial_total = sum(float(u) for u in entry["serial"]["unit_cpu_seconds"])
    units = sorted((float(u) for u in entry[mode]["unit_cpu_seconds"]), reverse=True)
    loads = [0.0] * max(1, int(entry["config"]["n_jobs"]))
    for unit in units:
        loads[loads.index(min(loads))] += unit
    if max(loads) <= 0:
        raise Unreadable(f"{mode} entry has no measured CPU units")
    return serial_total / max(loads)


def target_f1(entry: dict) -> Dict[str, float]:
    """scenario name -> its target detector's F1."""
    return {
        cell["scenario"]: float(cell["f1"])
        for cell in entry.get("matrix", ())
        if cell.get("target")
    }


def diagonal_margin(last: dict, base: dict) -> Tuple[float, str]:
    """Worst target-detector F1 minus its floor (baseline - tolerance)."""
    floors = {s: f1 - F1_TOLERANCE for s, f1 in target_f1(base).items()}
    scores = target_f1(last)
    margins = {s: f1 - floors[s] for s, f1 in scores.items() if s in floors}
    if not margins:
        raise Skip("no target scenario shared with the baseline")
    worst = min(sorted(margins), key=margins.__getitem__)
    return margins[worst], (
        f"{worst}: F1 {scores[worst]:.3f} vs floor {floors[worst]:.3f}"
    )


def anchor_margin(last: dict, base: dict) -> Tuple[float, str]:
    """fd-noise repair F1 minus its floor (baseline - tolerance)."""
    last_f1 = (last.get("fd_repair") or {}).get("f1")
    base_f1 = (base.get("fd_repair") or {}).get("f1")
    if last_f1 is None or base_f1 is None:
        raise Skip("no fd-noise repair F1 on the entry or its baseline")
    floor = base_f1 - F1_TOLERANCE
    return last_f1 - floor, f"F1 {last_f1:.3f} vs floor {floor:.3f}"


# -- live kernel sources -----------------------------------------------
def kernel_microbench() -> dict:
    """Best-of-3 seconds of both kernels on 60 pairs of 200-char strings.

    The bit-parallel column update costs O(ceil(m/w)) big-int words
    against the DP's O(m) inner loop, so the speedup row catches a Myers
    kernel that regressed into scalar behaviour.
    """
    for path in (str(ROOT), str(ROOT / "src")):  # tests.oracles, repro
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        from repro.core.distances import levenshtein
        from tests.oracles.kernels import levenshtein_two_row
    except ImportError as exc:
        raise Unreadable(f"cannot import the distance layer: {exc}") from exc
    rng = random.Random(9)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    pairs = []
    for _ in range(60):
        left = "".join(rng.choice(alphabet) for _ in range(200))
        chars = list(left)
        for _ in range(rng.randrange(1, 12)):
            chars[rng.randrange(len(chars))] = rng.choice(alphabet)
        pairs.append((left, "".join(chars)))
    # warm-up doubles as a correctness spot check before timing
    disagreements = sum(
        levenshtein(a, b) != levenshtein_two_row(a, b) for a, b in pairs[:5]
    )
    best = {}
    for name, fn in (("myers", levenshtein), ("two_row", levenshtein_two_row)):
        best[name] = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for a, b in pairs:
                fn(a, b)
            best[name] = min(best[name], time.perf_counter() - start)
    return {"disagreements": disagreements, **best}


def kernel_suite(root: Path) -> dict:
    """Run the differential kernel suite; a skipped test counts against it.

    Skips are counted from the ``-rs`` report lines (``SKIPPED [n] ...``),
    which pytest prints at any verbosity; the ``n skipped`` summary line
    disappears under the project's ``-q`` addopts plus one more ``-q``.
    """
    test_file = root / "tests" / "test_kernels.py"
    if not test_file.exists():
        raise Unreadable(f"{test_file} not found")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(test_file), "-rs",
         "-p", "no:cacheprovider"],
        capture_output=True,
        text=True,
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    skipped = sum(
        int(n) for n in re.findall(r"^SKIPPED \[(\d+)\]", proc.stdout, re.M)
    )
    if proc.returncode != 0 or skipped:
        sys.stderr.write(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return {
        "returncode": proc.returncode,
        "skipped": skipped,
        "tail": lines[-1] if lines else "",
    }


# -- the table ---------------------------------------------------------
ROWS: List[Row] = [
    Row("kernel", "Myers speedup over the two-row DP", LIVE_BENCH, live,
        lambda e, _: e["two_row"] / e["myers"] if e["myers"] > 0 else float("inf"),
        ">=", 2.0),
    Row("kernel", "Myers/two-row disagreements on warm-up pairs", LIVE_BENCH,
        live, lambda e, _: e["disagreements"], "==", 0),
    Row("kernel", "equivalence suite exit status", LIVE_SUITE, live,
        lambda e, _: (e["returncode"], e["tail"]), "==", 0),
    Row("kernel", "equivalence suite skipped tests", LIVE_SUITE, live,
        lambda e, _: e["skipped"], "==", 0),
    Row("simjoin", "ablation: indexed pairs examined vs the full scan",
        SIMJOIN, latest(lambda e: "oracle_scan" in e), ablation_examined,
        "<=", lambda e, _: e["oracle_scan"]["pairs_examined"]),
    Row("simjoin", "vectorized detect speedup over indexed (HOSP)", SIMJOIN,
        VECTORIZED,
        lambda e, _: float(e.get("hosp", {}).get("speedup", 0.0)),
        ">=", lambda e, _: VECTOR_SPEEDUP_FLOOR.get(str(e.get("scale")), 1.3)),
    Row("simjoin", "vectorized: one repair hash per algorithm", SIMJOIN,
        VECTORIZED, lambda e, _: bool(e.get("hashes_match", False)),
        "==", True),
    Row("simjoin", "vectorized: distinct pairs examined vs tuple fan-out",
        SIMJOIN, VECTORIZED,
        lambda e, _: hosp_vectorized(e, "distinct_pairs_examined"),
        "<=", lambda e, _: hosp_vectorized(e, "tuple_fanout")),
    *[  # a search speedup must not change any repair
        Row("search", f"{alg} output hash vs its baseline", REPAIR,
            latest(where("algorithm", alg), "scale", "n_tuples"),
            lambda e, _: e.get("output_hash"),
            "==", lambda _, b: b.get("output_hash"))
        for alg in PINNED_HASHES
    ],
    *[
        Row("search", f"{alg} calibrated search-phase speedup", REPAIR,
            latest(where("algorithm", alg), "scale", "n_tuples"),
            search_speedup, ">=", 2.0)
        for alg in ("exact-m", "exact-s")
    ],
    Row("perf", "latest run output hash vs its baseline", REPAIR, PERF_RUN,
        lambda e, _: e["output_hash"], "==", lambda _, b: b["output_hash"]),
    Row("perf", "latest run calibrated wall over its baseline", REPAIR,
        PERF_RUN, wall_ratio, "<=", 1.25),
    Row("substrate", "marginal RSS per Tax tuple, bytes", REPAIR, SUBSTRATE,
        lambda e, _: float(e.get("marginal_bytes_per_tuple", float("inf"))),
        "<=", 160.0),
    Row("substrate", "largest task message recorded, bytes", REPAIR,
        SUBSTRATE, task_bytes_max, ">", 0),
    Row("substrate", "largest task message, bytes", REPAIR, SUBSTRATE,
        task_bytes_max, "<=", 16384),
    Row("substrate", "row-major over columnar task bytes", REPAIR, SUBSTRATE,
        task_reduction, ">=", 10.0),
    *[
        Row("substrate", f"{alg} output hash on the 800-tuple HOSP slice",
            REPAIR, SUBSTRATE,
            lambda e, _, a=alg: e.get("output_hashes", {}).get(a),
            "==", pinned)
        for alg, pinned in PINNED_HASHES.items()
    ],
    Row("sched", "adaptive modeled speedup", REPAIR, SCHED,
        lambda e, _: lpt_speedup(e, "adaptive"), ">=", 3.0),
    Row("sched", "static modeled speedup (the skew must be real)", REPAIR,
        SCHED, lambda e, _: lpt_speedup(e, "static"), "<", 1.5),
    Row("sched", "distinct hashes across serial/static/adaptive", REPAIR,
        SCHED,
        lambda e, _: len({e[m]["output_hash"] for m in ("serial", "static", "adaptive")}),
        "==", 1),
    Row("sched", "hash-slice algorithms whose hash moved with splitting",
        REPAIR, SCHED,
        lambda e, _: sum(
            len(set(h)) != 1 for h in e["hash_slice"]["output_hashes"].values()
        ),
        "==", 0),
    Row("serve", "requests per second", SERVE, SERVE_ENTRY,
        lambda e, _: float(e["requests_per_second"]), ">=", 1000.0),
    Row("serve", "p99 latency, ms", SERVE, SERVE_ENTRY,
        lambda e, _: float(e["latency_p99_ms"]), "<=", 25.0),
    Row("serve", "cache speedup (cold fit over hit)", SERVE, SERVE_ENTRY,
        lambda e, _: float(e["cache_speedup"]), ">=", 50.0),
    Row("serve", "examined fraction of the linear scan", SERVE, SERVE_ENTRY,
        lambda e, _: float(e["examined_fraction"]), "<=", 0.20),
    Row("serve", "served responses differing from batch repair", SERVE,
        SERVE_ENTRY, lambda e, _: int(e["equivalence_mismatches"]), "==", 0),
    Row("scenario", "detectors in the matrix", SCENARIOS, SCENARIO_ENTRY,
        lambda e, _: len(set(e.get("detectors", ()))), ">=", 3),
    Row("scenario", "datasets in the matrix", SCENARIOS, SCENARIO_ENTRY,
        lambda e, _: len(set(e.get("datasets", ()))), ">=", 3),
    Row("scenario", "FD repair hash unchanged by the detectors", SCENARIOS,
        SCENARIO_ENTRY,
        lambda e, _: bool((e.get("fd_repair") or {}).get("byte_identical")),
        "==", True),
    Row("scenario", "worst target-detector F1 over its baseline floor",
        SCENARIOS, SCENARIO_ENTRY, diagonal_margin, ">=", 0.0),
    Row("scenario", "fd-noise repair F1 over its baseline floor", SCENARIOS,
        SCENARIO_ENTRY, anchor_margin, ">=", 0.0),
]


# -- the loop ----------------------------------------------------------
def load(source: str, root: Path) -> Any:
    """The entries of *source* under *root*; raises :class:`Unreadable`."""
    if source == LIVE_BENCH:
        return kernel_microbench()
    if source == LIVE_SUITE:
        return kernel_suite(root)
    path = root / source
    if not path.exists():
        raise Unreadable(f"{source} not found")
    try:
        entries = json.loads(path.read_text())
    except ValueError as exc:
        raise Unreadable(f"malformed {source}: {exc}") from exc
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) for e in entries
    ):
        raise Unreadable(f"malformed {source}: not a list of entries")
    return entries


def _fmt(value: Any) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def evaluate(row: Row, source: Any) -> Tuple[str, str]:
    """(verdict, detail) of *row* on its loaded source."""
    if isinstance(source, Unreadable):
        return UNREADABLE, str(source)
    try:
        pick = row.select(source)
        if pick is None:
            return SKIP, f"no entry in {row.source} applies"
        measured = row.value(*pick)
        value, note = measured if isinstance(measured, tuple) else (measured, "")
        bound = row.bound(*pick) if callable(row.bound) else row.bound
        verdict = PASS if OPS[row.op](value, bound) else FAIL
    except Skip as exc:
        return SKIP, str(exc)
    except NotMeasured as exc:
        return MISSING, str(exc)
    except Unreadable as exc:
        return UNREADABLE, str(exc)
    except Exception as exc:  # a malformed entry: report it, check the rest
        return UNREADABLE, f"malformed entry: {exc!r}"
    detail = f"{_fmt(value)} {row.op} {_fmt(bound)}"
    return verdict, f"{detail} ({note})" if note else detail


def gate_verdict(verdicts: List[str]) -> str:
    """A gate with an unreadable row is MISSING whatever the rest say: a
    partly malformed entry vouches for none of its fields. Otherwise a
    failure outranks a row with nothing fresh to compare."""
    if UNREADABLE in verdicts:
        return MISSING
    if FAIL in verdicts:
        return FAIL
    if MISSING in verdicts or all(v == SKIP for v in verdicts):
        return MISSING
    return PASS


def step_summary(results: List[Tuple[Row, str, str]]) -> None:
    """Append the verdict table to ``$GITHUB_STEP_SUMMARY``, if set.

    Best-effort: the exit code is the contract, so an I/O error here
    does not change it.
    """
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = ["### gate suite", "", "| gate | check | verdict | detail |",
             "|---|---|---|---|"]
    for row, verdict, detail in results:
        escaped = detail.replace("|", "\\|")
        lines.append(f"| {row.gate} | {row.check} | {ICONS[verdict]} | {escaped} |")
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n\n")
    except OSError:
        pass


def main(argv: Sequence[str], root: Path = ROOT) -> int:
    """Check the selected gates' rows against the sources under *root*."""
    selected: List[str] = list(GATES)
    rest = list(argv[1:])
    while rest:
        arg = rest.pop(0)
        if arg == "--gates":
            if not rest:
                print("--gates requires a value", file=sys.stderr)
                return EXIT_MISSING
            selected = [n.strip() for n in rest.pop(0).split(",") if n.strip()]
        else:
            print(f"unknown argument {arg!r}", file=sys.stderr)
            return EXIT_MISSING
    unknown = [n for n in selected if n not in GATES]
    if unknown:
        print(f"unknown gate(s) {unknown}; known: {', '.join(GATES)}",
              file=sys.stderr)
        return EXIT_MISSING

    sources: Dict[str, Any] = {}
    results: List[Tuple[Row, str, str]] = []
    for row in (r for name in selected for r in ROWS if r.gate == name):
        if row.source not in sources:  # loaded once, only when selected
            try:
                sources[row.source] = load(row.source, root)
            except Unreadable as exc:
                sources[row.source] = exc
            except Exception as exc:  # a crashed live run: report, go on
                sources[row.source] = Unreadable(f"{row.source}: {exc!r}")
        verdict, detail = evaluate(row, sources[row.source])
        results.append((row, verdict, detail))
        print(f"{ICONS[verdict]:<11} {row.gate}: {row.check} — {detail}")

    verdicts = {
        name: gate_verdict([v for r, v, _ in results if r.gate == name])
        for name in selected
    }
    step_summary(results)
    failed = [n for n, v in verdicts.items() if v == FAIL]
    missing = [n for n, v in verdicts.items() if v == MISSING]
    print(
        f"gate suite: {len(verdicts) - len(failed) - len(missing)} pass, "
        f"{len(failed)} fail ({', '.join(failed) or '-'}), "
        f"{len(missing)} missing ({', '.join(missing) or '-'})"
    )
    if failed:
        return EXIT_REGRESSION
    if missing:
        return EXIT_MISSING
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main(sys.argv))
