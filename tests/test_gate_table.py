"""Every row of the CI gate table (``benchmarks/check_all_gates.py``).

One synthetic BENCH set passes every row. Per row, a knob moves the
row's measured quantity to just inside its bound (the gate passes),
just outside it (exit 1), and the row's source is then removed or
garbled (exit 2). The live kernel rows take injected results in place
of a real microbench and pytest run.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import check_all_gates as gates  # noqa: E402
from _gate import EXIT_MISSING, EXIT_PASS, EXIT_REGRESSION  # noqa: E402

REAL_MICROBENCH = gates.kernel_microbench
REAL_SUITE = gates.kernel_suite

#: the paper's repair hashes on the pinned 800-tuple HOSP slice
PINNED = {
    "appro-m": "ed47302ef255617b",
    "exact-m": "ed47302ef255617b",
    "exact-s": "3a25e7b8fe51b497",
    "greedy-m": "ed47302ef255617b",
    "greedy-s": "3a25e7b8fe51b497",
}


def _sources() -> dict:
    """source name -> its content; every row passes on this set."""
    runs = [
        {"scale": "smoke", "n_tuples": 800, "algorithm": alg,
         "wall_seconds": 1.0, "search_seconds": search,
         "calibration_seconds": 0.25, "output_hash": PINNED[alg]}
        for search in (10.0, 1.0)  # the baselines, then the latest runs
        for alg in PINNED
    ]
    substrate = {
        "workload": "tax_substrate", "marginal_bytes_per_tuple": 62.0,
        "shipping": {"task_bytes_max": 1200, "row_major_task_bytes": 180000},
        "output_hashes": dict(PINNED),
    }
    sched = {
        "workload": "skew_sched", "config": {"n_jobs": 4},
        "serial": {"unit_cpu_seconds": [3.0], "output_hash": "h"},
        "static": {"unit_cpu_seconds": [3.0], "output_hash": "h"},
        "adaptive": {"unit_cpu_seconds": [0.5, 0.5], "output_hash": "h"},
        "hash_slice": {"output_hashes": {"greedy-m": ["h", "h"]}},
    }
    scenario = {
        "kind": "scenario", "scale": "smoke", "n_tuples": 400,
        "detectors": ["fd", "null", "outlier"],
        "datasets": ["hosp", "tax", "citizens"],
        "fd_repair": {"byte_identical": True, "f1": 0.9},
        "matrix": [{"scenario": "null-bursts", "target": True, "f1": 1.0}],
    }
    return {
        gates.LIVE_BENCH: {"disagreements": 0, "myers": 1.0, "two_row": 50.0},
        gates.LIVE_SUITE: {"returncode": 0, "skipped": 0, "tail": "ok"},
        gates.SIMJOIN: [
            {"scale": "paper", "n_tuples": 5000, "possible_pairs": 1000,
             "strategies": {"indexed": {"pairs_examined": 100}},
             "oracle_scan": {"pairs_examined": 1000}},
            {"workload": "vectorized_simjoin", "scale": "paper",
             "hashes_match": True,
             "hosp": {"speedup": 3.0, "vectorized": {
                 "distinct_pairs_examined": 10, "tuple_fanout": 100}}},
        ],
        gates.REPAIR: runs + [substrate, sched],
        gates.SERVE: [
            {"kind": "serve", "requests_per_second": 2000.0,
             "latency_p99_ms": 10.0, "cache_speedup": 500.0,
             "examined_fraction": 0.01, "equivalence_mismatches": 0},
        ],
        gates.SCENARIOS: [scenario, copy.deepcopy(scenario)],
    }


def _latest(entries, key, value):
    return [e for e in entries if e.get(key) == value][-1]


def _set(source, match, *path):
    """Knob: the latest entry *match* accepts gets ``path = x``."""
    def knob(sources, x):
        target = [e for e in sources[source] if match(e)][-1]
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = x
    return knob


def _live(source, field):
    def knob(sources, x):
        sources[source][field] = x
    return knob


def _search_speedup(alg):
    def knob(sources, x):
        _latest(sources[gates.REPAIR], "algorithm", alg)["search_seconds"] = 10.0 / x
    return knob


def _sched_units(mode):
    def knob(sources, x):
        _latest(sources[gates.REPAIR], "workload", "skew_sched")[mode] = {
            "unit_cpu_seconds": [3.0 / x], "output_hash": "h"}
    return knob


def _distinct_hashes(sources, x):
    entry = _latest(sources[gates.REPAIR], "workload", "skew_sched")
    for i, mode in enumerate(("serial", "static", "adaptive")):
        entry[mode]["output_hash"] = f"h{min(i, x - 1)}"


def _moved_sweep(sources, x):
    entry = _latest(sources[gates.REPAIR], "workload", "skew_sched")
    entry["hash_slice"]["output_hashes"] = {
        "greedy-m": ["h", "h"], **{f"a{i}": ["h", "h2"] for i in range(x)}}


def _names(field):
    def knob(sources, x):
        sources[gates.SCENARIOS][-1][field] = [f"n{i}" for i in range(x)]
    return knob


def _target_f1(sources, x):
    sources[gates.SCENARIOS][-1]["matrix"][0]["f1"] = 1.0 - 0.02 + x


def _anchor_f1(sources, x):
    sources[gates.SCENARIOS][-1]["fd_repair"]["f1"] = 0.9 - 0.02 + x


def _wall_ratio(sources, x):
    runs = [e for e in sources[gates.REPAIR] if "wall_seconds" in e]
    runs[-1]["wall_seconds"] = x


def _task_reduction(sources, x):
    _latest(sources[gates.REPAIR], "workload", "tax_substrate")["shipping"][
        "row_major_task_bytes"] = x * 1200


SUBSTRATE = (gates.REPAIR, gates.where("workload", "tax_substrate"))
SERVE = (gates.SERVE, gates.where("kind", "serve"))
VECTORIZED = (gates.SIMJOIN, gates.where("workload", "vectorized_simjoin"))
#: (gate, check) -> (op, bound on the synthetic set, knob): the direction
#: and number of every bound, pinned here independently of the table
SPECS = {
    ("kernel", "Myers speedup over the two-row DP"):
        (">=", 2.0, _live(gates.LIVE_BENCH, "two_row")),
    ("kernel", "Myers/two-row disagreements on warm-up pairs"):
        ("==", 0, _live(gates.LIVE_BENCH, "disagreements")),
    ("kernel", "equivalence suite exit status"):
        ("==", 0, _live(gates.LIVE_SUITE, "returncode")),
    ("kernel", "equivalence suite skipped tests"):
        ("==", 0, _live(gates.LIVE_SUITE, "skipped")),
    ("simjoin", "ablation: indexed pairs examined vs the full scan"):
        ("<=", 1000, _set(gates.SIMJOIN, lambda e: "oracle_scan" in e,
                          "strategies", "indexed", "pairs_examined")),
    ("simjoin", "vectorized detect speedup over indexed (HOSP)"):
        (">=", 2.0, _set(*VECTORIZED, "hosp", "speedup")),
    ("simjoin", "vectorized: one repair hash per algorithm"):
        ("==", True, _set(*VECTORIZED, "hashes_match")),
    ("simjoin", "vectorized: distinct pairs examined vs tuple fan-out"):
        ("<=", 100, _set(*VECTORIZED, "hosp", "vectorized",
                         "distinct_pairs_examined")),
    **{
        ("search", f"{alg} output hash vs its baseline"):
            ("==", PINNED[alg],
             _set(gates.REPAIR, gates.where("algorithm", alg), "output_hash"))
        for alg in PINNED
    },
    ("search", "exact-m calibrated search-phase speedup"):
        (">=", 2.0, _search_speedup("exact-m")),
    ("search", "exact-s calibrated search-phase speedup"):
        (">=", 2.0, _search_speedup("exact-s")),
    ("perf", "latest run output hash vs its baseline"):
        ("==", PINNED["greedy-s"],
         _set(gates.REPAIR, lambda e: "wall_seconds" in e, "output_hash")),
    ("perf", "latest run calibrated wall over its baseline"):
        ("<=", 1.25, _wall_ratio),
    ("substrate", "marginal RSS per Tax tuple, bytes"):
        ("<=", 160.0, _set(*SUBSTRATE, "marginal_bytes_per_tuple")),
    ("substrate", "largest task message recorded, bytes"):
        (">", 0, _set(*SUBSTRATE, "shipping", "task_bytes_max")),
    ("substrate", "largest task message, bytes"):
        ("<=", 16384, _set(*SUBSTRATE, "shipping", "task_bytes_max")),
    ("substrate", "row-major over columnar task bytes"):
        (">=", 10.0, _task_reduction),
    **{
        ("substrate", f"{alg} output hash on the 800-tuple HOSP slice"):
            ("==", PINNED[alg], _set(*SUBSTRATE, "output_hashes", alg))
        for alg in PINNED
    },
    ("sched", "adaptive modeled speedup"):
        (">=", 3.0, _sched_units("adaptive")),
    ("sched", "static modeled speedup (the skew must be real)"):
        ("<", 1.5, _sched_units("static")),
    ("sched", "distinct hashes across serial/static/adaptive"):
        ("==", 1, _distinct_hashes),
    ("sched", "hash-slice algorithms whose hash moved with splitting"):
        ("==", 0, _moved_sweep),
    ("serve", "requests per second"):
        (">=", 1000.0, _set(*SERVE, "requests_per_second")),
    ("serve", "p99 latency, ms"):
        ("<=", 25.0, _set(*SERVE, "latency_p99_ms")),
    ("serve", "cache speedup (cold fit over hit)"):
        (">=", 50.0, _set(*SERVE, "cache_speedup")),
    ("serve", "examined fraction of the linear scan"):
        ("<=", 0.20, _set(*SERVE, "examined_fraction")),
    ("serve", "served responses differing from batch repair"):
        ("==", 0, _set(*SERVE, "equivalence_mismatches")),
    ("scenario", "detectors in the matrix"): (">=", 3, _names("detectors")),
    ("scenario", "datasets in the matrix"): (">=", 3, _names("datasets")),
    ("scenario", "FD repair hash unchanged by the detectors"):
        ("==", True, lambda sources, x: sources[gates.SCENARIOS][-1][
            "fd_repair"].update(byte_identical=x)),
    # F1 rows measure the margin over baseline - 0.02: 0 is the floor
    ("scenario", "worst target-detector F1 over its baseline floor"):
        (">=", 0.0, _target_f1),
    ("scenario", "fd-noise repair F1 over its baseline floor"):
        (">=", 0.0, _anchor_f1),
}


def _edges(op: str, bound):
    """(just inside, just outside) the bound of a row comparing by *op*."""
    if op == "==":
        if isinstance(bound, bool):
            return bound, not bound
        if isinstance(bound, str):
            return bound, "0" * len(bound)
        return bound, bound + 1
    hair = 1 if isinstance(bound, int) else max(abs(bound), 1.0) * 1e-6
    above, below = bound + hair, bound - hair
    return (above, below) if op in (">=", ">") else (below, above)


def _run(gate, sources, root, monkeypatch) -> int:
    """Exit code of ``--gates <gate>`` over *sources* written to *root*."""
    for name, content in sources.items():
        if name == gates.LIVE_BENCH:
            monkeypatch.setattr(gates, "kernel_microbench", lambda c=content: c)
        elif name == gates.LIVE_SUITE:
            monkeypatch.setattr(gates, "kernel_suite", lambda _, c=content: c)
        else:
            (root / name).write_text(json.dumps(content))
    return gates.main(["check_all_gates.py", "--gates", gate], root=root)


def test_every_row_has_a_spec():
    assert {(row.gate, row.check) for row in gates.ROWS} == set(SPECS)


@pytest.mark.parametrize(
    "row", gates.ROWS, ids=[f"{r.gate}: {r.check}" for r in gates.ROWS]
)
def test_row_bound_and_source(row, tmp_path, monkeypatch):
    op, bound, knob = SPECS[(row.gate, row.check)]
    base = _sources()
    assert _run(row.gate, base, tmp_path, monkeypatch) == EXIT_PASS
    assert row.op == op
    content = base[row.source]
    assert (
        row.bound(*row.select(content)) if callable(row.bound) else row.bound
    ) == bound
    inside, outside = _edges(op, bound)
    at_bound = EXIT_PASS if op in ("==", ">=", "<=") else EXIT_REGRESSION
    for value, expected in (
        (inside, EXIT_PASS), (outside, EXIT_REGRESSION), (bound, at_bound)
    ):
        sources = _sources()
        knob(sources, value)
        assert _run(row.gate, sources, tmp_path, monkeypatch) == expected, value

    for name, fault in (("absent", None), ("malformed", "{not json")):
        sources = _sources()
        if row.source == gates.LIVE_BENCH and fault is None:
            # the real microbench, with the distance layer unimportable
            del sources[gates.LIVE_BENCH]
            monkeypatch.setattr(gates, "kernel_microbench", REAL_MICROBENCH)
            monkeypatch.setitem(sys.modules, "repro.core.distances", None)
        elif row.source == gates.LIVE_SUITE and fault is None:
            # the real suite runner, under a root without tests/
            del sources[gates.LIVE_SUITE]
            monkeypatch.setattr(gates, "kernel_suite", REAL_SUITE)
        elif row.source in (gates.LIVE_BENCH, gates.LIVE_SUITE):
            sources[row.source] = {}  # a live result without its fields
        else:
            del sources[row.source]
            path = tmp_path / row.source
            path.unlink(missing_ok=True)
            if fault is not None:
                path.write_text(fault)
        assert _run(row.gate, sources, tmp_path, monkeypatch) == EXIT_MISSING, name
        monkeypatch.undo()


def test_step_summary_has_a_detail_per_row(tmp_path, monkeypatch):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    assert _run(",".join(gates.GATES), _sources(), tmp_path, monkeypatch) == EXIT_PASS
    rows = [
        line for line in summary.read_text().splitlines()
        if line.startswith("| ") and not line.startswith("| gate |")
    ]
    assert len(rows) == len(gates.ROWS)
    assert all(line.rstrip(" |").rsplit("|", 1)[1].strip() for line in rows)


def test_unknown_gate_exits_missing(tmp_path):
    assert gates.main(["x", "--gates", "perf,bogus"], root=tmp_path) == EXIT_MISSING


def test_unreadable_outranks_failure_outranks_not_measured(tmp_path, monkeypatch):
    # a failing row plus a row with nothing fresh to compare: FAIL
    sources = _sources()
    SPECS[("search", "greedy-s output hash vs its baseline")][2](sources, "0" * 16)
    sources[gates.REPAIR] = [
        e for e in sources[gates.REPAIR]
        if e.get("algorithm") != "exact-s" or e["search_seconds"] == 10.0
    ]
    assert _run("search", sources, tmp_path, monkeypatch) == EXIT_REGRESSION
    # a failing row plus an unreadable field of the same entry: MISSING
    sources = _sources()
    SPECS[("serve", "p99 latency, ms")][2](sources, 99.0)
    del sources[gates.SERVE][-1]["requests_per_second"]
    assert _run("serve", sources, tmp_path, monkeypatch) == EXIT_MISSING
