"""The benchmark's metric and workload declarations.

Every metric the benchmark prints is declared here exactly once: its
name, unit, direction, the layer it belongs to, and — for per-layer
metrics — the end-to-end metric and workloads it is expected to move.
``BENCHMARK.json`` at the repository root must list the same names,
units and directions (``tests/test_metrics.py`` checks this), and
``README.md`` in this directory renders the same table for readers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: the names and units the benchmark contract accepts
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

ALL = ("hosp_batch", "hosp_exact", "tax_parallel", "serve_openloop")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "hosp_batch",
        "greedy-m on noisy HOSP with many distinct values: detection and "
        "target search dominate, exact MIS search does no work",
    ),
    Workload(
        "hosp_exact",
        "exact-s on many small HOSP slices of single-FD components: MIS "
        "expansion dominates, detection and data loading are small",
    ),
    Workload(
        "tax_parallel",
        "Tax with few distinct values of high multiplicity, n_jobs=2: "
        "exercises the process pool, relation shipping and loading",
    ),
    Workload(
        "serve_openloop",
        "open-loop requests to the in-process service: reads, dirty records "
        "and absorbed writes; no detection join, violation graph or MIS",
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  #: "lower" or "higher"
    layer: str  #: "e2e" for end-to-end metrics, else a module name
    meaning: str
    #: the end-to-end metric, and the workloads, this metric should move
    moves: str = ""
    #: regression bound (share of the parent's median), end-to-end only
    bound: float = 0.0


END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower", "e2e",
        "median wall time of one set-up: generate inputs (and fit the "
        "service model for serve_openloop), at least three set-ups and "
        "one second of them per run; host-scaled",
        bound=0.25,
    ),
    Metric(
        "wall_s", "s", "lower", "e2e",
        "mean wall time of one pass over the workload's input relations "
        "(each timed as read_csv, Repairer.repair and materialising "
        "result.relation), each pass host-scaled by the probes taken "
        "during it (serve_openloop: mean time of a closed-loop burst of "
        "1,000 requests, host-scaled)",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", "e2e",
        "peak resident set size of the benchmark process",
        bound=0.25,
    ),
    Metric(
        "repair_cost", "cost", "lower", "e2e",
        "Eq. 4 repair cost per repaired relation (serve_openloop: Eq. 3 "
        "cost of the served edits per request at the nominal rate)",
        bound=0.1,
    ),
    Metric(
        "repair_precision", "ratio", "higher", "e2e",
        "repaired cells restored to the injected truth / repaired cells",
        bound=0.05,
    ),
    Metric(
        "repair_recall", "ratio", "higher", "e2e",
        "injected error cells restored to the truth / injected errors",
        bound=0.05,
    ),
    Metric(
        "success_share", "ratio", "higher", "e2e",
        "1 - failed operations / attempted operations; a mismatch, an "
        "exception, a rejection or a DegradedRepairWarning is a failure",
        bound=0.02,
    ),
    Metric(
        "p50_ms", "ms", "lower", "e2e",
        "median time of one pass, host-scaled as for wall_s (serve_openloop: "
        "median latency of one request at the nominal "
        "rate, timed from its due time; the median over the nominal "
        "windows, as measured)",
        bound=0.25,
    ),
    Metric(
        "p99_ms", "ms", "lower", "e2e",
        "99th-percentile time of one pass, host-scaled as for wall_s; "
        "fewer than 100 passes, so the slowest one (serve_openloop: p99 "
        "latency at the nominal rate; the median over the nominal "
        "windows, host-scaled)",
        bound=0.25,
    ),
    Metric(
        "max_rate_rps", "1/s", "higher", "e2e",
        "serve_openloop: highest ladder rate at which a 0.3 s window keeps "
        "p99 within 50 ms with no rejection and no growing backlog, found "
        "by bisection in each sweep; the median over the sweeps, "
        "host-scaled. Batch workloads: input records repaired per second "
        "at wall_s",
        bound=0.25,
    ),
)

SEARCH = "wall_s on hosp_batch and tax_parallel"

PER_LAYER: Tuple[Metric, ...] = (
    Metric("dataset.load_s", "s", "lower", "dataset",
           "self time of read_csv per pass",
           "wall_s on tax_parallel; negligible on hosp_exact"),
    Metric("dataset.apply_s", "s", "lower", "dataset",
           "self time of apply_edits and of materialising the repaired "
           "relation per pass",
           "wall_s on tax_parallel; negligible on hosp_exact"),
    Metric("dataset.distinct_values", "count", "lower", "dataset",
           "dictionary entries of the loaded inputs per pass",
           "wall_s on tax_parallel"),
    Metric("core.distances.kernel_calls", "count", "lower", "core.distances",
           "edit-distance kernel calls of the detection joins per pass",
           "wall_s on hosp_batch"),
    Metric("core.distances.cache_hit_rate", "ratio", "higher",
           "core.distances", "distance-cache hits / probes",
           "wall_s on hosp_batch"),
    Metric("index.detect_s", "s", "lower", "index",
           "self time of the index layer per pass: SimilarityJoin.join, "
           "and the registry probes of the serve path",
           SEARCH + "; p99_ms on serve_openloop"),
    Metric("index.candidates_generated", "count", "lower", "index",
           "candidate pattern pairs the blockers generated per pass",
           SEARCH),
    Metric("index.pairs_verified", "count", "lower", "index",
           "pattern pairs verified with the exact distance per pass",
           SEARCH),
    Metric("index.violations", "count", "lower", "index",
           "FT-violations found per pass (a property of the input)",
           SEARCH),
    Metric("index.verify_yield", "ratio", "higher", "index",
           "violations / pairs verified", SEARCH),
    Metric("core.graph.build_s", "s", "lower", "core.graph",
           "self time of ViolationGraph.build (grouping and assembly, "
           "without the join) per pass", SEARCH),
    Metric("core.graph.vertices", "count", "lower", "core.graph",
           "violation-graph vertices built per pass", SEARCH),
    Metric("core.graph.edges", "count", "lower", "core.graph",
           "violation-graph edges built per pass", SEARCH),
    Metric("core.single.search_s", "s", "lower", "core.single",
           "self time of solve_graph_exact and repair_single_fd_exact per "
           "operation", "wall_s on hosp_exact only"),
    Metric("core.single.nodes_generated", "count", "lower", "core.single",
           "expansion nodes solve_graph_exact generated per pass",
           "wall_s on hosp_exact only"),
    Metric("core.single.nodes_pruned", "count", "higher", "core.single",
           "expansion nodes the Eq. 5/6 bounds pruned per pass",
           "wall_s on hosp_exact only"),
    Metric("core.single.nodes_per_s", "1/s", "higher", "core.single",
           "nodes generated / self time of solve_graph_exact",
           "wall_s on hosp_exact only"),
    Metric("core.single.prune_ratio", "ratio", "higher", "core.single",
           "nodes pruned / nodes generated", "wall_s on hosp_exact only"),
    Metric("core.multi.search_s", "s", "lower", "core.multi",
           "self time of the multi-FD layer per pass: "
           "repair_multi_fd_greedy, TargetTree construction and "
           "TargetTree.nearest_target (the serve path calls the last two "
           "for dirty records and absorbs)",
           SEARCH + "; p99_ms on serve_openloop"),
    Metric("core.multi.tree_nodes_pruned", "count", "higher", "core.multi",
           "target-tree nodes pruned per pass", SEARCH),
    Metric("exec.n_jobs", "count", "higher", "exec",
           "worker processes the executor used", "wall_s on tax_parallel"),
    Metric("exec.worker_utilization", "ratio", "higher", "exec",
           "busy component seconds / (wall x workers)",
           "wall_s on tax_parallel"),
    Metric("exec.busy_skew_ratio", "ratio", "lower", "exec",
           "max / mean busy seconds across worker processes; the slowest "
           "component bounds the wall", "wall_s on tax_parallel"),
    Metric("exec.relation_bytes_shipped", "bytes", "lower", "exec",
           "relation payload bytes shipped to workers per pass",
           "wall_s on tax_parallel"),
    Metric("exec.task_bytes_max", "bytes", "lower", "exec",
           "largest pickled task message", "wall_s on tax_parallel"),
    Metric("serve.fit_s", "s", "lower", "serve",
           "median wall time of RepairService.fit in set-up",
           "setup_s on serve_openloop"),
    Metric("serve.record_us", "us", "lower", "serve",
           "median duration of IndexedRepairer.repair_record at the "
           "nominal rate", "p99_ms and max_rate_rps on serve_openloop"),
    Metric("serve.examined_fraction", "ratio", "lower", "serve",
           "fitted elements verified / elements a linear scan verifies",
           "p99_ms on serve_openloop"),
    Metric("serve.index_probes", "count", "lower", "serve",
           "serve-path candidate probes per 1000 requests",
           "p99_ms on serve_openloop"),
    Metric("serve.index_rebuilds", "count", "lower", "serve",
           "the program's serve_index_rebuilds counter per 1000 requests; "
           "it counts stale-index rebuilds only, not the lazy rebuild after "
           "an absorb invalidated the index",
           "p99_ms on serve_openloop"),
    Metric("serve.records_absorbed", "count", "higher", "serve",
           "new entities absorbed into the model per 1000 requests",
           "p99_ms on serve_openloop (writes show in p99 before p50)"),
    Metric("serve.queue_wait_p99_ms", "ms", "lower", "serve",
           "p99 of the wait from submit to the start of the record's repair "
           "at the nominal rate", "p99_ms on serve_openloop"),
    Metric("serve.batch_mean_size", "count", "higher", "serve",
           "mean micro-batch size at the nominal rate",
           "max_rate_rps on serve_openloop"),
    Metric("serve.queue_depth_peak", "count", "lower", "serve",
           "peak request-queue depth at the nominal rate",
           "p99_ms on serve_openloop"),
    Metric("serve.rejected", "count", "lower", "serve",
           "requests rejected by backpressure at the nominal rate",
           "max_rate_rps on serve_openloop"),
    Metric("serve.generator_late_p99_ms", "ms", "lower", "serve",
           "p99 of how late the load generator sent requests at the "
           "nominal rate (a validity check on the generator)",
           "p99_ms on serve_openloop"),
    Metric("obs.traced_wall_s", "s", "lower", "obs",
           "median wall time of one traced pass (serve_openloop: one "
           "traced burst); the base of the per-layer time shares",
           "wall_s on every workload"),
    Metric("obs.trace_overhead_s", "s", "lower", "obs",
           "traced minus untraced wall time of one pass",
           "wall_s on every workload"),
)

ALL_METRICS: Tuple[Metric, ...] = END_TO_END + PER_LAYER


def benchmark_spec() -> Dict[str, object]:
    """The content ``BENCHMARK.json`` must have (``run.py --spec``)."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


#: seconds one run measures
RUN_SECONDS = 20


def result_line(
    correct: bool, attempted: int, failed: int, values: Dict[str, float],
    declared: Tuple[Metric, ...],
) -> Dict[str, object]:
    """The final JSON object of a run: every declared metric, with unit."""
    missing: List[str] = [m.name for m in declared if m.name not in values]
    if missing:
        raise KeyError(f"run produced no value for {missing}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            m.name: {"value": float(values[m.name]), "unit": m.unit}
            for m in declared
        },
    }
