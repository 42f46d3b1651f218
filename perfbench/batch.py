"""The three batch workloads: inputs, the timed operation, its checks.

A batch user waits for ``read_csv`` of a CSV file, ``Repairer.repair``,
and materialising every row of ``result.relation``. One *operation* is
that for one input relation; a *pass* runs it on every input relation
of the workload: six Tax relations, sixteen HOSP relations, or 64
small HOSP slices.

The distance cache that the executor keeps per process is cleared
before every relation (outside the timed region), so each operation
starts cold, as a one-shot repair of a freshly loaded file does.
"""

from __future__ import annotations

import hashlib
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import (
    FD,
    DegradedRepairWarning,
    Relation,
    RepairConfig,
    Repairer,
    read_csv,
    write_csv,
)
from repro.dataset import NUMERIC
from repro.eval.metrics import evaluate_repair
from repro.exec.cache import clear_worker_caches
from repro.generator.hosp import HOSP_FDS, HOSP_SCHEMA, generate_hosp, hosp_thresholds
from repro.generator.noise import NoiseConfig, error_cells, inject_noise
from repro.generator.tax import TAX_FDS, TAX_SCHEMA, tax_catalog, tax_thresholds
from repro.obs import dataset_fingerprint, repair_output_hash

from tracing import SpanRecorder

#: hosp_batch: relations per pass, rows each, error rate. Repair time
#: varies over inputs (some draw a target tree with far more transient
#: nodes), so a pass repairs several independent relations and its
#: time varies less from seed to seed.
HOSP_BATCH_RELATIONS = 16
HOSP_BATCH_ROWS = 500
HOSP_ERROR_RATE = 0.04
#: hosp_exact: rows per slice, slices per pass, the FDs repaired. Each
#: FD is its own FD-graph component (the two share no attribute), the
#: single-FD family in which optimal repair is tractable (Livshits et
#: al., PAPERS.md), and exact-s repairs it without sequential
#: interference, so closed-world validity holds per FD.
HOSP_EXACT_ROWS = 350
HOSP_EXACT_SLICES = 64
HOSP_EXACT_FDS = ("h3", "h7")
#: tax_parallel: relations per pass (independent draws of rows from one
#: catalogue), rows each, constant entity catalogue, error rate, workers
TAX_RELATIONS = 6
TAX_ROWS = 1500
TAX_CATALOGUE = (160, 120, 40)
TAX_ERROR_RATE = 0.002
TAX_JOBS = 2


def derive(seed: int, *parts: object) -> int:
    """A sub-seed of *seed* for one named input (stable across runs)."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def numeric_of(schema) -> Tuple[str, ...]:
    return tuple(a.name for a in schema if a.kind == NUMERIC)


@dataclass
class InputRelation:
    """One generated input relation on disk, with its ground truth."""

    path: str
    truth: Dict[Tuple[int, str], Any]
    rows: int
    fingerprint: Dict[str, Any]
    #: FD name -> the input's projections on it (closed-world check)
    projections: Dict[str, set] = field(default_factory=dict)


@dataclass
class BatchInputs:
    name: str
    fds: List[FD]
    numeric: Tuple[str, ...]
    config: RepairConfig
    #: the config of traced operations: serial, so every layer call
    #: happens in this process where the spans are recorded
    traced_config: RepairConfig
    relations: List[InputRelation]

    @property
    def rows(self) -> int:
        return sum(r.rows for r in self.relations)


def _write(relation: Relation, errors, directory: str, tag: str) -> InputRelation:
    path = os.path.join(directory, f"{tag}.csv")
    write_csv(relation, path)
    return InputRelation(
        path=path,
        truth=error_cells(errors),
        rows=len(relation),
        fingerprint=dataset_fingerprint(relation),
    )


def setup_hosp_batch(seed: int, directory: str, scale: float) -> BatchInputs:
    rows = max(200, int(HOSP_BATCH_ROWS * scale))
    relations = []
    for index in range(HOSP_BATCH_RELATIONS):
        clean = generate_hosp(rows, rng=derive(seed, "hosp_batch", index, "clean"))
        dirty, errors = inject_noise(
            clean, HOSP_FDS, NoiseConfig(error_rate=HOSP_ERROR_RATE),
            rng=derive(seed, "hosp_batch", index, "noise"),
        )
        relations.append(_write(dirty, errors, directory, f"hosp{index}"))
    config = RepairConfig(thresholds=hosp_thresholds())
    return BatchInputs(
        "hosp_batch", list(HOSP_FDS), numeric_of(HOSP_SCHEMA), config, config,
        relations,
    )


def setup_hosp_exact(seed: int, directory: str, scale: float) -> BatchInputs:
    fds = [fd for fd in HOSP_FDS if fd.name in HOSP_EXACT_FDS]
    slices = []
    for index in range(max(2, int(HOSP_EXACT_SLICES * scale))):
        clean = generate_hosp(
            HOSP_EXACT_ROWS, rng=derive(seed, "hosp_exact", index, "clean")
        )
        dirty, errors = inject_noise(
            clean, fds, NoiseConfig(error_rate=HOSP_ERROR_RATE),
            rng=derive(seed, "hosp_exact", index, "noise"),
        )
        slices.append(_write(dirty, errors, directory, f"slice{index:03d}"))
    config = RepairConfig(
        algorithm="exact-s", fallback="error", thresholds=hosp_thresholds(fds)
    )
    return BatchInputs(
        "hosp_exact", fds, numeric_of(HOSP_SCHEMA), config, config, slices
    )


def setup_tax_parallel(seed: int, directory: str, scale: float) -> BatchInputs:
    residences, employers, filings = TAX_CATALOGUE
    catalogue = tax_catalog(
        residences, employers, filings, rng=derive(seed, "tax", "catalogue")
    )
    relations = []
    for index in range(TAX_RELATIONS):
        clean = catalogue.generate(
            max(1000, int(TAX_ROWS * scale)),
            rng=derive(seed, "tax", index, "rows"),
        )
        dirty, errors = inject_noise(
            clean, TAX_FDS, NoiseConfig(error_rate=TAX_ERROR_RATE),
            rng=derive(seed, "tax", index, "noise"),
        )
        relations.append(_write(dirty, errors, directory, f"tax{index}"))
    config = RepairConfig(thresholds=tax_thresholds(), n_jobs=TAX_JOBS)
    return BatchInputs(
        "tax_parallel", list(TAX_FDS), numeric_of(TAX_SCHEMA), config,
        config.merged(n_jobs=1), relations,
    )


SETUPS = {
    "hosp_batch": setup_hosp_batch,
    "hosp_exact": setup_hosp_exact,
    "tax_parallel": setup_tax_parallel,
}


# ----------------------------------------------------------------------
# The operation and its checks
# ----------------------------------------------------------------------
@dataclass
class RelationOutcome:
    seconds: float
    output_hash: str = ""
    cost: float = 0.0
    credit: float = 0.0
    repaired_cells: int = 0
    true_errors: int = 0
    stats: Dict[str, Any] = field(default_factory=dict)
    failure: Optional[str] = None


@dataclass
class PassOutcome:
    seconds: float
    relations: List[RelationOutcome]


def closed_world_violations(
    item: InputRelation,
    original: Relation,
    repaired: Relation,
    fds: Sequence[FD],
    tids,
) -> int:
    """Repaired FD projections of *tids* that do not occur in *original*."""
    bad = 0
    for fd in fds:
        seen = item.projections.get(fd.name)
        if seen is None:
            seen = {original.project(t, fd.attributes) for t in original.tids()}
            item.projections[fd.name] = seen
        bad += sum(repaired.project(t, fd.attributes) not in seen for t in tids)
    return bad


def repair_relation(
    inputs: BatchInputs,
    item: InputRelation,
    config: RepairConfig,
    recorder: Optional[SpanRecorder] = None,
) -> RelationOutcome:
    """Time one read -> repair -> materialise, then check its output."""
    clear_worker_caches()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            if recorder is None:
                relation = read_csv(item.path, numeric=inputs.numeric)
                result = Repairer(inputs.fds, config=config).repair(relation)
                rows = list(result.relation)
            else:
                with recorder.span("operation", "bench"):
                    with recorder.span("read_csv", "dataset"):
                        relation = read_csv(item.path, numeric=inputs.numeric)
                    result = Repairer(inputs.fds, config=config).repair(relation)
                    with recorder.span("materialise", "dataset"):
                        rows = list(result.relation)
        except Exception as exc:  # noqa: BLE001 — a failed operation
            return RelationOutcome(
                time.perf_counter() - start,
                failure=f"{type(exc).__name__}: {exc}",
            )
        seconds = time.perf_counter() - start
    outcome = RelationOutcome(seconds, stats=dict(result.stats))
    degraded = [w for w in caught if issubclass(w.category, DegradedRepairWarning)]
    edited = {edit.tid for edit in result.edits}
    if degraded or result.stats.get("degraded"):
        outcome.failure = f"degraded: {degraded[0].message if degraded else ''}"
    elif len(rows) != len(relation):
        outcome.failure = f"{len(rows)} repaired rows for {len(relation)}"
    elif closed_world_violations(
        item, relation, result.relation, inputs.fds, edited
    ):
        outcome.failure = "repaired projection absent from the input"
    outcome.output_hash = repair_output_hash(result.edits, result.cost)
    outcome.cost = result.cost
    quality = evaluate_repair(result.edits, item.truth)
    outcome.credit = quality.credit
    outcome.repaired_cells = quality.repaired_cells
    outcome.true_errors = quality.true_errors
    return outcome


def run_pass(
    inputs: BatchInputs,
    config: RepairConfig,
    recorder: Optional[SpanRecorder] = None,
    between: Optional[Callable[[], None]] = None,
) -> PassOutcome:
    """Repair every input relation once; call *between* before each."""
    outcomes = []
    for item in inputs.relations:
        if between is not None:
            between()
        outcomes.append(repair_relation(inputs, item, config, recorder))
    return PassOutcome(sum(o.seconds for o in outcomes), outcomes)
