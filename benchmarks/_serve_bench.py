"""Append one serving-layer run to the ``BENCH_serve.json`` trajectory.

Measures the four serving claims the ``serve`` rows of
``benchmarks/check_all_gates.py`` gate, on a synthetic catalog workload
(distinct 12–14 char codes and names under tight thresholds — the
regime where q-gram candidate generation has pruning power):

1. **sustained load** — a fleet of async clients drives the micro-
   batched service (10% dirty records) for ``N_REQUESTS``; the entry
   records requests/second and the exact p50/p95/p99 window quantiles
   plus the latency histogram;
2. **model-cache economics** — cold ``get_or_fit`` (the full fit) vs a
   cache hit on the same fingerprint, and the hit rate over a steady
   tenant mix;
3. **index efficiency** — the fraction of fitted elements the indexed
   hot path actually verified vs the linear scan
   (``serve_elements_examined / serve_elements_total``), measured in
   absorb mode where ``consistent_everywhere`` runs;
4. **equivalence** — every served response is replayed through the
   batch :meth:`IncrementalRepairer.repair_record`; any byte difference
   is recorded (and fails the gate).

Entries carry ``"kind": "serve"`` so the end-to-end ``perf`` gate rows
skip them when the two trajectories share a file.

Usage::

    PYTHONPATH=src python benchmarks/_serve_bench.py \
        [path/to/BENCH_serve.json]
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import string
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _gate import ROOT, calibration_seconds  # noqa: E402

from repro.core.constraints import FD  # noqa: E402
from repro.core.incremental import IncrementalRepairer  # noqa: E402
from repro.dataset.relation import Relation, Schema  # noqa: E402
from repro.serve import (  # noqa: E402
    ModelCache,
    RepairService,
    ServeConfig,
)

DEFAULT_PATH = ROOT / "BENCH_serve.json"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "smoke")
#: (distinct codes, reference rows, served requests, client coroutines)
SCALES = {
    "smoke": (200, 1000, 5000, 16),
    "paper": (400, 4000, 20000, 32),
}
DIRTY_SHARE = 0.10
TAU = 0.15


def build_workload(seed: int = 13):
    """Reference relation + FDs + request stream of the catalog scenario."""
    n_codes, n_rows, n_requests, n_clients = SCALES[SCALE]
    rng = random.Random(seed)

    def token(n: int) -> str:
        return "".join(
            rng.choice(string.ascii_lowercase) for _ in range(n)
        )

    codes = [token(12) for _ in range(n_codes)]
    names = [token(14) for _ in range(n_codes)]
    categories = [token(10) for _ in range(max(20, n_codes // 10))]
    schema = Schema.of("code", "name", "category")
    rows = []
    for _ in range(n_rows):
        j = rng.randrange(n_codes)
        rows.append((codes[j], names[j], categories[j % len(categories)]))
    relation = Relation(schema, rows)
    fds = [
        FD(("code",), ("name",), name="f1"),
        FD(("code",), ("category",), name="f2"),
    ]
    thresholds = {fds[0]: TAU, fds[1]: TAU}

    requests = []
    for _ in range(n_requests):
        j = rng.randrange(n_codes)
        record = {
            "code": codes[j],
            "name": names[j],
            "category": categories[j % len(categories)],
        }
        if rng.random() < DIRTY_SHARE:
            attr = rng.choice(["code", "name"])
            value = record[attr]
            pos = rng.randrange(len(value))
            record[attr] = (
                value[:pos] + rng.choice("XYZQW") + value[pos + 1 :]
            )
        requests.append(record)
    return relation, fds, thresholds, requests, n_clients


def bench_cache(relation, fds, thresholds) -> dict:
    """Cold fit vs cache hit, plus the hit rate over a tenant mix."""
    cache = ModelCache(capacity=4)
    start = time.perf_counter()
    key, _ = cache.get_or_fit(
        relation, fds, thresholds=thresholds, absorb=True
    )
    fit_seconds = time.perf_counter() - start
    # hit path: repeat lookups (timed per lookup, best of the batch)
    hits = 50
    start = time.perf_counter()
    for _ in range(hits):
        hit_key, _ = cache.get_or_fit(
            relation, fds, thresholds=thresholds, absorb=True
        )
    hit_seconds = (time.perf_counter() - start) / hits
    assert hit_key == key
    counters = cache.counters()
    total = counters["model_cache_hits"] + counters["model_cache_misses"]
    return {
        "fit_seconds": fit_seconds,
        "cache_hit_seconds": hit_seconds,
        "cache_speedup": (
            fit_seconds / hit_seconds if hit_seconds > 0 else float("inf")
        ),
        "cache_hit_rate": counters["model_cache_hits"] / total,
        "model_cache_hits": counters["model_cache_hits"],
        "model_cache_misses": counters["model_cache_misses"],
    }


async def drive(service: RepairService, requests, n_clients: int):
    """Sustained load: *n_clients* coroutines draining the request list."""
    queue = list(enumerate(requests))
    results: list = [None] * len(requests)
    cursor = 0

    async def client():
        nonlocal cursor
        while True:
            if cursor >= len(queue):
                return
            index, record = queue[cursor]
            cursor += 1
            results[index] = await service.repair(record)

    async with service:
        start = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(n_clients)))
        wall = time.perf_counter() - start
    return results, wall


def bench_load(relation, fds, thresholds, requests, n_clients) -> dict:
    """Serve every request; verify equivalence against the batch path."""
    service = RepairService(
        ServeConfig(batch_size=32, batch_timeout=0.001)
    )
    key = service.fit(relation, fds, thresholds=thresholds, absorb=True)
    results, wall = asyncio.run(drive(service, requests, n_clients))

    # equivalence replay: a fresh batch repairer must produce the same
    # repairs (absorb mutates state, so replay runs the same sequence)
    replay = IncrementalRepairer(
        fds, thresholds=thresholds, absorb=True
    ).fit(relation)
    mismatches = 0
    for record, served in zip(requests, results):
        expect_record, expect_edits = replay.repair_record(dict(record))
        got_edits = [
            (e["attribute"], e["old"], e["new"]) for e in served["edits"]
        ]
        want_edits = [
            (e.attribute, e.old, e.new) for e in expect_edits
        ]
        if served["record"] != expect_record or got_edits != want_edits:
            mismatches += 1

    model = service.model(key)
    counters = service.counters()
    out = {
        "n_requests": len(requests),
        "n_clients": n_clients,
        "wall_clock_seconds": wall,
        "requests_per_second": len(requests) / wall,
        "examined_fraction": model.examined_fraction(),
        "equivalence_mismatches": mismatches,
        "records_repaired": model.records_repaired,
        "records_absorbed": model.records_absorbed,
        "latency_histogram": service.latency.histogram(),
    }
    for name in (
        "latency_p50_ms",
        "latency_p95_ms",
        "latency_p99_ms",
        "latency_mean_ms",
        "latency_max_ms",
        "queue_wait_mean_ms",
        "queue_depth_peak",
        "serve_batches",
        "serve_requests",
        "serve_batch_mean_size",
        "serve_elements_total",
        "serve_elements_examined",
        "serve_index_probes",
        "serve_index_rebuilds",
    ):
        out[name] = counters[name]
    return out


def main(argv) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_PATH
    relation, fds, thresholds, requests, n_clients = build_workload()

    entry = {
        "kind": "serve",
        "scale": SCALE,
        "n_reference_rows": len(relation),
        "dirty_share": DIRTY_SHARE,
        "tau": TAU,
        "calibration_seconds": calibration_seconds(),
    }
    entry.update(bench_cache(relation, fds, thresholds))
    entry.update(bench_load(relation, fds, thresholds, requests, n_clients))

    trajectory = []
    if path.exists():
        try:
            trajectory = json.loads(path.read_text())
        except ValueError:
            trajectory = []
    trajectory.append(entry)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")

    print(
        f"serve bench ({SCALE}): {entry['requests_per_second']:.0f} req/s, "
        f"p50 {entry['latency_p50_ms']:.2f}ms, "
        f"p99 {entry['latency_p99_ms']:.2f}ms, "
        f"cache speedup {entry['cache_speedup']:.0f}x, "
        f"examined {entry['examined_fraction']:.3f}, "
        f"mismatches {entry['equivalence_mismatches']}"
    )
    print(f"appended to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
