"""The serve_openloop workload: an in-process service under open-loop load.

Set-up builds a 1,000-row catalogue (distinct 12-char codes with 14-char
names and a category, under the tight threshold where the serve index
prunes), fits a :class:`~repro.api.RepairService` (default
:class:`~repro.api.ServeConfig`, ``absorb=True``) on it, and generates
the request stream. The stream mixes known-clean reads, dirty records
(one typo in the code or the name) and new entities, which the model
absorbs: each absorb is a write that rebuilds the component's target
tree and invalidates the serve index, which the next probe rebuilds.

Every load phase starts from a freshly fitted service and sends the
same requests, so phases differ only in their rate: absorbed writes
would otherwise grow the model from one phase to the next.

All load runs on one asyncio thread, which the service's micro-batcher
shares. An open loop sends request *i* at ``start + i / rate`` whether
or not earlier ones were answered, and each latency is timed from that
due time, so a stall also counts against the requests queued behind it.
The loop spins between sends, so the thread never sleeps and its timers
fire on time.
"""

from __future__ import annotations

import asyncio
import json
import random
import string
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.api import (
    FD,
    DistanceModel,
    IncrementalRepairer,
    Relation,
    RepairService,
    Schema,
    ServeConfig,
    ServiceOverloadedError,
)

from batch import derive

CATALOGUE_ROWS = 1000
CATALOGUE_CODES = 50
TAU = 0.15
DIRTY_SHARE = 0.10
NEW_SHARE = 0.05
#: p99 limit of a passing window
P99_LIMIT_MS = 50.0
#: the lowest ladder rate; p50_ms and p99_ms are measured at it
NOMINAL_RPS = 400.0
#: each rate is 5% above the one below, finer than the max_rate_rps
#: bound; the top, about 5,000 req/s, is past what the service sustains
LADDER_RATES = tuple(NOMINAL_RPS * 1.05 ** k for k in range(53))
#: sweeps per run, at least (see ``run._serve_measure``)
SWEEPS = 2
#: requests per nominal window; a window above the nominal rate lasts
#: WINDOW_SECONDS, long enough for a backlog to pass the p99 limit when
#: the rate is 20% past what the service sustains
NOMINAL_REQUESTS = 300
WINDOW_SECONDS = 0.3
CLIENTS = 32  #: requests in flight during a closed-loop burst
BURST_REQUESTS = 1000  #: requests per closed-loop burst

SCHEMA = Schema.of("code", "name", "category")
FDS = [
    FD(("code",), ("name",), name="f1"),
    FD(("code",), ("category",), name="f2"),
]
THRESHOLDS = {fd: TAU for fd in FDS}


@dataclass
class Request:
    record: Dict[str, Any]
    kind: str  #: "read", "dirty" or "new"
    truth: Dict[str, Any]


@dataclass
class ServeInputs:
    catalogue: Relation
    requests: List[Request]
    fit_seconds: float
    #: accepted order -> replayed responses (see replay_mismatches)
    replays: Dict[Tuple[int, ...], List[Any]] = field(default_factory=dict)


def _token(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def _typo(value: str, rng: random.Random) -> str:
    pos = rng.randrange(len(value))
    letter = rng.choice([c for c in string.ascii_lowercase if c != value[pos]])
    return value[:pos] + letter + value[pos + 1:]


def make_catalogue(seed: int) -> Relation:
    rng = random.Random(derive(seed, "serve", "catalogue"))
    codes = [_token(rng, 12) for _ in range(CATALOGUE_CODES)]
    names = [_token(rng, 14) for _ in range(CATALOGUE_CODES)]
    categories = [_token(rng, 10) for _ in range(max(2, CATALOGUE_CODES // 10))]
    rows = []
    for _ in range(CATALOGUE_ROWS):
        j = rng.randrange(CATALOGUE_CODES)
        rows.append((codes[j], names[j], categories[j % len(categories)]))
    return Relation(SCHEMA, rows)


def make_requests(catalogue: Relation, count: int, seed: int) -> List[Request]:
    """The request stream; every block of 20 has the same mix of kinds."""
    rng = random.Random(derive(seed, "serve", "requests"))
    categories = catalogue.active_domain("category")
    block = (["new"] * round(20 * NEW_SHARE) + ["dirty"] * round(20 * DIRTY_SHARE))
    block += ["read"] * (20 - len(block))
    kinds: List[str] = []
    while len(kinds) < count:
        rng.shuffle(block)
        kinds.extend(block)
    out: List[Request] = []
    for kind in kinds[:count]:
        clean = catalogue.as_record(rng.randrange(len(catalogue)))
        if kind == "new":
            clean = {
                "code": _token(rng, 12),
                "name": _token(rng, 14),
                "category": rng.choice(categories),
            }
            out.append(Request(dict(clean), "new", clean))
        elif kind == "dirty":
            dirty = dict(clean)
            attr = rng.choice(("code", "name"))
            dirty[attr] = _typo(dirty[attr], rng)
            out.append(Request(dirty, "dirty", clean))
        else:
            out.append(Request(dict(clean), "read", clean))
    return out


def fit_service(catalogue: Relation) -> Tuple[RepairService, float]:
    service = RepairService(ServeConfig())
    start = time.perf_counter()
    service.fit(catalogue, FDS, thresholds=THRESHOLDS, absorb=True)
    return service, time.perf_counter() - start


def setup(seed: int, request_count: int) -> ServeInputs:
    catalogue = make_catalogue(seed)
    requests = make_requests(catalogue, request_count, seed)
    _, fit_seconds = fit_service(catalogue)
    return ServeInputs(catalogue, requests, fit_seconds)


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """One load phase on one service: what was sent and what came back.

    The service is dropped when the phase ends (only its counters are
    kept), so finished phases do not keep fitted models alive and
    lengthen the collections of later phases.
    """

    service: Optional[RepairService]
    count: int
    rate: float = 0.0  #: 0 for a closed-loop burst
    latencies: List[float] = field(default_factory=list)  #: seconds
    late: List[float] = field(default_factory=list)  #: seconds
    #: request index -> the response as JSON text, or None when rejected
    #: or failed. Text is not tracked by the garbage collector, so keeping
    #: every response does not lengthen the collections the load triggers.
    responses: Dict[int, Optional[str]] = field(default_factory=dict)
    #: request indexes in the order the service accepted them
    accepted: List[int] = field(default_factory=list)
    #: request index -> perf_counter() when it was submitted
    submitted: Dict[int, float] = field(default_factory=dict)
    rejected: int = 0
    errors: List[str] = field(default_factory=list)
    seconds: float = 0.0
    #: completion of the last response minus the last due time
    drain_lag: float = 0.0
    #: the service's counters when the phase ended
    counters: Dict[str, Any] = field(default_factory=dict)
    examined_fraction: float = 0.0

    def finish(self) -> None:
        assert self.service is not None
        self.counters = self.service.counters()
        self.examined_fraction = self.service.model().examined_fraction()
        self.service = None


async def _send(phase: Phase, requests: Sequence[Request], index: int,
                due: float) -> None:
    phase.submitted[index] = time.perf_counter()
    pending = phase.service.repair(requests[index].record)
    phase.accepted.append(index)
    try:
        response = await pending
    except ServiceOverloadedError:
        phase.accepted.remove(index)
        phase.rejected += 1
        phase.responses[index] = None
        return
    except Exception as exc:  # noqa: BLE001 — a failed request
        phase.errors.append(f"{type(exc).__name__}: {exc}")
        phase.responses[index] = None
        return
    phase.latencies.append(time.perf_counter() - due)
    phase.responses[index] = json.dumps(response)


async def open_loop(service: RepairService, requests: Sequence[Request],
                    count: int, rate: float) -> Phase:
    """Send the first *count* requests at *rate* per second, on schedule."""
    phase = Phase(service, count, rate)
    in_flight: Set[asyncio.Future] = set()
    async with service:
        start = time.perf_counter() + 0.001
        sent = 0
        while sent < count:
            now = time.perf_counter()
            due = start + sent / rate
            if due > now:
                # Spin rather than sleep: a sleeping process waits for the
                # host to wake its vCPU, which on a loaded host adds
                # milliseconds the program does not cause.
                await asyncio.sleep(0)
                continue
            while sent < count and start + sent / rate <= now:
                due = start + sent / rate
                phase.late.append(now - due)
                task = asyncio.ensure_future(_send(phase, requests, sent, due))
                in_flight.add(task)
                task.add_done_callback(in_flight.discard)
                sent += 1
            await asyncio.sleep(0)
        while in_flight:
            await asyncio.sleep(0)
        end = time.perf_counter()
    phase.seconds = end - start
    phase.drain_lag = end - (start + (count - 1) / rate)
    phase.finish()
    return phase


async def burst(service: RepairService, requests: Sequence[Request],
                count: int) -> Phase:
    """Closed loop: CLIENTS requests in flight until *count* are served."""
    phase = Phase(service, count)
    queue = list(range(count))

    async def client() -> None:
        while queue:
            index = queue.pop(0)
            await _send(phase, requests, index, time.perf_counter())

    async with service:
        start = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(CLIENTS)))
        phase.seconds = time.perf_counter() - start
    phase.finish()
    return phase


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the maximum when fewer than 100 values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def window_ms(window: Phase, pct: float) -> float:
    return 1000 * percentile(window.latencies, pct)


def window_passes(window: Phase) -> bool:
    """p99 within the limit, nothing rejected, no growing backlog."""
    return (
        not (window.rejected or window.errors)
        and window_ms(window, 99) <= P99_LIMIT_MS
        and 1000 * window.drain_lag <= P99_LIMIT_MS
    )


# ----------------------------------------------------------------------
# Correctness and quality
# ----------------------------------------------------------------------
def _replay(inputs: ServeInputs, order: Tuple[int, ...]) -> List[Any]:
    """What a fresh IncrementalRepairer returns for *order*, in order."""
    replay = IncrementalRepairer(FDS, thresholds=THRESHOLDS, absorb=True)
    replay.fit(inputs.catalogue)
    out = []
    for index in order:
        record, edits = replay.repair_record(dict(inputs.requests[index].record))
        out.append((record, [[e.attribute, e.old, e.new] for e in edits]))
    return out


def replay_mismatches(inputs: ServeInputs, phase: Phase) -> int:
    """Responses that differ from a fresh IncrementalRepairer's replay.

    Absorbs change the model, so the replay feeds the records in the
    order the service accepted them. Phases that accepted the same
    requests in the same order share one replay.
    """
    order = tuple(phase.accepted)
    expected = inputs.replays.get(order)
    if expected is None:
        expected = inputs.replays[order] = _replay(inputs, order)
    mismatches = 0
    for index, (record, edits) in zip(order, expected):
        text = phase.responses.get(index)
        if text is None:
            continue  # failed in flight, counted as a failure already
        served = json.loads(text)
        got = [[e["attribute"], e["old"], e["new"]] for e in served["edits"]]
        if served["record"] != record or got != edits:
            mismatches += 1
    return mismatches


def quality(inputs: ServeInputs, phase: Phase) -> Tuple[float, float, float]:
    """(Eq. 3 cost per request, precision, recall) of one phase."""
    model = DistanceModel(inputs.catalogue)
    cost = 0.0
    edits = correct = dirty_cells = restored = 0
    for index in range(phase.count):
        request = inputs.requests[index]
        changed = {
            a for a in request.record if request.record[a] != request.truth[a]
        }
        dirty_cells += len(changed)
        text = phase.responses.get(index)
        if text is None:
            continue
        for edit in json.loads(text)["edits"]:
            edits += 1
            cost += model.attribute_distance(
                edit["attribute"], edit["old"], edit["new"]
            )
            if edit["new"] == request.truth[edit["attribute"]]:
                correct += 1
                restored += edit["attribute"] in changed
    precision = correct / edits if edits else 1.0
    recall = restored / dirty_cells if dirty_cells else 1.0
    return cost / max(1, phase.count), precision, recall
