"""Spans recorded by the benchmark around calls into the program's layers.

The traced run wraps a fixed list of public entry points of each layer
(:data:`BOUNDARIES`) for the duration of one traced operation, records
one span per call, and restores the originals afterwards. Nothing inside
``src/`` is changed: the wrappers replace class and module attributes at
run time, and callers inside the program resolve them through the same
attributes, so their calls are seen too.

Spans stay in memory; :meth:`SpanRecorder.dump` writes them out once,
at exit, with the self time of each. A span's self time is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's interval and merged
    before subtraction, so overlapping or overhanging children are not
    counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = span.duration - covered
    return out


class SpanRecorder:
    """In-memory span store with a parent stack (one thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self.run_id = ""

    @contextmanager
    def span(self, name: str, layer: str, **attrs: Any) -> Iterator[Span]:
        record = Span(
            id=len(self.spans),
            name=name,
            layer=layer,
            start=time.perf_counter(),
            end=0.0,
            parent=self._stack[-1] if self._stack else None,
            run_id=self.run_id,
            attrs=dict(attrs),
        )
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def of_run(self, run_id: str) -> List[Span]:
        return [span for span in self.spans if span.run_id == run_id]

    def dump(self, path: str) -> None:
        """Write every span with its self time as JSON."""
        own = self_times(self.spans)
        rows = [
            {
                "id": s.id, "name": s.name, "layer": s.layer,
                "start": s.start, "end": s.end, "parent": s.parent,
                "run_id": s.run_id, "self_s": own[s.id], "attrs": s.attrs,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle, default=str)

    # ------------------------------------------------------------------
    def wrap(
        self,
        func: Callable,
        name: str,
        layer: str,
        harvest: Optional[Callable[[Span, Any], None]] = None,
    ) -> Callable:
        """*func* with a span around each call made by this process.

        *harvest* reads counts off the return value into the span's
        attributes. Calls in other processes (forked pool workers that
        inherited the wrapper) run unrecorded.
        """
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != recorder._pid:
                return func(*args, **kwargs)
            with recorder.span(name, layer) as span:
                result = func(*args, **kwargs)
                if harvest is not None:
                    harvest(span, result)
                return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def installed(self, boundaries: Sequence["Boundary"]) -> Iterator[None]:
        """Wrap every boundary for the duration of the block."""
        saved: List[Tuple[Any, str, Any]] = []
        try:
            for boundary in boundaries:
                owner = boundary.owner()
                raw = inspect.getattr_static(owner, boundary.attribute)
                saved.append((owner, boundary.attribute, raw))
                if isinstance(raw, classmethod):
                    replacement: Any = classmethod(
                        self.wrap(raw.__func__, boundary.name,
                                  boundary.layer, boundary.harvest)
                    )
                else:
                    replacement = self.wrap(
                        raw, boundary.name, boundary.layer, boundary.harvest
                    )
                setattr(owner, boundary.attribute, replacement)
            yield
        finally:
            for owner, attribute, raw in reversed(saved):
                setattr(owner, attribute, raw)


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point: ``module[:Class].attribute``."""

    target: str
    name: str
    layer: str
    harvest: Optional[Callable[[Span, Any], None]] = None

    def owner(self) -> Any:
        module_name, _, qualified = self.target.partition(":")
        owner: Any = import_module(module_name)
        for part in qualified.split(".")[:-1]:
            owner = getattr(owner, part)
        return owner

    @property
    def attribute(self) -> str:
        return self.target.partition(":")[2].rpartition(".")[2]


def _graph_counts(span: Span, graph: Any) -> None:
    span.attrs["vertices"] = len(graph)
    span.attrs["edges"] = graph.edge_count
    for key in ("candidates_generated", "pairs_verified", "kernel_calls"):
        span.attrs[key] = int(graph.join_counters.get(key, 0))


def _join_counts(span: Span, violations: Any) -> None:
    span.attrs["violations"] = len(violations)


def _solve_counts(span: Span, result: Any) -> None:
    stats = result[2]
    span.attrs["nodes_generated"] = int(stats.get("nodes_generated", 0))
    span.attrs["nodes_pruned"] = int(stats.get("nodes_pruned", 0))


def _apply(target: str) -> Boundary:
    return Boundary(target, "apply_edits", "dataset")


#: the layer entry points a traced operation wraps. ``apply_edits`` is
#: imported by name into each algorithm module, so each binding is
#: wrapped where it is looked up.
BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("repro.core.engine:Repairer.repair", "Repairer.repair", "api"),
    Boundary("repro.core.engine:Repairer.build_model",
             "Repairer.build_model", "core.distances"),
    Boundary("repro.exec.executor:RepairExecutor.repair_many",
             "RepairExecutor.repair_many", "exec"),
    Boundary("repro.index.simjoin:SimilarityJoin.join",
             "SimilarityJoin.join", "index", _join_counts),
    Boundary("repro.core.graph:ViolationGraph.build",
             "ViolationGraph.build", "core.graph", _graph_counts),
    Boundary("repro.exec.executor:repair_single_fd_exact",
             "repair_single_fd_exact", "core.single"),
    Boundary("repro.core.single.exact:solve_graph_exact",
             "solve_graph_exact", "core.single", _solve_counts),
    Boundary("repro.exec.executor:repair_multi_fd_greedy",
             "repair_multi_fd_greedy", "core.multi"),
    Boundary("repro.core.multi.target_tree:TargetTree.__init__",
             "TargetTree.__init__", "core.multi"),
    Boundary("repro.core.multi.target_tree:TargetTree.nearest_target",
             "TargetTree.nearest_target", "core.multi"),
    Boundary("repro.index.registry:AttributeIndexRegistry.qgram_probe",
             "AttributeIndexRegistry.qgram_probe", "index"),
    Boundary("repro.index.registry:AttributeIndexRegistry.band_probe",
             "AttributeIndexRegistry.band_probe", "index"),
    _apply("repro.core.repair:apply_edits"),
    _apply("repro.core.single.exact:apply_edits"),
    _apply("repro.core.multi.greedy:apply_edits"),
    Boundary("repro.serve.fastpath:IndexedRepairer.repair_record",
             "IndexedRepairer.repair_record", "serve"),
)


def attr_sum(spans: Sequence[Span], name: str, key: str) -> float:
    return float(sum(s.attrs.get(key, 0) for s in spans if s.name == name))
