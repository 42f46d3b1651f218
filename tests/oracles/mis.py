"""Set-based and brute-force maximal-independent-set oracles.

:func:`enumerate_maximal_independent_sets_setbased` is the expansion
algorithm of Section 3.1 over frozensets — the pre-bitset engine. The
production bitset engine (:mod:`repro.core.single.mis`) must reproduce
its results, emission order, node accounting and budget-trip point
exactly. :func:`brute_force_maximal_independent_sets` enumerates by
subset expansion and checks the expansion algorithm itself on small
graphs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from repro.core.graph import ViolationGraph
from repro.core.single.frontier import (
    ExpansionLimitError,
    ExpansionStats,
    min_outgoing_costs,
)


def _lower_bound(
    prefix: Sequence[int],
    independent: FrozenSet[int],
    min_out: Dict[int, float],
) -> float:
    """Eq. (5): vertices already excluded must pay their cheapest repair."""
    return sum(min_out[v] for v in prefix if v not in independent)


def _upper_bound(
    graph: ViolationGraph,
    vertices: Sequence[int],
    independent: FrozenSet[int],
) -> float:
    """Eq. (6): repair *every* outside vertex into the set right now.

    This is the cost of a concrete feasible repair, hence an upper bound
    on the optimum reachable from any superset of ``independent``.
    """
    total = 0.0
    members = list(independent)
    for v in vertices:
        if v in independent:
            continue
        total += graph.multiplicity(v) * min(
            graph.pair_cost(v, u) for u in members
        )
    return total


def enumerate_maximal_independent_sets_setbased(
    graph: ViolationGraph,
    vertices: Optional[Sequence[int]] = None,
    prune: bool = False,
    max_nodes: Optional[int] = None,
    stats: Optional[ExpansionStats] = None,
) -> List[FrozenSet[int]]:
    """Reference set-based expansion (differential-test oracle).

    The pre-bitset implementation, kept verbatim (modulo the richer
    :class:`ExpansionLimitError`) so the Hypothesis suite can assert the
    production engine reproduces its results, emission order, node
    accounting, and budget-trip point exactly.
    """
    order = list(vertices) if vertices is not None else list(range(len(graph)))
    if stats is None:
        stats = ExpansionStats()
    if not order:
        return []
    min_out = min_outgoing_costs(graph, order) if prune else {}

    current: List[FrozenSet[int]] = [frozenset({order[0]})]
    stats.nodes_generated += 1
    best_upper = float("inf")

    for level in range(1, len(order)):
        stats.levels = level
        vertex = order[level]
        # Vertices decided so far (D_i of Eq. 5). `vertex` itself is NOT
        # part of the bound's prefix: it may still join the set at zero
        # cost, so charging its min-out repair would overestimate the
        # bound and prune optimal branches.
        decided = order[:level]
        prefix = order[: level + 1]
        if prune:
            for node in current:
                best_upper = min(best_upper, _upper_bound(graph, order, node))
        next_level: Dict[FrozenSet[int], None] = {}

        def emit(candidate: FrozenSet[int]) -> None:
            if candidate in next_level:
                stats.duplicates_removed += 1
                return
            next_level[candidate] = None
            stats.nodes_generated += 1
            if max_nodes is not None and stats.nodes_generated > max_nodes:
                raise ExpansionLimitError(
                    max_nodes, stats.nodes_generated, level
                )

        for node in current:
            if prune and _lower_bound(decided, node, min_out) > best_upper:
                stats.nodes_pruned += 1
                continue
            adjacency = graph.neighbors(vertex)
            if not any(member in adjacency for member in node):
                emit(node | {vertex})
            else:
                emit(node)  # still maximal in the larger prefix
                candidate = graph.consistent_subset(vertex, node) | {vertex}
                if _is_maximal_in_prefix(graph, candidate, prefix):
                    emit(frozenset(candidate))
                else:
                    stats.non_maximal_discarded += 1
        current = list(next_level)
    stats.sets_enumerated = len(current)
    return current


def _is_maximal_in_prefix(
    graph: ViolationGraph, candidate: Set[int], prefix: Sequence[int]
) -> bool:
    """Maximality of *candidate* within the induced prefix subgraph."""
    for v in prefix:
        if v in candidate:
            continue
        adjacency = graph.neighbors(v)
        if not any(member in adjacency for member in candidate):
            return False
    return True


def brute_force_maximal_independent_sets(
    graph: ViolationGraph, vertices: Optional[Sequence[int]] = None
) -> List[FrozenSet[int]]:
    """Reference enumerator by subset expansion (test oracle only).

    Exponential in the vertex count; used to cross-check the expansion
    algorithm on small graphs.
    """
    order = list(vertices) if vertices is not None else list(range(len(graph)))
    results: Set[FrozenSet[int]] = set()

    def extend(candidate: Set[int], remaining: List[int]) -> None:
        if not remaining:
            if _is_maximal_in_prefix(graph, candidate, order):
                results.add(frozenset(candidate))
            return
        vertex, rest = remaining[0], remaining[1:]
        adjacency = graph.neighbors(vertex)
        if not any(member in adjacency for member in candidate):
            extend(candidate | {vertex}, rest)
        extend(candidate, rest)

    if order:
        extend(set(), order)
    return sorted(results, key=lambda s: sorted(s))
