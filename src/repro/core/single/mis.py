"""Maximal-independent-set enumeration via the expansion tree (Section 3.1).

Independent sets satisfy the a-priori property: every subset of an
independent set is independent. The expansion algorithm exploits this by
visiting vertices in order ``v_1 .. v_n`` and maintaining, per level
``i``, all maximal independent sets of the induced prefix ``D_i``:

* if ``v_{i+1}`` is FT-consistent with a set ``I``, the only child is
  ``I ∪ {v_{i+1}}``;
* otherwise ``I`` survives unchanged (it is still maximal), and
  ``FTC(v_{i+1}, I) ∪ {v_{i+1}}`` becomes a second child when it is
  maximal w.r.t. the new prefix and not a duplicate.

For the *optimal repair* search, a node may be pruned when its repair
lower bound (Eq. 5) exceeds the best known upper bound (Eq. 6): every
repair reachable from the node is then provably beaten by an already
known feasible repair.

The production engine (:func:`enumerate_maximal_independent_sets`) runs
the level-synchronous schedule as an explicit work-list branch-and-bound
over the :class:`~repro.core.graph.ComponentMasks` bitset view; the
loop itself lives in the resumable
:class:`~repro.core.single.frontier.SearchKernel` so giant components
can be cut at a level boundary into independently explorable subtree
tasks (:mod:`repro.core.single.subtree`, ``docs/parallelism.md``):

* each frontier node is one prefix-mask; FT-conflict, ``FTC``, and
  prefix-maximality checks are ``&``/``|`` word operations against a
  per-node *coverage mask* (members plus their neighborhoods);
* the Eq. (5) lower bound is **memoized per prefix-mask** and carried
  incrementally level to level (the same left-to-right float
  accumulation the scratch recomputation performs, so bounds are
  bit-identical to the oracle's);
* the Eq. (6) upper bound is computed **once per emitted mask** (the
  oracle recomputes it for every frontier node at every level) and
  folded into the incumbent at the next level boundary — exactly the
  point the oracle's fold becomes visible to pruning decisions;
* nodes with equal prefix-masks are merged (*dominance*): later
  expansion paths reaching an already-frontier mask are dominated by
  the first and dropped, which is also what bounds the tree width.

Every decision the serial engine takes — emission order, duplicate
merging, pruning, the node count that trips
:class:`ExpansionLimitError` — is bit-for-bit identical to the set-based
reference implementation in ``tests/oracles/mis.py``, cross-checked by
the Hypothesis differential suite (``tests/test_search_bitset.py``).
When a subtree dispatcher is installed, the split exploration
reproduces the same *output* (the enumerate-mode merge is exact; the
best-mode winner is bound-independent) while counters reflect the extra
duplicated exploration across chunks.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.core.graph import ViolationGraph, mask_bits
from repro.core.single.frontier import (
    ExpansionLimitError,
    ExpansionStats,
    SearchKernel,
    select_best_mask,
)
from repro.core.single.subtree import (
    MODE_BEST,
    MODE_ENUMERATE,
    SplitRequest,
    SubtreeDispatcher,
    current_dispatcher,
)
from repro.obs import span

__all__ = [
    "ExpansionLimitError",
    "ExpansionStats",
    "enumerate_maximal_independent_sets",
    "best_maximal_independent_set",
]


def _advance_to_split(
    kernel: SearchKernel,
    state,
    stats: ExpansionStats,
    dispatcher: SubtreeDispatcher,
    max_nodes: Optional[int],
) -> bool:
    """Serial prefix: widen the frontier until it can feed the fanout.

    Returns True when the enumeration *finished* during the prefix (the
    tree was too small to split — the caller completes locally, which is
    exactly the serial path).
    """
    target = max(2, dispatcher.fanout())
    while True:
        if kernel.advance(
            state, stats, max_nodes=max_nodes, stop_level=state.level + 1
        ):
            return True
        if len(state.masks) >= target:
            return False


def _expand(
    graph: ViolationGraph,
    order: List[int],
    prune: bool,
    max_nodes: Optional[int],
    stats: ExpansionStats,
    with_costs: bool,
) -> Tuple[SearchKernel, List[int]]:
    """Run the expansion over non-empty *order*; the kernel and masks.

    The final frontier comes back as prefix-masks over ``order`` (bit
    ``i`` = ``order[i]``), together with the kernel that produced them,
    so the winner scan can reuse both.
    """
    dispatcher = current_dispatcher()
    split_wanted = (
        dispatcher is not None
        and not prune  # the exact-merge theorem needs an unpruned tree
        and dispatcher.wants(len(order), prune=False, mode=MODE_ENUMERATE)
    )
    with span(
        "mis/expand", fd=graph.fd.name, vertices=len(order), prune=prune
    ) as expand_span:
        kernel = SearchKernel.for_graph(
            graph, order, prune=prune, with_costs=with_costs
        )
        state = kernel.seed(stats)
        final_masks: Optional[List[int]] = None
        if split_wanted:
            assert dispatcher is not None
            if not _advance_to_split(kernel, state, stats, dispatcher, max_nodes):
                final_masks = dispatcher.explore(
                    SplitRequest(
                        kernel=kernel,
                        state=state,
                        stats=stats,
                        mode=MODE_ENUMERATE,
                        max_nodes=max_nodes,
                        fd_name=graph.fd.name,
                        order=list(order),
                    )
                )
        if final_masks is None:
            kernel.advance(state, stats, max_nodes=max_nodes)
            final_masks = state.masks
        stats.sets_enumerated = len(final_masks)
        expand_span.set(**stats.as_dict())
    return kernel, final_masks


def enumerate_maximal_independent_sets(
    graph: ViolationGraph,
    vertices: Optional[Sequence[int]] = None,
    prune: bool = False,
    max_nodes: Optional[int] = None,
    stats: Optional[ExpansionStats] = None,
) -> List[FrozenSet[int]]:
    """All maximal independent sets of the induced subgraph on *vertices*.

    With ``prune=True`` the enumeration keeps only sets that can still
    lead to the minimum-cost repair (sound for the optimization, not for
    exhaustive enumeration). *max_nodes* bounds the total number of tree
    nodes; exceeding it raises :class:`ExpansionLimitError` so callers
    can fall back to the greedy algorithm.

    This is the bitset engine (module docstring); results, statistics,
    and the budget-trip point are identical to the set-based reference.
    When a subtree dispatcher is installed (``repro.core.single.subtree``)
    and the component crosses its threshold, the un-pruned enumeration is
    split into subtree tasks whose merged output is the same list in the
    same order (pruned enumerations never split here — only the winner
    search in :func:`best_maximal_independent_set` does).
    """
    order = list(vertices) if vertices is not None else list(range(len(graph)))
    if stats is None:
        stats = ExpansionStats()
    if not order:
        return []
    _, final_masks = _expand(
        graph, order, prune, max_nodes, stats, with_costs=False
    )
    return [frozenset(order[i] for i in mask_bits(mask)) for mask in final_masks]


def _best_via_split(
    graph: ViolationGraph,
    order: List[int],
    prune: bool,
    max_nodes: Optional[int],
    stats: ExpansionStats,
    dispatcher: SubtreeDispatcher,
) -> FrozenSet[int]:
    """Winner search with the frontier split into subtree tasks.

    Chunks score their own surviving candidates; the parent reduces the
    chunk winners in segment order with the serial comparator. Shared
    incumbent bounds may only prune provably-beaten sets, so the winner
    matches the serial scan (``docs/parallelism.md``).
    """
    with span(
        "mis/expand",
        fd=graph.fd.name,
        vertices=len(order),
        prune=prune,
        split=True,
    ) as expand_span:
        kernel = SearchKernel.for_graph(
            graph, order, prune=prune, with_costs=True
        )
        state = kernel.seed(stats)
        winner = None
        if _advance_to_split(kernel, state, stats, dispatcher, max_nodes):
            # Finished during the serial prefix: score locally — the
            # same scan, comparator and floats as the unsplit path.
            stats.sets_enumerated = len(state.masks)
            winner = select_best_mask(kernel, state.masks, order)
        else:
            winner = dispatcher.explore(
                SplitRequest(
                    kernel=kernel,
                    state=state,
                    stats=stats,
                    mode=MODE_BEST,
                    max_nodes=max_nodes,
                    fd_name=graph.fd.name,
                    order=list(order),
                )
            )
        expand_span.set(**stats.as_dict())
    if winner is None:
        raise ValueError("no vertices to enumerate over")
    mask = winner[0]
    return frozenset(order[i] for i in mask_bits(mask))


def best_maximal_independent_set(
    graph: ViolationGraph,
    vertices: Optional[Sequence[int]] = None,
    prune: bool = True,
    max_nodes: Optional[int] = None,
    stats: Optional[ExpansionStats] = None,
) -> FrozenSet[int]:
    """The independent set whose induced repair is cheapest (Theorem 2)."""
    order = list(vertices) if vertices is not None else list(range(len(graph)))
    if stats is None:
        stats = ExpansionStats()
    dispatcher = current_dispatcher()
    if (
        order
        and dispatcher is not None
        and dispatcher.wants(len(order), prune=prune, mode=MODE_BEST)
    ):
        return _best_via_split(
            graph, order, prune, max_nodes, stats, dispatcher
        )
    if not order:
        raise ValueError("no vertices to enumerate over")
    # the winner scan reuses the enumeration's kernel and masks: the same
    # comparator, in frontier order, over the same floats
    kernel, final_masks = _expand(
        graph, order, prune, max_nodes, stats, with_costs=True
    )
    winner = select_best_mask(kernel, final_masks, order)
    assert winner is not None
    return frozenset(order[i] for i in mask_bits(winner[0]))
