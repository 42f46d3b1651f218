"""Differential tests: batched Eq. (5)/(6) bounds against the scalar path.

With numpy, :meth:`SearchKernel.advance` settles a whole level's bounds
in one batched reduction (``docs/search.md``).
Setting ``kernel.cost_columns = None`` forces the big-int scalar path
(the numpy-absent fallback) on the same kernel. The two must agree on
every float they produce — each pending upper and every frontier lower
compared with ``==`` — and hence on the final masks, the winner, the
statistics and the budget-trip point. Random kernels include cost ties,
zero-cost rows, components wider than a machine word (``n > 63``), and
states resumed from their plain fields, as subtree workers rebuild them.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.core.graph import mask_bits  # noqa: E402
from repro.core.single.frontier import (  # noqa: E402
    ExpansionLimitError,
    ExpansionStats,
    FrontierState,
    SearchKernel,
    mask_matrix,
    select_best_mask,
)

#: a coarse cost pool: repeated values make ties in the column minima
#: and in the sums, and 0.0 makes zero-cost repairs
TIED_COSTS = (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.5, 0.7)


def _random_kernel_args(
    seed: int, n: int, density: float, tied: bool, zero_rows: float
):
    """Adjacency, multiplicities, min-out terms and cost rows of a kernel."""
    rng = random.Random(seed)
    adjacency = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    multiplicities = [rng.randint(1, 4) for _ in range(n)]

    def cost() -> float:
        return rng.choice(TIED_COSTS) if tied else rng.uniform(0.0, 1.0)

    cost_rows = []
    for _ in range(n):
        zero = rng.random() < zero_rows
        # the diagonal is drawn too: no bound may read it
        cost_rows.append([0.0 if zero else cost() for _ in range(n)])
    min_out = []
    for i in range(n):
        terms = [multiplicities[i] * cost_rows[i][j] for j in mask_bits(adjacency[i])]
        min_out.append(min(terms) if terms else 0.0)
    return adjacency, multiplicities, min_out, cost_rows


@st.composite
def kernels(draw):
    wide = draw(st.integers(min_value=0, max_value=4)) == 0
    if wide:
        # sparse, so the wide search stays small; the budget caps it
        n = draw(st.integers(min_value=64, max_value=72))
        density = draw(st.floats(min_value=0.0, max_value=0.04))
    else:
        n = draw(st.integers(min_value=1, max_value=12))
        density = draw(st.floats(min_value=0.0, max_value=1.0))
    return _random_kernel_args(
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        n=n,
        density=density,
        tied=draw(st.booleans()),
        zero_rows=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )


def _kernel(args, batched: bool) -> SearchKernel:
    adjacency, multiplicities, min_out, cost_rows = args
    kernel = SearchKernel(adjacency, multiplicities, True, min_out, cost_rows)
    if not batched:
        kernel.cost_columns = None  # the scalar, numpy-absent path
    return kernel


def _search(args, batched, stepped=True, resume_at=None, max_nodes=2000):
    """Run one search; return its outcome, stats and every bound seen.

    *stepped* advances a level per call so the lowers of every level are
    observed; *resume_at* rebuilds the state at that level the way
    ``exec/subtrees.py`` does, from its plain fields (no pending uppers).
    """
    kernel = _kernel(args, batched)
    folds, lowers = [], []
    fold = kernel.fold_pending

    def spy(state, bound=None):
        folds.append(list(state.pending_upper))
        fold(state, bound)

    kernel.fold_pending = spy
    stats = ExpansionStats()
    state = kernel.seed(stats)
    lowers.append(list(state.lower))
    try:
        while True:
            stop = state.level + 1 if stepped else None
            done = kernel.advance(state, stats, max_nodes=max_nodes, stop_level=stop)
            lowers.append(list(state.lower))
            if done:
                break
            if state.level == resume_at:
                state = FrontierState(
                    state.level,
                    list(state.masks),
                    list(state.lower),
                    list(state.coverage),
                    state.best_upper,
                )
    except ExpansionLimitError as exc:
        outcome = ("limit", exc.limit, exc.nodes_generated, exc.level)
    else:
        order = list(range(kernel.n))
        outcome = (
            "done",
            state.masks,
            state.best_upper,
            select_best_mask(kernel, state.masks, order),
        )
        folds.append(list(state.pending_upper))
    return outcome, stats.as_dict(), folds, lowers


class TestBatchedMatchesScalar:
    @settings(max_examples=120, deadline=None)
    @given(args=kernels(), resume=st.integers(min_value=0, max_value=6))
    def test_every_bound_identical(self, args, resume):
        resume_at = resume if resume > 1 else None
        batched = _search(args, batched=True, resume_at=resume_at)
        scalar = _search(args, batched=False, resume_at=resume_at)
        outcome, stats, folds, lowers = batched
        # float equality, not approx: the reductions are sequential
        assert folds == scalar[2]
        assert lowers == scalar[3]
        assert outcome == scalar[0]
        assert stats == scalar[1]

    @settings(max_examples=60, deadline=None)
    @given(args=kernels())
    def test_stepped_and_resumed_runs_match_one_call(self, args):
        straight = _search(args, batched=True, stepped=False)
        stepped = _search(args, batched=True, resume_at=2)
        assert stepped[0] == straight[0]
        assert stepped[1] == straight[1]

    @settings(max_examples=60, deadline=None)
    @given(args=kernels(), budget=st.integers(min_value=1, max_value=40))
    def test_budget_trips_at_identical_point(self, args, budget):
        batched = _search(args, batched=True, stepped=False, max_nodes=budget)
        scalar = _search(args, batched=False, stepped=False, max_nodes=budget)
        assert batched[:2] == scalar[:2]


class TestBatchedPath:
    def test_negative_costs_take_the_scalar_path(self):
        # a member's entry in its column is 0.0 only when costs are >= 0
        args = _random_kernel_args(seed=3, n=5, density=0.5, tied=False, zero_rows=0.0)
        assert _kernel(args, batched=True).cost_columns is not None
        args[3][1][3] = -0.25
        assert _kernel(args, batched=True).cost_columns is None

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_mask_matrix_unpacks_any_width(self, n, seed):
        rng = random.Random(seed)
        masks = [rng.getrandbits(n) | 1 for _ in range(rng.randint(0, 5))]
        bits = mask_matrix(masks, n)
        assert bits.shape == (len(masks), n)
        for row, mask in zip(bits, masks):
            assert np.flatnonzero(row).tolist() == mask_bits(mask)
