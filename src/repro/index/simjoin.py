"""Similarity self-join over FD patterns.

Detecting FT-violations is a threshold self-join: find every pattern pair
whose weighted projection distance (Eq. 2) is at most ``tau``. Two
strategies run it:

* ``indexed``   — sub-quadratic candidate generation (the default, and
  the path that runs without numpy): a per-FD blocker planner
  (:mod:`repro.index.blocking`) replaces the all-pairs loop with
  exact-match partitioning, a sorted numeric band join, or an inverted
  q-gram prefix index, and candidates are verified with the bounded
  Myers kernel. Falls back to a length-filtered pair scan when no
  attribute is indexable.
* ``vectorized`` — the ``indexed`` pigeonhole union run at
  **distinct-dictionary-id granularity** with numpy-batched filtering:
  per-attribute length-band + q-gram count-filter passes over the
  packed gram matrices propose distinct-id pairs, each survivor is
  settled exactly once with the prepared Myers kernel, verified value
  pairs fan out to pattern pairs through the dictionary frequency
  lists, and Eq. (2) accumulates per candidate as elementwise float64
  vector ops (bit-identical to the scalar accumulation). Degrades to
  ``indexed`` (with a :class:`DegradedJoinWarning`) when numpy is
  missing, and to the indexed/scan paths when the FD has custom
  distance overrides or uncoercible numerics.

Both strategies return exactly the same violations, in the same order,
with bit-identical distances, as an unfiltered scan over every pair;
only the work differs.

**Counter semantics** (normalized across strategies):

* ``possible_pairs``       — ``P * (P - 1) / 2`` for ``P`` patterns; the
  work a full pair scan would face.
* ``candidates_generated`` — pairs the strategy put on the table: the
  blocker output, or ``possible_pairs`` when ``indexed`` falls back to
  the pair scan.
* ``pairs_examined``       — candidate pairs actually inspected (always
  equals ``candidates_generated``; kept for backward compatibility).
* ``pairs_filtered``       — of those, rejected by a cheap sound filter
  (length lower bound, q-gram count) before exact verification.
* ``pairs_verified``       — pairs that reached the exact Eq. (2)
  accumulation: ``pairs_examined - pairs_filtered``.

The ``vectorized`` strategy adds three distinct-id counters (0 for
``indexed``, which works at tuple granularity):

* ``distinct_pairs_examined`` — unique distinct-value pairs given an
  exact evaluation (blocker settles plus verification), summed per
  attribute. Value-level work: at most — and on duplicated data far
  below — the tuple-level pair count.
* ``tuple_fanout``            — tuple pairs the candidate set covers
  (``sum`` of multiplicity products): the work a tuple-granular join
  would have spent on the same candidates.
* ``vector_filter_passes``    — numpy filter passes run (length-band
  chunks, count-filter chunks, band windows).

``reduction_ratio`` summarizes the blocking win: the fraction of the
possible pairs the strategy never examined.
"""

from __future__ import annotations

import warnings
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.violation import (
    FTViolation,
    Pattern,
    PreparedProjection,
    _length_lower_bound,
)
from repro.index.blocking import (
    _EXACT_MARGIN,
    BlockPlan,
    AttributeBlocker,
    _allocate_union,
    _band_width,
    _usable_attributes,
    candidate_pairs,
    plan_blocker,
    vectorized_band_pairs,
    vectorized_qgram_pairs,
)
from repro.index.registry import AttributeIndexRegistry
from repro.obs import span

try:  # numpy is optional at runtime; ``vectorized`` degrades without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the numpy-absent CI job
    _np = None  # type: ignore[assignment]

STRATEGIES = ("indexed", "vectorized")


class DegradedJoinWarning(RuntimeWarning):
    """A join strategy degraded to a weaker implementation.

    Emitted once per join when ``join_strategy="vectorized"`` runs in an
    environment without numpy and falls back to ``indexed``: results are
    identical, only the distinct-id batching is lost.
    """


class SimilarityJoin:
    """Threshold self-join over patterns of one FD.

    See the module docstring for the strategy menu and the exact counter
    semantics. After :meth:`join` the instance exposes
    ``possible_pairs`` / ``candidates_generated`` / ``pairs_examined`` /
    ``pairs_filtered`` / ``pairs_verified``, the achieved
    :attr:`reduction_ratio`, and (for ``indexed``) the chosen
    :attr:`plan`.
    """

    def __init__(
        self,
        fd: FD,
        model: DistanceModel,
        tau: float,
        strategy: str = "indexed",
        q: int = 2,
        registry: Optional[AttributeIndexRegistry] = None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected {STRATEGIES}")
        if tau < 0:
            raise ValueError("tau must be non-negative")
        self.fd = fd
        self.model = model
        self.tau = tau
        self.strategy = strategy
        self.q = q
        #: shared attribute indexes; pass one registry to every join of a
        #: run so FDs with overlapping attributes reuse each other's work
        self.registry = registry if registry is not None else AttributeIndexRegistry(q)
        self.plan: Optional[BlockPlan] = None
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.possible_pairs = 0
        self.candidates_generated = 0
        self.pairs_examined = 0
        self.pairs_filtered = 0
        self.pairs_verified = 0
        # per-join deltas of the shared model/registry counters, so sums
        # over joins sharing one registry stay correct
        self.kernel_calls = 0
        self.index_builds = 0
        self.index_reuses = 0
        # distinct-id counters of the vectorized strategy (0 elsewhere)
        self.distinct_pairs_examined = 0
        self.tuple_fanout = 0
        self.vector_filter_passes = 0

    @property
    def reduction_ratio(self) -> float:
        """Fraction of the possible pairs never examined (0 for a scan)."""
        if not self.possible_pairs:
            return 0.0
        return 1.0 - min(1.0, self.pairs_examined / self.possible_pairs)

    def counters(self) -> dict:
        """The join's instrumentation as a plain mapping (for stats)."""
        return {
            "possible_pairs": self.possible_pairs,
            "candidates_generated": self.candidates_generated,
            "pairs_examined": self.pairs_examined,
            "pairs_filtered": self.pairs_filtered,
            "pairs_verified": self.pairs_verified,
            "kernel_calls": self.kernel_calls,
            "index_builds": self.index_builds,
            "index_reuses": self.index_reuses,
            "distinct_pairs_examined": self.distinct_pairs_examined,
            "tuple_fanout": self.tuple_fanout,
            "vector_filter_passes": self.vector_filter_passes,
            "reduction_ratio": self.reduction_ratio,
            "blocker": self.plan.describe() if self.plan is not None else None,
        }

    # ------------------------------------------------------------------
    def join(self, patterns: Sequence[Pattern]) -> List[FTViolation]:
        """All FT-violating pairs among *patterns* at threshold ``tau``."""
        self._reset_counters()
        self.plan = None
        model, registry = self.model, self.registry
        with span(
            "detect", fd=self.fd.name, strategy=self.strategy, tau=self.tau
        ) as detect_span:
            kernel_calls0 = model.kernel_calls + registry.kernel_calls
            builds0 = registry.index_builds
            reuses0 = registry.index_reuses
            n = len(patterns)
            self.possible_pairs = n * (n - 1) // 2
            out: Optional[List[FTViolation]] = None
            if self.strategy == "vectorized":
                if _np is None:
                    warnings.warn(
                        "numpy is unavailable; join_strategy='vectorized' "
                        "degrades to 'indexed' (identical results, scalar "
                        "performance)",
                        DegradedJoinWarning,
                        stacklevel=2,
                    )
                else:
                    # None for custom overrides / uncoercible actives:
                    # the scalar paths own those semantics
                    out = self._join_vectorized(patterns)
            if out is None:
                out = self._indexed_path(patterns)
            self.kernel_calls = (
                model.kernel_calls + registry.kernel_calls - kernel_calls0
            )
            self.index_builds = registry.index_builds - builds0
            self.index_reuses = registry.index_reuses - reuses0
            # Counters land as span attributes only; the executor publishes
            # the unified registry, so nothing is double counted.
            detect_span.set(violations=len(out), **self.counters())
        return out

    def _indexed_path(self, patterns: Sequence[Pattern]) -> List[FTViolation]:
        """Plan and run the ``indexed`` strategy (also the degraded path)."""
        self.plan = plan_blocker(
            self.fd, self.model, self.tau, patterns, self.q, self.registry
        )
        if self.plan.kind != "scan":
            return self._join_indexed(patterns)
        # no indexable attribute: fall back to the length-filtered scan
        return self._join_scan(patterns)

    # ------------------------------------------------------------------
    def _join_vectorized(
        self, patterns: Sequence[Pattern]
    ) -> Optional[List[FTViolation]]:
        """The distinct-dictionary-id join, numpy-batched end to end.

        Pipeline (soundness/identity argument in ``docs/detection.md``):

        1. reuse the pigeonhole allocation of the indexed planner to
           split ``tau`` across the FD's usable attributes;
        2. realize each blocker at distinct-id granularity — numpy band
           windows for numerics, length-band + packed q-gram
           count-filter passes for strings, with survivors settled
           **exactly once per distinct pair** through the batched
           prepared Myers kernel;
        3. fan the surviving value pairs out to pattern pairs through
           the per-value pattern groups (segmented ``repeat``/``cumsum``
           expansion), union the blockers, and sort via one
           ``np.unique`` over packed ``i * n + j`` keys;
        4. verify candidates with per-attribute exact distances computed
           once per distinct value pair and accumulated elementwise in
           attribute order — IEEE-identical to the scalar Eq. (2) loop,
           so emitted distances are bit-identical.

        Returns ``None`` when the FD needs the scalar paths (custom
        distance overrides, uncoercible numerics, or no sound
        allocation); the caller degrades to ``indexed``.
        """
        np = _np
        model, fd, tau, registry = self.model, self.fd, self.tau, self.registry
        n = len(patterns)
        if n < 2:
            self.plan = BlockPlan(kind="block", blockers=(), estimate=0)
            return []
        if any(model.has_override(attr) for attr in fd.attributes):
            return None
        n_lhs = len(fd.lhs)
        active = sum(
            1
            for pos in range(len(fd.attributes))
            if (model.weights.lhs if pos < n_lhs else model.weights.rhs) > 0.0
        )
        infos = _usable_attributes(fd, model, patterns, self.q, registry)
        if len(infos) != active:
            return None  # an active attribute failed coercion
        allocation = _allocate_union(infos, tau)
        if allocation is None:
            return None  # the union cannot cover tau soundly
        # -- pick each blocker's kind up front (mirrors _AttrInfo.blocker)
        realized: List[Tuple[Any, float, str]] = []
        for info, budget in allocation:
            ratio = budget / info.weight
            if ratio >= 1.0 - _EXACT_MARGIN:
                return None  # vacuous blocker; defensive (planner agrees)
            if info.numeric:
                kind = "exact" if info.spread <= 0.0 else "band"
            elif ratio * info.max_len < 1.0 - _EXACT_MARGIN:
                kind = "exact"
            else:
                kind = "qgram"
            realized.append((info, ratio, kind))

        # -- per-attribute group arrays (shared by fan-out and verify)
        arrays_of: dict = {}

        def group_arrays(info: Any) -> Tuple[Any, Any, Any]:
            cached = arrays_of.get(info.position)
            if cached is None:
                gsize = np.fromiter(
                    (len(g) for g in info.groups),
                    dtype=np.int64,
                    count=len(info.groups),
                )
                members = np.fromiter(
                    (index for group in info.groups for index in group),
                    dtype=np.int64,
                    count=n,
                )
                goff = np.cumsum(gsize) - gsize
                cached = (members, goff, gsize)
                arrays_of[info.position] = cached
            return cached

        # -- realize blockers and fan distinct-id pairs out to patterns
        distinct_examined = 0
        filter_passes = 0
        key_parts: List[Any] = []
        described: List[AttributeBlocker] = []
        for info, ratio, kind in realized:
            members, goff, gsize = group_arrays(info)
            described.append(
                AttributeBlocker(
                    kind=kind,
                    position=info.position,
                    attribute=info.attribute,
                    weight=info.weight,
                    ratio=ratio,
                )
            )
            intra = np.nonzero(gsize >= 2)[0]
            part = _fanout_keys(members, goff, gsize, intra, intra, n, True)
            if part is not None:
                key_parts.append(part)
            if kind == "exact":
                continue
            if kind == "band":
                band = _band_width(ratio, info.spread)
                u, v, passes = vectorized_band_pairs(info.values, band)
                filter_passes += passes
            else:
                entry, codes = registry.string_index(info.attribute, info.values)
                _, _, packed, sizes, lengths = entry.gram_arrays()
                cu, cv, budgets, passes = vectorized_qgram_pairs(
                    packed, sizes, lengths, ratio, self.q
                )
                filter_passes += passes
                distinct_examined += int(cu.size)
                verdicts = registry.settle_many(
                    entry, cu.tolist(), cv.tolist(), budgets.tolist()
                )
                keep = np.asarray(verdicts, dtype=bool)
                cu, cv = cu[keep], cv[keep]
                # canonical codes -> this FD's local value ids
                codes_arr = np.asarray(codes, dtype=np.int64)
                local = np.empty(len(codes), dtype=np.int64)
                local[codes_arr] = np.arange(len(codes), dtype=np.int64)
                u, v = local[cu], local[cv]
            part = _fanout_keys(members, goff, gsize, u, v, n, False)
            if part is not None:
                key_parts.append(part)

        if key_parts:
            keys = np.unique(np.concatenate(key_parts))
        else:
            keys = np.zeros(0, dtype=np.int64)
        ci = keys // n
        cj = keys - ci * n
        count = int(keys.size)
        self.candidates_generated = count
        self.pairs_examined = count

        # -- verify: exact per-attribute distances once per distinct
        #    value pair, accumulated elementwise in attribute order
        totals = np.zeros(count, dtype=np.float64)
        for info in infos:
            members, goff, gsize = group_arrays(info)
            code_of_pattern = np.empty(n, dtype=np.int64)
            code_of_pattern[members] = np.repeat(
                np.arange(len(gsize), dtype=np.int64), gsize
            )
            a = code_of_pattern[ci]
            b = code_of_pattern[cj]
            neq = np.nonzero(a != b)[0]
            if neq.size == 0:
                continue
            term = np.zeros(count, dtype=np.float64)
            if info.numeric:
                values = np.asarray(info.values, dtype=np.float64)
                if info.spread <= 0.0:
                    term[neq] = 1.0
                else:
                    gaps = np.abs(values[a[neq]] - values[b[neq]])
                    term[neq] = np.minimum(gaps / info.spread, 1.0)
            else:
                n_values = len(info.values)
                lo = np.minimum(a[neq], b[neq])
                hi = np.maximum(a[neq], b[neq])
                unique_keys, inverse = np.unique(
                    lo * n_values + hi, return_inverse=True
                )
                uu = unique_keys // n_values
                vv = unique_keys - uu * n_values
                entry, codes = registry.string_index(info.attribute, info.values)
                codes_arr = np.asarray(codes, dtype=np.int64)
                canon_u = codes_arr[uu]
                canon_v = codes_arr[vv]
                lengths = np.asarray(entry.lengths, dtype=np.int64)
                longest = np.maximum(lengths[canon_u], lengths[canon_v])
                # the loosest budget the scalar bounded verify could use;
                # pairs rejected here provably exceed tau (margin
                # weight / longest, far above float noise)
                budgets = ((tau / info.weight) * longest).astype(np.int64) + 1
                edits = np.asarray(
                    registry.bounded_edits_many(
                        entry,
                        canon_u.tolist(),
                        canon_v.tolist(),
                        budgets.tolist(),
                    ),
                    dtype=np.int64,
                )
                distances = np.where(
                    edits <= budgets, edits / longest, np.inf
                )
                distinct_examined += int(unique_keys.size)
                term[neq] = distances[inverse]
            totals = totals + info.weight * term

        rejected = int(np.isinf(totals).sum())
        self.pairs_filtered = rejected
        self.pairs_verified = count - rejected
        self.distinct_pairs_examined = distinct_examined
        self.vector_filter_passes = filter_passes
        multiplicity = np.fromiter(
            (pattern.multiplicity for pattern in patterns),
            dtype=np.int64,
            count=n,
        )
        self.tuple_fanout = int((multiplicity[ci] * multiplicity[cj]).sum())
        self.plan = BlockPlan(
            kind="block", blockers=tuple(described), estimate=count
        )
        hits = np.nonzero(totals <= tau)[0]
        out: List[FTViolation] = []
        for c in hits.tolist():
            out.append(
                FTViolation(
                    patterns[int(ci[c])],
                    patterns[int(cj[c])],
                    float(totals[c]),
                )
            )
        return out

    def _join_indexed(self, patterns: Sequence[Pattern]) -> List[FTViolation]:
        """Verify only the blocker's candidates, in scan order.

        Candidates arrive sorted by left index, so the left pattern's
        per-attribute kernel preparations (:class:`PreparedProjection`)
        are built once per run of equal ``i`` and reused across all its
        right-hand candidates — the one-vs-many shape.
        """
        assert self.plan is not None
        candidates = candidate_pairs(
            self.plan, patterns, self.model, self.q, self.registry
        )
        self.candidates_generated = len(candidates)
        out: List[FTViolation] = []
        model, fd, tau = self.model, self.fd, self.tau
        prepared: Optional[PreparedProjection] = None
        prepared_i = -1
        for i, j in candidates:
            self.pairs_examined += 1
            left, right = patterns[i], patterns[j]
            if _length_lower_bound(model, fd, left.values, right.values) > tau:
                self.pairs_filtered += 1
                continue
            self.pairs_verified += 1
            if i != prepared_i:
                prepared = PreparedProjection(model, fd, left.values)
                prepared_i = i
            dist = prepared.distance_within_bounded(right.values, tau)
            if dist is not None:
                out.append(FTViolation(left, right, dist))
        return out

    def _join_scan(self, patterns: Sequence[Pattern]) -> List[FTViolation]:
        """The quadratic pair scan behind a ``scan`` plan.

        Every pair is examined; the length lower bound rejects hopeless
        pairs before the exact Eq. (2) accumulation, which aborts once
        the running sum exceeds ``tau``.
        """
        out: List[FTViolation] = []
        tau = self.tau
        for i, left in enumerate(patterns):
            # left preparation once per row of the scan (one-vs-many):
            # the length-bound spec and per-attribute kernel comparers
            # are streamed over every right-hand pattern
            prepared = PreparedProjection(self.model, self.fd, left.values)
            for right in patterns[i + 1 :]:
                self.pairs_examined += 1
                if prepared.length_lower_bound(right.values) > tau:
                    self.pairs_filtered += 1
                    continue
                self.pairs_verified += 1
                dist = prepared.distance_within(
                    right.values, tau, use_filters=False
                )
                if dist is not None:
                    out.append(FTViolation(left, right, dist))
        self.candidates_generated = self.pairs_examined
        return out


def _fanout_keys(
    members: Any,
    goff: Any,
    gsize: Any,
    u: Any,
    v: Any,
    n: int,
    triangle: bool,
) -> Optional[Any]:
    """Fan value-id pairs out to packed pattern-pair keys ``i * n + j``.

    ``members``/``goff``/``gsize`` describe the per-value pattern groups
    (flattened members, group offsets, group sizes). Each ``(u, v)``
    value pair expands to the full cross product of its two groups via
    segmented ``repeat``/``cumsum`` arithmetic — the frequency-weighted
    fan-out, all in numpy. With *triangle* (the intra-group case,
    ``u == v``) only ``i < j`` pairs are kept; cross pairs are
    canonicalized to ``min * n + max``. Returns ``None`` for an empty
    expansion.
    """
    if _np is None or len(u) == 0:
        return None
    su = gsize[u]
    sv = gsize[v]
    counts = su * sv
    total = int(counts.sum())
    if total == 0:
        return None
    pair_of = _np.repeat(_np.arange(len(u), dtype=_np.int64), counts)
    base = _np.cumsum(counts) - counts
    within = _np.arange(total, dtype=_np.int64) - base[pair_of]
    right_size = sv[pair_of]
    iu = within // right_size
    iv = within - iu * right_size
    pi = members[goff[u][pair_of] + iu]
    pj = members[goff[v][pair_of] + iv]
    if triangle:
        keep = pi < pj
        pi, pj = pi[keep], pj[keep]
        if pi.size == 0:
            return None
        return pi * n + pj
    return _np.minimum(pi, pj) * n + _np.maximum(pi, pj)
