"""Per-relation shared attribute indexes for FT-violation detection.

Several FDs of a workload typically share attributes (the FD-graph
overlap the paper exploits in Theorems 5-7), yet the blocker planner
historically rebuilt every q-gram index, sorted numeric band, and exact
partition per FD. :class:`AttributeIndexRegistry` hoists those
structures to the attribute level: the **distinct coerced values** of an
attribute are the same for every FD containing it (patterns cover all
tuples), so one canonical index per attribute serves every plan, with a
per-call code translation between the canonical numbering and each
FD's local value ids.

Shared per string attribute:

* the q-gram profiles, gram frequencies, length buckets, and inverted
  posting lists (ratio-independent — built lazily on first q-gram probe),
* the raw probe survivors per ratio (``raw_pairs``),
* the exact settle verdicts ``lev(a, b) <= k`` per value pair and
  budget, computed through interned Myers preparations (see
  :class:`repro.core.distances.PreparedKernel`).

Shared per numeric attribute: the sorted value order and the band-join
windows per band width.

Everything the registry returns is provably identical to what a
per-FD build would produce: raw probe sets depend only on the value *set*
(frequencies, buckets, and postings are numbering-invariant), settle
verdicts are value-level facts, band windows and estimates are
unordered-pair sets/counts that tie order cannot change, and the
expansion-limit abort of :meth:`qgram_value_pairs` triggers for a given
total in any iteration order. Detection output therefore stays
byte-identical with and without sharing.

The registry validates its entries per call (length equality plus
membership of every local value) and rebuilds on mismatch, so it stays
sound when the relation evolves between joins — e.g. the sequential
single-FD repair loop. Builds, reuses, and settle kernel calls are
counted and surface in ``ViolationGraph.join_counters`` /
``ExecutionStats`` / CLI ``--stats``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.distances import PreparedKernel, qgrams


def _budget_eps() -> float:
    # function-level import: blocking imports this module at load time
    from repro.index.blocking import _BUDGET_EPS

    return _BUDGET_EPS


class _StringIndex:
    """Canonical q-gram structures over one attribute's distinct values."""

    __slots__ = (
        "q",
        "values",
        "code_of",
        "lengths",
        "_profiles",
        "_frequency",
        "_by_length",
        "_postings",
        "_raw_pairs",
        "settled",
        "exact_edits",
        "_gram_arrays",
        "_char_arrays",
    )

    def __init__(self, values: Sequence[str], q: int) -> None:
        self.q = q
        self.values: List[str] = list(values)
        self.code_of: Dict[str, int] = {
            value: code for code, value in enumerate(self.values)
        }
        self.lengths: List[int] = [len(value) for value in self.values]
        self._profiles: Optional[List[frozenset]] = None
        self._frequency: Optional[Counter] = None
        self._by_length: Optional[Dict[int, List[int]]] = None
        self._postings: Optional[Dict[int, Dict[str, List[int]]]] = None
        self._raw_pairs: Dict[float, Tuple[Tuple[int, int], ...]] = {}
        #: settle verdicts ``lev(values[u], values[v]) <= k`` keyed (u, v, k)
        self.settled: Dict[Tuple[int, int, int], bool] = {}
        #: exact edit counts keyed (min(u, v), max(u, v)); only values a
        #: bounded kernel call proved exact are ever stored here
        self.exact_edits: Dict[Tuple[int, int], int] = {}
        self._gram_arrays: Optional[Tuple[Any, Any, Any, Any, Any]] = None
        self._char_arrays: Optional[Tuple[Any, Any, Any]] = None

    def _ensure_grams(self) -> None:
        if self._profiles is not None:
            return
        self._profiles = [frozenset(qgrams(value, self.q)) for value in self.values]
        frequency: Counter = Counter()
        for profile in self._profiles:
            frequency.update(profile)
        self._frequency = frequency
        by_length: Dict[int, List[int]] = {}
        postings: Dict[int, Dict[str, List[int]]] = {}
        for code, length in enumerate(self.lengths):
            by_length.setdefault(length, []).append(code)
            bucket = postings.setdefault(length, {})
            for gram in self._profiles[code]:
                bucket.setdefault(gram, []).append(code)
        self._by_length = by_length
        self._postings = postings

    def raw_pairs(self, ratio: float) -> Tuple[Tuple[int, int], ...]:
        """Probe survivors at *ratio*, in canonical codes, cached.

        For value lengths ``(la, lb)`` the edit budget is
        ``k = floor(ratio * max(la, lb) + eps)``; buckets whose length
        differs from a value's by more than ``k`` are skipped, and the
        ``k * q + 1`` globally rarest grams of the value are probed
        against the bucket's postings (the whole bucket is taken when
        the value has at most ``k * q`` grams). The emitted pair *set*
        depends only on the value set, never on the numbering, so
        translating codes to any FD's local ids yields the same set.
        """
        cached = self._raw_pairs.get(ratio)
        if cached is not None:
            return cached
        self._ensure_grams()
        eps = _budget_eps()
        q = self.q
        frequency = self._frequency
        by_length = self._by_length
        postings = self._postings
        lengths = self.lengths
        pairs: Set[Tuple[int, int]] = set()
        length_keys = sorted(by_length)
        for code, profile in enumerate(self._profiles):
            la = lengths[code]
            prefix_source = sorted(profile, key=lambda g: (frequency[g], g))
            for lb in length_keys:
                k = int(ratio * (la if la > lb else lb) + eps)
                if abs(la - lb) > k:
                    continue
                if len(prefix_source) <= k * q:
                    hits: Sequence[int] = by_length[lb]
                else:
                    bucket = postings[lb]
                    seen: Set[int] = set()
                    for gram in prefix_source[: k * q + 1]:
                        seen.update(bucket.get(gram, ()))
                    hits = seen
                for other in hits:
                    if other != code:
                        pairs.add((code, other) if code < other else (other, code))
        result = tuple(sorted(pairs))
        self._raw_pairs[ratio] = result
        return result

    def probe(self, query: str, ratio: float) -> List[int]:
        """Canonical codes possibly within ``ratio`` edits of *query*.

        The one-vs-many form of :meth:`raw_pairs`: the same pigeonhole
        prefix filter (any ``k*q + 1`` grams of the query must hit a
        value within ``k`` edits, since one edit destroys at most ``q``
        grams), applied from a single probe value that need not be in
        the index. The result is a superset of the values within
        ``floor(ratio * max_len + eps)`` edits — callers verify exactly.
        """
        self._ensure_grams()
        eps = _budget_eps()
        q = self.q
        la = len(query)
        profile = frozenset(qgrams(query, q))
        frequency = self._frequency
        by_length = self._by_length
        postings = self._postings
        assert frequency is not None and by_length is not None
        assert postings is not None
        prefix_source = sorted(profile, key=lambda g: (frequency[g], g))
        out: Set[int] = set()
        for lb, bucket_codes in by_length.items():
            k = int(ratio * (la if la > lb else lb) + eps)
            if (la - lb if la > lb else lb - la) > k:
                continue
            if len(prefix_source) <= k * q:
                out.update(bucket_codes)
            else:
                bucket = postings[lb]
                for gram in prefix_source[: k * q + 1]:
                    out.update(bucket.get(gram, ()))
        return sorted(out)


    def gram_arrays(self) -> Tuple[Any, Any, Any, Any, Any]:
        """Numpy encodings for the vectorized join, built lazily once.

        Returns ``(indptr, gram_ids, packed, sizes, lengths)``: the CSR
        and bit-packed q-gram matrices from
        :func:`repro.index.qgram.gram_matrix` over the canonical
        profiles, plus the canonical value lengths as an ``int64``
        array. Requires numpy (the caller gates on availability).
        """
        if self._gram_arrays is None:
            from repro.index.qgram import _np, gram_matrix

            self._ensure_grams()
            assert self._profiles is not None and _np is not None
            indptr, gram_ids, packed, sizes = gram_matrix(self._profiles)
            lengths = _np.asarray(self.lengths, dtype=_np.int64)
            self._gram_arrays = (indptr, gram_ids, packed, sizes, lengths)
        return self._gram_arrays

    def char_arrays(self) -> Tuple[Any, Any, Any]:
        """Character codes + Myers PEQ tables for the batched kernel.

        Lazily built ``(codes, lengths, peq)`` from
        :func:`repro.index.qgram.char_arrays` over the canonical values.
        Requires numpy (the caller gates on availability).
        """
        if self._char_arrays is None:
            from repro.index.qgram import char_arrays

            self._char_arrays = char_arrays(self.values)
        return self._char_arrays


class _NumericIndex:
    """Canonical sorted order (and band windows) of one numeric attribute."""

    __slots__ = ("values", "code_of", "order", "_windows", "_sorted")

    def __init__(self, values: Sequence[float]) -> None:
        self.values: List[float] = list(values)
        self.code_of: Dict[float, int] = {
            value: code for code, value in enumerate(self.values)
        }
        self.order: List[int] = sorted(
            range(len(self.values)), key=lambda code: self.values[code]
        )
        self._windows: Dict[float, Tuple[Tuple[int, int], ...]] = {}
        self._sorted: Optional[List[float]] = None

    def probe(self, query: float, band: float) -> List[int]:
        """Canonical codes with ``|value - query| <= band`` (bisected)."""
        if self._sorted is None:
            self._sorted = [self.values[code] for code in self.order]
        from bisect import bisect_left, bisect_right

        lo = bisect_left(self._sorted, query - band)
        hi = bisect_right(self._sorted, query + band)
        return self.order[lo:hi]

    def windows(self, band: float) -> Tuple[Tuple[int, int], ...]:
        """Canonical code pairs within *band* of each other, cached."""
        cached = self._windows.get(band)
        if cached is not None:
            return cached
        values = self.values
        order = self.order
        pairs: List[Tuple[int, int]] = []
        left = 0
        for right in range(len(order)):
            while values[order[right]] - values[order[left]] > band:
                left += 1
            for mid in range(left, right):
                pairs.append((order[mid], order[right]))
        result = tuple(pairs)
        self._windows[band] = result
        return result


class AttributeIndexRegistry:
    """Shared per-attribute index store with build/reuse accounting.

    One instance per relation (or per repair run): pass it to every
    :func:`repro.index.blocking.plan_blocker` /
    :func:`~repro.index.blocking.candidate_pairs` call and to every
    :class:`repro.index.simjoin.SimilarityJoin` so FDs sharing an
    attribute share its indexes. Thread-confined like
    :class:`~repro.core.distances.DistanceModel` — parallel workers each
    hold their own.
    """

    def __init__(self, q: int = 2) -> None:
        self.q = q
        self.index_builds = 0
        self.index_reuses = 0
        #: one-vs-many candidate probes (serving path; see qgram_probe)
        self.index_probes = 0
        #: settle kernel invocations (cache-missed ``lev <= k`` verdicts)
        self.kernel_calls = 0
        self._strings: Dict[str, _StringIndex] = {}
        self._numerics: Dict[str, _NumericIndex] = {}
        self._kernels: Dict[str, PreparedKernel] = {}

    def counters(self) -> Dict[str, int]:
        """The accounting triple, for stats plumbing."""
        return {
            "index_builds": self.index_builds,
            "index_reuses": self.index_reuses,
            "kernel_calls": self.kernel_calls,
        }

    # ------------------------------------------------------------------
    def string_index(
        self, attribute: str, values: Sequence[str]
    ) -> Tuple[_StringIndex, List[int]]:
        """The canonical index for *attribute* plus local->canonical codes.

        Reuses the cached entry when *values* is a bijection of its
        canonical set (same length, every value known); rebuilds
        otherwise — the relation changed under the registry, e.g. between
        the passes of a sequential repair loop.
        """
        entry = self._strings.get(attribute)
        if entry is not None and len(entry.values) == len(values):
            code_of = entry.code_of
            codes: List[int] = []
            for value in values:
                code = code_of.get(value)
                if code is None:
                    break
                codes.append(code)
            else:
                self.index_reuses += 1
                return entry, codes
        entry = _StringIndex(values, self.q)
        self._strings[attribute] = entry
        self.index_builds += 1
        return entry, list(range(len(values)))

    def numeric_index(
        self, attribute: str, values: Sequence[float]
    ) -> Tuple[_NumericIndex, List[int]]:
        """Numeric twin of :meth:`string_index` (same validation rule)."""
        entry = self._numerics.get(attribute)
        if entry is not None and len(entry.values) == len(values):
            code_of = entry.code_of
            codes = []
            for value in values:
                code = code_of.get(value)
                if code is None:
                    break
                codes.append(code)
            else:
                self.index_reuses += 1
                return entry, codes
        entry = _NumericIndex(values)
        self._numerics[attribute] = entry
        self.index_builds += 1
        return entry, list(range(len(values)))

    # ------------------------------------------------------------------
    def prepared_kernel(self, text: str) -> PreparedKernel:
        """The interned Myers preparation for *text* (built once)."""
        prepared = self._kernels.get(text)
        if prepared is None:
            prepared = PreparedKernel(text)
            self._kernels[text] = prepared
        return prepared

    def _settle(self, entry: _StringIndex, u: int, v: int, k: int) -> bool:
        """Whether ``lev(values[u], values[v]) <= k`` — cached."""
        key = (u, v, k)
        verdict = entry.settled.get(key)
        if verdict is None:
            a, b = entry.values[u], entry.values[v]
            self.kernel_calls += 1
            verdict = self.prepared_kernel(a).compare(b, k) <= k
            entry.settled[key] = verdict
        return verdict

    def bounded_edits_many(
        self,
        entry: _StringIndex,
        lefts: Sequence[int],
        rights: Sequence[int],
        budgets: Sequence[int],
    ) -> List[int]:
        """Batched bounded edit distances between canonical value pairs.

        Each result honours the kernel contract: exact iff it does not
        exceed its budget. With numpy present, misses run through
        :func:`repro.index.qgram.batched_myers` — the bit-parallel column
        update as elementwise ``uint64`` ops over the whole batch; pairs
        the one-word bitvector cannot hold (both sides over 63
        characters) and numpy-absent runs are grouped by left value and
        settled through one prepared :meth:`PreparedKernel.compare_many`
        per group. Exact results are
        cached in ``entry.exact_edits`` so the blocker settle and the
        verify pass never re-run a kernel on the same distinct pair.
        """
        values = entry.values
        edits_cache = entry.exact_edits
        settled = entry.settled
        out: List[int] = [0] * len(lefts)
        miss: List[int] = []
        for pos in range(len(lefts)):
            u, v = lefts[pos], rights[pos]
            cached = edits_cache.get((u, v) if u < v else (v, u))
            if cached is not None:
                out[pos] = cached
            else:
                miss.append(pos)
        if not miss:
            return out
        from repro.index.qgram import _np, batched_myers

        if _np is not None:
            codes, lengths, peq = entry.char_arrays()
            batch = batched_myers(
                codes,
                lengths,
                peq,
                _np.fromiter(
                    (lefts[p] for p in miss), _np.int64, count=len(miss)
                ),
                _np.fromiter(
                    (rights[p] for p in miss), _np.int64, count=len(miss)
                ),
            )
            remaining: List[int] = []
            for pos, edits in zip(miss, batch.tolist()):
                if edits < 0:  # too wide for one word; scalar below
                    remaining.append(pos)
                    continue
                out[pos] = edits
                u, v, k = lefts[pos], rights[pos], budgets[pos]
                settled[(u, v, k)] = edits <= k
                # batched distances are unconditionally exact
                edits_cache[(u, v) if u < v else (v, u)] = edits
            self.kernel_calls += len(miss) - len(remaining)
            miss = remaining
        pending: Dict[int, List[int]] = {}
        for pos in miss:
            pending.setdefault(lefts[pos], []).append(pos)
        for u, positions in pending.items():
            self.kernel_calls += len(positions)
            results = self.prepared_kernel(values[u]).compare_many(
                [values[rights[p]] for p in positions],
                [budgets[p] for p in positions],
            )
            for p, edits in zip(positions, results):
                out[p] = edits
                v, k = rights[p], budgets[p]
                verdict = edits <= k
                settled[(u, v, k)] = verdict
                if verdict:
                    edits_cache[(u, v) if u < v else (v, u)] = edits
        return out

    def settle_many(
        self,
        entry: _StringIndex,
        lefts: Sequence[int],
        rights: Sequence[int],
        budgets: Sequence[int],
    ) -> List[bool]:
        """Batched :meth:`_settle`: ``lev(values[u], values[v]) <= k`` per pair.

        Probes the verdict and exact-edit caches first, then routes the
        misses through :meth:`bounded_edits_many`.
        """
        out: List[bool] = [False] * len(lefts)
        settled = entry.settled
        edits_cache = entry.exact_edits
        miss: List[int] = []
        for pos in range(len(lefts)):
            u, v, k = lefts[pos], rights[pos], budgets[pos]
            verdict = settled.get((u, v, k))
            if verdict is None:
                edits = edits_cache.get((u, v) if u < v else (v, u))
                if edits is not None:
                    verdict = edits <= k
                    settled[(u, v, k)] = verdict
            if verdict is None:
                miss.append(pos)
            else:
                out[pos] = verdict
        if miss:
            edits_batch = self.bounded_edits_many(
                entry,
                [lefts[p] for p in miss],
                [rights[p] for p in miss],
                [budgets[p] for p in miss],
            )
            for p, edits in zip(miss, edits_batch):
                out[p] = edits <= budgets[p]
        return out

    def qgram_value_pairs(
        self,
        attribute: str,
        values: Sequence[str],
        groups: Sequence[Sequence[int]],
        ratio: float,
        cap: int,
        expansion_limit: float,
    ) -> Optional[Tuple[Tuple[Tuple[int, int], ...], int]]:
        """Value-id pairs within the *ratio* budget, plus their expansion.

        The probe survivors of :meth:`_StringIndex.raw_pairs` are each
        settled exactly with the bounded Myers kernel, so the emitted set
        (local ids, sorted) is precisely the pairs within
        ``floor(ratio * max_len + eps)`` edits — the tightest sound
        single-attribute candidate set. Returns ``(pairs, expanded)``
        where *expanded* counts the cross pattern pairs the value pairs
        unfold to, or ``None`` as soon as the probe survivors exceed
        *cap* or the running expansion exceeds *expansion_limit* — a
        blocker past either bound cannot beat the plan that set it. The
        abort decision and emitted set are iteration-order independent.
        """
        entry, codes = self.string_index(attribute, values)
        raw = entry.raw_pairs(ratio)
        if len(raw) > cap:
            return None
        eps = _budget_eps()
        lengths = entry.lengths
        local_of = {code: vid for vid, code in enumerate(codes)}
        kept: List[Tuple[int, int]] = []
        expanded = 0
        for cu, cv in raw:
            la, lb = lengths[cu], lengths[cv]
            k = int(ratio * (la if la > lb else lb) + eps)
            if self._settle(entry, cu, cv, k):
                u, v = local_of[cu], local_of[cv]
                if u > v:
                    u, v = v, u
                kept.append((u, v))
                expanded += len(groups[u]) * len(groups[v])
                if expanded > expansion_limit:
                    return None
        kept.sort()
        return tuple(kept), expanded

    def qgram_probe(
        self,
        attribute: str,
        values: Sequence[str],
        query: str,
        ratio: float,
    ) -> List[int]:
        """Local ids of *values* possibly within ``ratio`` edits of *query*.

        One-vs-many candidate generation for the per-record serving
        path: the shared q-gram postings answer a single probe value
        (which need not be indexed) instead of a full self-join. Returns
        a **superset** of the values within
        ``floor(ratio * max_len + eps)`` edits — callers verify exactly,
        so a looser probe can never change results, only waste work.
        """
        entry, codes = self.string_index(attribute, values)
        self.index_probes += 1
        raw = entry.probe(query, ratio)
        if not raw:
            return []
        local_of = {code: vid for vid, code in enumerate(codes)}
        return [local_of[code] for code in raw]

    def band_probe(
        self,
        attribute: str,
        values: Sequence[float],
        query: float,
        band: float,
    ) -> List[int]:
        """Local ids of *values* with ``|value - query| <= band``.

        Numeric twin of :meth:`qgram_probe` over the shared sorted
        order; exact (the band window is the candidate condition).
        """
        entry, codes = self.numeric_index(attribute, values)
        self.index_probes += 1
        raw = entry.probe(query, band)
        if not raw:
            return []
        local_of = {code: vid for vid, code in enumerate(codes)}
        return [local_of[code] for code in raw]

    # ------------------------------------------------------------------
    def band_windows(
        self, attribute: str, values: Sequence[float], band: float
    ) -> List[Tuple[int, int]]:
        """Value-id pairs within *band* of each other (local ids)."""
        entry, codes = self.numeric_index(attribute, values)
        local_of = {code: vid for vid, code in enumerate(codes)}
        pairs: List[Tuple[int, int]] = []
        for cu, cv in entry.windows(band):
            pairs.append((local_of[cu], local_of[cv]))
        return pairs

    def band_estimate(
        self,
        attribute: str,
        values: Sequence[float],
        groups: Sequence[Sequence[int]],
        band: float,
    ) -> int:
        """Exact candidate-pair count of the band join, without emitting.

        The count of unordered pairs within *band* (plus intra-group
        pairs) is invariant to tie order in the sort, so the canonical
        order gives the exact per-FD count without re-sorting.
        """
        entry, codes = self.numeric_index(attribute, values)
        total = sum(len(g) * (len(g) - 1) // 2 for g in groups)
        local_values = list(values)
        # translate the canonical sorted order to local ids
        local_of = {code: vid for vid, code in enumerate(codes)}
        order = [local_of[code] for code in entry.order]
        left = 0
        window = 0  # sum of group sizes currently in [left, right)
        for right in range(len(order)):
            while local_values[order[right]] - local_values[order[left]] > band:
                window -= len(groups[order[left]])
                left += 1
            total += window * len(groups[order[right]])
            window += len(groups[order[right]])
        return total
