"""Sub-quadratic candidate generation for FT-violation detection.

The threshold self-join of Section 2.1 asks for every pattern pair whose
weighted projection distance (Eq. 2) is at most ``tau``. Per-attribute
distances are non-negative, which yields a **pigeonhole bound**: pick
any subset ``S`` of the FD's positive-weight attributes and any budget
split ``b_i > 0`` with ``sum(b_i) >= tau``; a pair whose distance on
*every* attribute of ``S`` satisfies ``w_i * d_i > b_i`` has total
weighted distance ``> tau`` and can never be an FT-violation. The
candidate set is therefore the **union** of one per-attribute blocker
per member of ``S``, each run at ratio ``r_i = b_i / w_i``:

* ``exact`` — partition patterns by the attribute value; sound whenever
  any difference already exceeds the ratio (string attributes with
  ``r * max_len < 1``, constant-spread numerics, ``tau == 0``).
* ``band`` — sort the distinct numeric values and emit pairs within
  ``r * spread`` of each other; pairs farther apart have normalized
  Euclidean distance ``> r``.
* ``qgram`` — length-aware inverted q-gram index with prefix-filter
  probing. For value lengths ``(la, lb)`` the edit budget is
  ``k = floor(r * max(la, lb) + eps)`` (the epsilon keeps
  float-boundary pairs in); a string within ``k`` edits of the probe
  value shares all but at most ``k * q`` of its distinct q-grams — one
  edit destroys at most ``q`` distinct gram types — so it must hit at
  least one of any ``k * q + 1`` of them. Probing the ``k * q + 1``
  globally rarest grams of the query against per-length posting lists
  is therefore sound; buckets whose length differs from the query's by
  more than ``k`` are skipped outright (``lev >= |la - lb|``). Probe
  survivors are then settled *exactly* at the value level with the
  bounded Myers kernel — distinct values are far fewer than
  patterns, so this is cheap and makes the blocker emit precisely the
  pairs within their edit budget.

:func:`plan_blocker` builds the single-attribute plans the budget
``b = tau`` allows plus a greedy multi-attribute allocation (exact
partitions are nearly free budget-wise, numeric bands absorb arbitrary
budget, q-gram budgets rise one edit at a time on the longest
attribute first), ranks every plan by estimated candidate pairs, and
returns the cheapest — or a *scan* plan when nothing beats the filtered
pair scan, e.g. because every blocker would be vacuous at the required
ratios.

Every blocker rejects with a real margin (``>= 1`` whole edit for
q-grams, a relative-plus-absolute band slack for numerics, one
character of normalized length for exact string partitions), so float
rounding in the reference Eq. (2) accumulation can never disagree with
an exclusion. The full soundness argument lives in ``docs/detection.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.violation import Pattern
from repro.index.qgram import packed_overlap
from repro.index.registry import AttributeIndexRegistry

try:  # numpy is optional at runtime; the vectorized passes degrade without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the numpy-absent CI job
    _np = None  # type: ignore[assignment]

#: relative epsilon inside the edit-budget floor so float rounding in
#: ``ratio * length`` can never round an exactly-representable budget
#: down; rejection keeps a near-full-edit margin.
_BUDGET_EPS = 1e-9

#: relative slack applied to the numeric band for the same reason.
_BAND_SLACK = 1e-9

#: absolute band slack (times spread) so even near-zero budgets reject
#: with a margin far above float noise.
_BAND_ABS_SLACK = 1e-12

#: margin under which a string edit budget is treated as exactly zero
#: (every differing pair then exceeds the ratio, enabling exact
#: partitioning), and by which ratios stay clear of the ``d <= 1`` clamp.
_EXACT_MARGIN = 1e-6

#: a block plan must beat the scan estimate by this factor; candidate
#: generation overhead eats narrow wins.
_PLAN_ADVANTAGE = 0.8


@dataclass(frozen=True)
class AttributeBlocker:
    """One attribute's sound candidate filter inside a :class:`BlockPlan`.

    ``ratio`` is the attribute-level distance budget ``b / weight``; a
    pair this blocker rejects is guaranteed to have normalized distance
    ``> ratio`` on the attribute. ``budget`` is the integer edit budget
    for ``qgram`` blockers (0 otherwise).
    """

    kind: str  # "exact" | "band" | "qgram"
    position: int
    attribute: str
    weight: float
    ratio: float
    budget: int = 0
    estimate: int = 0
    #: q-gram blockers precompute their surviving value-id pairs during
    #: planning (the work is value-level and cheap); ``None`` means the
    #: emitter must probe the index itself.
    value_pairs: Optional[Tuple[Tuple[int, int], ...]] = None

    def describe(self) -> str:
        return f"{self.kind}({self.attribute})"


@dataclass(frozen=True)
class BlockPlan:
    """The blocker union chosen for one similarity self-join.

    ``kind`` is ``block`` when :attr:`blockers` is a sound union whose
    per-attribute budgets sum to at least ``tau``, or ``scan`` when the
    join must fall back to the filtered pair scan. ``estimate`` is the
    (possibly heuristic) candidate-pair count used to rank plans.
    """

    kind: str  # "block" | "scan"
    blockers: Tuple[AttributeBlocker, ...] = ()
    estimate: int = 0

    def describe(self) -> str:
        """Compact label for stats and CLI output."""
        if self.kind == "scan":
            return "scan"
        return "+".join(blocker.describe() for blocker in self.blockers)


# ----------------------------------------------------------------------
# Grouping helpers
# ----------------------------------------------------------------------
def _group_by_value(
    patterns: Sequence[Pattern], position: int, numeric: bool
) -> Optional[Tuple[List[Any], List[List[int]]]]:
    """Distinct (coerced) values and their pattern-index groups.

    Values are coerced the way :meth:`DistanceModel.attribute_distance`
    coerces them (``str`` for string attributes, ``float`` for numeric),
    so grouping matches the distance semantics exactly. Returns ``None``
    when a value refuses the numeric coercion (the attribute is then
    unusable for blocking).

    Patterns minted by :func:`~repro.core.violation.group_patterns` over
    an encoded relation carry their projections as value ids
    (``Pattern.ids``); those partition on the ids directly — one int
    lookup per pattern, one coercion per *distinct* value — which the
    intern invariant guarantees is the same grouping. Hand-built
    patterns fall back to value-keyed grouping.
    """
    values: List[Any] = []
    groups: List[List[int]] = []
    if patterns and patterns[0].ids is not None:
        by_vid: Dict[int, int] = {}
        for index, pattern in enumerate(patterns):
            assert pattern.ids is not None
            vid = pattern.ids[position]
            slot = by_vid.get(vid)
            if slot is None:
                raw = pattern.values[position]
                if numeric:
                    try:
                        value = float(raw)
                    except (TypeError, ValueError):
                        return None
                else:
                    value = str(raw)
                by_vid[vid] = len(values)
                values.append(value)
                groups.append([index])
            else:
                groups[slot].append(index)
        return values, groups
    ids: Dict[Any, int] = {}
    for index, pattern in enumerate(patterns):
        raw = pattern.values[position]
        if numeric:
            try:
                value = float(raw)
            except (TypeError, ValueError):
                return None
        else:
            value = str(raw)
        vid = ids.get(value)
        if vid is None:
            ids[value] = len(values)
            values.append(value)
            groups.append([index])
        else:
            groups[vid].append(index)
    return values, groups


def _intra_pair_count(groups: Sequence[Sequence[int]]) -> int:
    return sum(len(g) * (len(g) - 1) // 2 for g in groups)


def _cross_pairs(
    left: Sequence[int], right: Sequence[int]
) -> List[Tuple[int, int]]:
    return [(u, v) if u < v else (v, u) for u in left for v in right]


# ----------------------------------------------------------------------
# Band join (numeric attributes)
# ----------------------------------------------------------------------
def _band_width(ratio: float, spread: float) -> float:
    return ratio * spread * (1.0 + _BAND_SLACK) + spread * _BAND_ABS_SLACK


# ----------------------------------------------------------------------
# Vectorized candidate passes (distinct-id granularity, numpy-batched)
# ----------------------------------------------------------------------
#: element budget per transient matrix of the length-band pass and byte
#: budget per packed-overlap gather — both bound peak memory, neither
#: affects the emitted pair set.
_VEC_MATRIX_ELEMS = 1 << 21
_VEC_OVERLAP_BYTES = 1 << 23


def vectorized_band_pairs(values: Sequence[float], band: float) -> Tuple[Any, Any, int]:
    """Value-id pairs with ``|a - b| <= band``, as numpy arrays.

    The vectorized twin of :meth:`AttributeIndexRegistry.band_windows`:
    an argsort plus one ``searchsorted`` per side replaces the two-pointer
    scan, and the windows expand through segmented ``repeat``/``cumsum``
    arithmetic.
    Returns ``(u, v, passes)`` where *passes* counts the vectorized
    filter passes run. Same pair set as the scalar code — the window
    condition compares the same floats.
    """
    arr = _np.asarray(values, dtype=_np.float64)
    order = _np.argsort(arr, kind="stable")
    sv = arr[order]
    idx = _np.arange(len(sv), dtype=_np.int64)
    starts = _np.searchsorted(sv, sv - band, side="left")
    counts = idx - starts
    total = int(counts.sum())
    if total == 0:
        empty = _np.zeros(0, dtype=_np.int64)
        return empty, empty, 1
    pair_of = _np.repeat(idx, counts)
    base = _np.cumsum(counts) - counts
    within = _np.arange(total, dtype=_np.int64) - base[pair_of]
    mids = starts[pair_of] + within
    return order[mids], order[pair_of], 1


def vectorized_qgram_pairs(
    packed: Any,
    sizes: Any,
    lengths: Any,
    ratio: float,
    q: int,
) -> Tuple[Any, Any, Any, int]:
    """Distinct-id pair candidates of one q-gram blocker, numpy-batched.

    Runs the two sound prefilters over the canonical (bit-packed) gram
    matrix of :meth:`_StringIndex.gram_arrays`, upper triangle only:

    1. **length band** — ``|la - lb| <= k`` with the per-pair edit
       budget ``k = floor(ratio * max(la, lb) + eps)``;
    2. **q-gram count filter** (distinct-set variant) — ``lev <= k``
       implies the profiles share at least ``max(|Ga|, |Gb|) - k*q``
       grams, so pairs under that overlap are rejected by popcounting
       the packed rows.

    Returns ``(u, v, k, passes)``: surviving canonical code pairs, the
    edit budget per pair (for the exact settle the caller runs), and the
    number of vectorized filter passes. Survivors are a superset of the
    pairs within their budget; the caller settles them exactly, so the
    emitted value-pair set ends up identical to the scalar blocker's.
    """
    n_values = len(lengths)
    passes = 0
    out_u: List[Any] = []
    out_v: List[Any] = []
    out_k: List[Any] = []
    row_bytes = packed.shape[1] if packed.ndim == 2 else 1
    overlap_chunk = max(1, _VEC_OVERLAP_BYTES // max(row_bytes, 1))
    row_chunk = max(16, _VEC_MATRIX_ELEMS // max(n_values, 1))
    idx = _np.arange(n_values, dtype=_np.int64)
    for start in range(0, n_values, row_chunk):
        stop = min(start + row_chunk, n_values)
        li = lengths[start:stop, None]
        maxlen = _np.maximum(li, lengths[None, :])
        budget = (ratio * maxlen + _BUDGET_EPS).astype(_np.int64)
        mask = _np.abs(li - lengths[None, :]) <= budget
        mask &= idx[None, :] > idx[start:stop, None]  # upper triangle
        passes += 1
        rows, cols = _np.nonzero(mask)
        if rows.size == 0:
            continue
        budgets = budget[rows, cols]
        rows = rows + start
        need = _np.maximum(sizes[rows], sizes[cols]) - budgets * q
        keep = _np.ones(rows.size, dtype=bool)
        check = _np.nonzero(need > 0)[0]
        for lo in range(0, check.size, overlap_chunk):
            sel = check[lo : lo + overlap_chunk]
            overlap = packed_overlap(packed, rows[sel], cols[sel])
            keep[sel] = overlap >= need[sel]
            passes += 1
        out_u.append(rows[keep])
        out_v.append(cols[keep])
        out_k.append(budgets[keep])
    if not out_u:
        empty = _np.zeros(0, dtype=_np.int64)
        return empty, empty, empty, passes
    return (
        _np.concatenate(out_u),
        _np.concatenate(out_v),
        _np.concatenate(out_k),
        passes,
    )


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------
class _AttrInfo:
    """Everything the planner needs to know about one usable attribute."""

    def __init__(
        self,
        position: int,
        attribute: str,
        weight: float,
        numeric: bool,
        spread: float,
        values: List[Any],
        groups: List[List[int]],
        q: int,
        registry: AttributeIndexRegistry,
    ) -> None:
        self.position = position
        self.attribute = attribute
        self.weight = weight
        self.numeric = numeric
        self.spread = spread
        self.values = values
        self.groups = groups
        self.q = q
        self.registry = registry
        self.intra = _intra_pair_count(groups)
        if numeric:
            self.max_len = 0
        else:
            self.max_len = max((len(v) for v in values), default=0)

    # -- budget levels -------------------------------------------------
    def base_budget(self) -> float:
        """The cheapest sound level: exact partition / zero-width band."""
        if self.numeric and self.spread > 0.0:
            return self.weight * _EXACT_MARGIN  # near-zero band
        if self.numeric or self.max_len == 0:
            # constant numerics / all-empty strings: distinct values are
            # at the clamp, any ratio below 1 excludes them
            return self.weight * (1.0 - 2.0 * _EXACT_MARGIN)
        return self.weight * (1.0 - 2.0 * _EXACT_MARGIN) / self.max_len

    def max_budget(self) -> float:
        """The largest budget this attribute can absorb soundly.

        Normalized distances are clamped at 1, so any ratio at or above
        1 makes the blocker vacuous; everything strictly below stays
        sound (a partially vacuous q-gram probe just takes whole length
        buckets for the affected queries).
        """
        if self.numeric and self.spread <= 0.0:
            return self.base_budget()
        if not self.numeric and self.max_len == 0:
            return self.base_budget()
        return self.weight * (1.0 - 2.0 * _EXACT_MARGIN)

    def next_level(self, budget: float) -> Optional[float]:
        """The next discrete budget above *budget* (strings only).

        Level ``k`` is the largest budget whose edit allowance at
        ``max_len`` is still ``k``: ``ratio * max_len`` just under
        ``k + 1``.
        """
        if self.numeric or self.max_len == 0:
            return None
        ceiling = self.max_budget()
        for k in range(1, self.max_len + 1):
            level = self.weight * (k + 1 - _EXACT_MARGIN) / self.max_len
            if level > ceiling:
                return None
            if level > budget:
                return level
        return None

    # -- blocker construction ------------------------------------------
    def blocker(
        self, budget: float, limit: float = float("inf")
    ) -> Optional[AttributeBlocker]:
        """The sound blocker this attribute runs at *budget*, or None.

        *limit* bounds the candidate-pair estimate a q-gram blocker may
        reach: construction aborts (returns ``None``) as soon as the
        running expansion proves the blocker cannot beat the plan that
        set the limit, which keeps planning cheap on hopeless ratios.
        """
        if budget <= 0.0 or self.weight <= 0.0:
            return None
        ratio = budget / self.weight
        if ratio >= 1.0 - _EXACT_MARGIN:
            return None  # vacuous: normalized distances are clamped at 1
        value_pairs: Optional[Tuple[Tuple[int, int], ...]] = None
        if self.numeric:
            if self.spread <= 0.0:
                kind, k, estimate = "exact", 0, self.intra
            else:
                band = _band_width(ratio, self.spread)
                kind, k = "band", 0
                estimate = self.registry.band_estimate(
                    self.attribute, self.values, self.groups, band
                )
        elif ratio * self.max_len < 1.0 - _EXACT_MARGIN:
            kind, k, estimate = "exact", 0, self.intra
        else:
            k = int(ratio * self.max_len + _BUDGET_EPS)
            kind = "qgram"
            result = self.registry.qgram_value_pairs(
                self.attribute,
                self.values,
                self.groups,
                ratio,
                self._pair_cap(),
                limit - self.intra,
            )
            if result is None:
                return None  # cannot beat the plan that set the limit
            value_pairs, expanded = result
            estimate = self.intra + expanded
        return AttributeBlocker(
            kind=kind,
            position=self.position,
            attribute=self.attribute,
            weight=self.weight,
            ratio=ratio,
            budget=k,
            estimate=estimate,
            value_pairs=value_pairs,
        )

    def _pair_cap(self) -> int:
        """Value-pair budget for planning-time settle verification."""
        n_patterns = sum(len(group) for group in self.groups)
        return max(50_000, n_patterns * n_patterns // 8)


def _usable_attributes(
    fd: FD,
    model: DistanceModel,
    patterns: Sequence[Pattern],
    q: int,
    registry: AttributeIndexRegistry,
) -> List[_AttrInfo]:
    n_lhs = len(fd.lhs)
    infos: List[_AttrInfo] = []
    for position, attribute in enumerate(fd.attributes):
        weight = model.weights.lhs if position < n_lhs else model.weights.rhs
        if weight <= 0.0:
            continue  # contributes nothing to Eq. (2)
        if model.has_override(attribute):
            continue  # custom distance: no geometry to block on
        numeric = model.is_numeric(attribute)
        grouped = _group_by_value(patterns, position, numeric)
        if grouped is None:
            continue
        values, groups = grouped
        spread = model.spread(attribute) if numeric else 0.0
        infos.append(
            _AttrInfo(
                position,
                attribute,
                weight,
                numeric,
                spread,
                values,
                groups,
                q,
                registry,
            )
        )
    return infos


def _allocate_union(
    infos: List[_AttrInfo], tau: float
) -> Optional[List[Tuple[_AttrInfo, float]]]:
    """Greedy budget split with ``sum(budgets) >= tau``, or ``None``.

    Every attribute starts at its cheapest sound level (exact partition
    or zero-width band). Leftover budget flows into numeric bands first
    (they absorb continuously), then raises string q-gram budgets one
    edit at a time, smallest increment first — long attributes absorb
    budget with the least selectivity loss.
    """
    if not infos:
        return None
    budgets = [info.base_budget() for info in infos]
    deficit = tau - sum(budgets)
    if deficit > 0.0:
        # continuous absorption into numeric bands
        for i, info in enumerate(infos):
            if deficit <= 0.0:
                break
            room = info.max_budget() - budgets[i]
            if info.numeric and info.spread > 0.0 and room > 0.0:
                take = min(room, deficit)
                budgets[i] += take
                deficit -= take
        # discrete q-gram level raises: always lift the attribute whose
        # next level leaves it at the smallest ratio, keeping ratios low
        # and even across the union (selectivity decays with ratio)
        while deficit > 0.0:
            best: Optional[Tuple[float, int, float]] = None
            for i, info in enumerate(infos):
                level = info.next_level(budgets[i])
                if level is None:
                    continue
                next_ratio = level / info.weight
                if best is None or (next_ratio, i) < best[:2]:
                    best = (next_ratio, i, level)
            if best is None:
                return None  # cannot cover tau without going vacuous
            _, i, level = best
            deficit -= level - budgets[i]
            budgets[i] = level
    else:
        # surplus: drop the most expensive partitions we can spare
        order = sorted(
            range(len(infos)),
            key=lambda i: (-infos[i].intra, -budgets[i], infos[i].position),
        )
        keep = [True] * len(infos)
        total = sum(budgets)
        for i in order:
            if sum(keep) == 1:
                break
            if total - budgets[i] >= tau:
                keep[i] = False
                total -= budgets[i]
        infos = [info for i, info in enumerate(infos) if keep[i]]
        budgets = [b for i, b in enumerate(budgets) if keep[i]]
    return list(zip(infos, budgets))


def plan_blocker(
    fd: FD,
    model: DistanceModel,
    tau: float,
    patterns: Sequence[Pattern],
    q: int = 2,
    registry: Optional[AttributeIndexRegistry] = None,
) -> BlockPlan:
    """Pick the cheapest sound blocker union for one self-join.

    Candidate plans are the greedy multi-attribute allocation of
    :func:`_allocate_union` plus every single attribute whose weight
    exceeds ``tau`` (the whole budget on one blocker); each is ranked
    by its candidate-pair count (exact for every blocker kind — q-gram
    blockers settle their value pairs during planning) and the cheapest
    wins. Construction aborts early once a plan provably cannot beat
    the best so far; when nothing beats ``_PLAN_ADVANTAGE`` times the
    ``P * (P - 1) / 2`` scan estimate the plan is a ``scan``.

    Pass a shared :class:`AttributeIndexRegistry` so plans over FDs
    with overlapping attributes reuse each other's q-gram indexes and
    sorted numeric orders; the plan itself is identical either way.
    """
    n = len(patterns)
    scan = BlockPlan(kind="scan", estimate=n * (n - 1) // 2)
    if n < 2 or tau < 0.0:
        return scan
    if registry is None:
        registry = AttributeIndexRegistry(q)
    infos = _usable_attributes(fd, model, patterns, q, registry)
    if not infos:
        return scan
    # candidate generation has real overhead (probing, set union, sort);
    # a plan must leave a clear margin over the scan to be worth it, and
    # the margin doubles as the abort limit for blocker construction
    limit = scan.estimate * _PLAN_ADVANTAGE
    best: Optional[BlockPlan] = None
    allocation = _allocate_union(infos, tau)
    if allocation is not None:
        blockers: Optional[List[AttributeBlocker]] = []
        total = 0
        for info, budget in allocation:
            blocker = info.blocker(budget, limit - total)
            if blocker is None or total + blocker.estimate > limit:
                blockers = None
                break
            blockers.append(blocker)
            total += blocker.estimate
        if blockers:
            best = BlockPlan(
                kind="block", blockers=tuple(blockers), estimate=total
            )
            limit = min(limit, float(total))
    for info in infos:
        if tau >= info.weight:
            continue  # the attribute alone can never exceed tau
        blocker = info.blocker(max(tau, info.base_budget()), limit)
        if blocker is None or blocker.estimate >= limit:
            continue
        best = BlockPlan(
            kind="block", blockers=(blocker,), estimate=blocker.estimate
        )
        limit = float(blocker.estimate)
    if best is None or best.estimate >= scan.estimate * _PLAN_ADVANTAGE:
        return scan
    return best


def candidate_pairs(
    plan: BlockPlan,
    patterns: Sequence[Pattern],
    model: DistanceModel,
    q: int = 2,
    registry: Optional[AttributeIndexRegistry] = None,
) -> List[Tuple[int, int]]:
    """Candidate pattern-index pairs of *plan*, sorted ``(i, j), i < j``.

    The union of the plan's per-attribute blockers; each contributes its
    within-group pairs (blocking value identical, distance 0 on the
    attribute) plus its band/q-gram cross pairs. Sorted emission keeps
    the verify order identical to the nested-loop scan, which keeps the
    violation list — and therefore every downstream repair —
    byte-identical across strategies.
    """
    if plan.kind == "scan":
        raise ValueError("scan plans have no candidate generator")
    if registry is None:
        registry = AttributeIndexRegistry(q)
    seen: Set[Tuple[int, int]] = set()
    for blocker in plan.blockers:
        numeric = blocker.kind == "band" or (
            blocker.kind == "exact" and model.is_numeric(blocker.attribute)
        )
        grouped = _group_by_value(patterns, blocker.position, numeric)
        if grouped is None:  # planner vetted this; defensive only
            raise ValueError(
                f"attribute {blocker.attribute!r} stopped coercing"
            )
        values, groups = grouped
        for members in groups:
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    seen.add((u, v))
        if blocker.kind == "band":
            band = _band_width(blocker.ratio, model.spread(blocker.attribute))
            for u, v in registry.band_windows(blocker.attribute, values, band):
                seen.update(_cross_pairs(groups[u], groups[v]))
        elif blocker.kind == "qgram":
            value_pairs: Sequence[Tuple[int, int]]
            if blocker.value_pairs is not None:
                value_pairs = blocker.value_pairs
            else:
                # unsettled fallback: the shared index's raw probe
                # survivors, translated to local ids
                entry, codes = registry.string_index(blocker.attribute, values)
                local_of = {code: vid for vid, code in enumerate(codes)}
                value_pairs = sorted(
                    (local_of[cu], local_of[cv])
                    if local_of[cu] < local_of[cv]
                    else (local_of[cv], local_of[cu])
                    for cu, cv in entry.raw_pairs(blocker.ratio)
                )
            for u, v in value_pairs:
                seen.update(_cross_pairs(groups[u], groups[v]))
    return sorted(seen)
