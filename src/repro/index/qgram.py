"""Q-gram machinery for edit-distance filtering.

Classic similarity-join filters: if ``lev(a, b) <= k`` then the padded
q-gram multisets of *a* and *b* overlap in at least
``max(|a|, |b|) + q - 1 - k*q`` grams. The converse gives a cheap,
sound rejection test that avoids the dynamic program for most pairs.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.core.distances import qgrams

try:  # numpy is optional at runtime; vectorized paths degrade without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the numpy-absent CI job
    _np = None  # type: ignore[assignment]


def qgram_overlap(a: str, b: str, q: int = 2) -> int:
    """Multiset overlap of the padded q-gram profiles of *a* and *b*."""
    ca, cb = Counter(qgrams(a, q)), Counter(qgrams(b, q))
    return sum(min(count, cb[gram]) for gram, count in ca.items())


def passes_count_filter(a: str, b: str, max_edits: int, q: int = 2) -> bool:
    """Sound test: can ``lev(a, b) <= max_edits`` possibly hold?

    Returns ``False`` only when the q-gram count filter *proves* the edit
    distance exceeds *max_edits*.
    """
    if max_edits < 0:
        return a == b
    if not a or not b:
        # An empty string has no q-grams; answer exactly.
        return max(len(a), len(b)) <= max_edits
    need = max(len(a), len(b)) + q - 1 - max_edits * q
    if need <= 0:
        return True
    return qgram_overlap(a, b, q) >= need


_POPCOUNT_TABLE: Any = None


def popcount_table() -> Any:
    """256-entry ``uint8`` popcount lookup table.

    Portable across numpy versions (``np.bitwise_count`` only exists from
    numpy 2.0); indexing a byte matrix through the table and summing rows
    counts set bits at memory bandwidth.
    """
    global _POPCOUNT_TABLE
    if _POPCOUNT_TABLE is None:
        if _np is None:
            raise RuntimeError("popcount_table() requires numpy")
        _POPCOUNT_TABLE = _np.array(
            [bin(i).count("1") for i in range(256)], dtype=_np.uint8
        )
    return _POPCOUNT_TABLE


def gram_matrix(profiles: Sequence[Set[str]]) -> Tuple[Any, Any, Any, Any]:
    """Encode distinct-gram profiles as a CSR matrix plus a packed bitset.

    *profiles* is one distinct-q-gram set per dictionary id. Returns
    ``(indptr, gram_ids, packed, sizes)``:

    * ``indptr`` / ``gram_ids`` — CSR rows of the boolean value x gram
      matrix: value *v*'s grams are ``gram_ids[indptr[v]:indptr[v+1]]``,
      columns assigned in first-occurrence order over a shared
      vocabulary;
    * ``packed`` — the same matrix bit-packed to ``uint8``
      (``ceil(G/8)`` bytes per row) for pairwise overlap popcounts;
    * ``sizes`` — ``int64`` profile sizes (the CSR row lengths).
    """
    if _np is None:
        raise RuntimeError("gram_matrix() requires numpy")
    vocabulary: Dict[str, int] = {}
    columns: List[int] = []
    indptr = _np.zeros(len(profiles) + 1, dtype=_np.int64)
    for row, profile in enumerate(profiles):
        columns.extend(
            vocabulary.setdefault(gram, len(vocabulary))
            for gram in sorted(profile)
        )
        indptr[row + 1] = len(columns)
    gram_ids = _np.asarray(columns, dtype=_np.int64)
    width = (max(len(vocabulary), 1) + 7) // 8
    packed = _np.zeros((len(profiles), width), dtype=_np.uint8)
    bits = (1 << (gram_ids & 7)).astype(_np.uint8)
    bytes_of = gram_ids >> 3
    for row in range(len(profiles)):
        lo, hi = indptr[row], indptr[row + 1]
        _np.bitwise_or.at(packed[row], bytes_of[lo:hi], bits[lo:hi])
    return indptr, gram_ids, packed, _np.diff(indptr)


def char_arrays(values: Sequence[str]) -> Tuple[Any, Any, Any]:
    """Pad-encoded character matrix + per-value Myers PEQ tables.

    Returns ``(codes, lengths, peq)`` over a shared character
    vocabulary: ``codes`` is the ``int32`` value x position matrix
    (zero-padded), ``lengths`` the ``int64`` value lengths, and ``peq``
    the per-value Myers bitmask table — ``peq[v][c]`` has bit ``j`` set
    when character ``c`` occurs at position ``j`` of value ``v``. Rows
    of values longer than 63 characters stay zero: their bitvector does
    not fit one machine word, so :func:`batched_myers` routes pairs
    where *both* sides are that wide back to the scalar kernel.
    """
    if _np is None:
        raise RuntimeError("char_arrays() requires numpy")
    vocabulary: Dict[str, int] = {}
    maxlen = max((len(value) for value in values), default=0)
    codes = _np.zeros((len(values), max(maxlen, 1)), dtype=_np.int32)
    lengths = _np.zeros(len(values), dtype=_np.int64)
    for row, value in enumerate(values):
        lengths[row] = len(value)
        for col, ch in enumerate(value):
            codes[row, col] = vocabulary.setdefault(ch, len(vocabulary))
    peq = _np.zeros((len(values), max(len(vocabulary), 1)), dtype=_np.uint64)
    one = _np.uint64(1)
    for row, value in enumerate(values):
        if len(value) > 63:
            continue
        target = peq[row]
        for col, ch in enumerate(value):
            target[vocabulary[ch]] |= one << _np.uint64(col)
    return codes, lengths, peq


def batched_myers(codes: Any, lengths: Any, peq: Any, lefts: Any,
                  rights: Any) -> Any:
    """Exact Levenshtein distances for value-id pairs, batched.

    Myers' bit-parallel column update (the same recurrence as
    :class:`repro.core.distances.PreparedKernel`) run as elementwise
    ``uint64`` operations across the whole batch: each pair's pattern is
    its shorter value, the texts are scanned column-by-column with pairs
    sorted by text length so the active set is always a prefix slice.
    Returns exact distances; ``-1`` marks pairs whose shorter value
    exceeds 63 characters (one-word bitvectors cannot hold them — the
    caller settles those with the scalar kernel).
    """
    ll, lr = lengths[lefts], lengths[rights]
    swap = lr < ll
    pattern = _np.where(swap, rights, lefts)
    text = _np.where(swap, lefts, rights)
    m, n = lengths[pattern], lengths[text]
    out = _np.full(len(pattern), -1, dtype=_np.int64)
    out[m == 0] = n[m == 0]
    run = _np.nonzero((m > 0) & (m <= 63))[0]
    if not run.size:
        return out
    # sort by text length descending: at column j the still-active pairs
    # are exactly the prefix [0:count_j], so state updates are views
    order = run[_np.argsort(-n[run], kind="stable")]
    pattern, text, m, n = pattern[order], text[order], m[order], n[order]
    m64 = m.astype(_np.uint64)
    one = _np.uint64(1)
    full = (one << m64) - one  # m <= 63 keeps every shift in-word
    last_shift = (m64 - one).astype(_np.uint64)
    pv = full.copy()
    mv = _np.zeros(len(order), dtype=_np.uint64)
    score = m.copy()
    longest = int(n[0])
    counts = _np.bincount(n, minlength=longest + 1)
    active = len(order)
    for col in range(longest):
        # pairs whose text is exactly `col` characters long retire now
        active -= int(counts[col])
        sl = slice(0, active)
        eq = peq[pattern[sl], codes[text[sl], col]]
        pv_s, mv_s = pv[sl], mv[sl]
        xv = eq | mv_s
        xh = (((eq & pv_s) + pv_s) ^ pv_s) | eq
        ph = mv_s | (~(xh | pv_s) & full[sl])
        mh = pv_s & xh
        score[sl] += ((ph >> last_shift[sl]) & one).astype(_np.int64)
        score[sl] -= ((mh >> last_shift[sl]) & one).astype(_np.int64)
        ph = ((ph << one) | one) & full[sl]
        mh = (mh << one) & full[sl]
        pv[sl] = mh | (~(xv | ph) & full[sl])
        mv[sl] = ph & xv
    out[order] = score
    return out


def packed_overlap(packed: Any, left: Any, right: Any) -> Any:
    """Distinct-gram overlap ``|G_u & G_v|`` for each pair ``(left[i], right[i])``.

    Operates on the bit-packed matrix from :func:`gram_matrix`. The
    caller chunks the pair arrays to bound the transient
    ``len(pairs) x row_bytes`` gather.
    """
    table = popcount_table()
    inter = _np.bitwise_and(packed[left], packed[right])
    return table[inter].sum(axis=1, dtype=_np.int64)

