"""The classic two-row Levenshtein dynamic program (kernel oracle)."""

from __future__ import annotations

from typing import Optional


def levenshtein_two_row(a: str, b: str, upper_bound: Optional[int] = None) -> int:
    """The classic O(len_a * len_b) two-row dynamic program.

    Same early-abort contract as :func:`repro.core.distances.levenshtein`:
    exact whenever the result is ``<= upper_bound``, some value
    ``> upper_bound`` otherwise.
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la > lb:  # keep the inner loop over the shorter string
        a, b, la, lb = b, a, lb, la
    if upper_bound is not None:
        # Bound checks come before the empty-string returns so the
        # degenerate corners (empty vs long, negative bounds) honor the
        # "exact iff result <= upper_bound" contract.
        if upper_bound < 0:
            return 1  # distinct strings differ by at least one edit
        if lb - la > upper_bound:
            return upper_bound + 1
    if la == 0:
        return lb
    if lb == 0:
        return la

    previous = list(range(la + 1))
    current = [0] * (la + 1)
    for j in range(1, lb + 1):
        current[0] = j
        bj = b[j - 1]
        row_min = current[0]
        for i in range(1, la + 1):
            cost = 0 if a[i - 1] == bj else 1
            value = min(
                previous[i] + 1,  # delete from b
                current[i - 1] + 1,  # insert into b
                previous[i - 1] + cost,  # substitute
            )
            current[i] = value
            if value < row_min:
                row_min = value
        if upper_bound is not None and row_min > upper_bound:
            return upper_bound + 1
        previous, current = current, previous
    return previous[la]
