"""The unfiltered pair scan: the similarity-join oracle.

Every pattern pair gets the full Eq. (2) distance, compared against
``tau`` afterwards — no length bound, no early abort, no blocking. The
library's ``indexed`` and ``vectorized`` strategies must return exactly
this violation list: the same pairs, in the same order, with
bit-identical distances.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.constraints import FD
from repro.core.distances import DistanceModel
from repro.core.violation import FTViolation, Pattern


class NaiveJoin:
    """Reference threshold self-join over the patterns of one FD.

    After :meth:`join`, ``possible_pairs``, ``pairs_examined`` and
    ``pairs_verified`` all equal ``P * (P - 1) / 2`` for ``P`` patterns,
    ``pairs_filtered`` is 0, and ``kernel_calls`` counts the distance
    model's edit-distance kernel calls during the scan.
    """

    def __init__(self, fd: FD, model: DistanceModel, tau: float) -> None:
        if tau < 0:
            raise ValueError("tau must be non-negative")
        self.fd = fd
        self.model = model
        self.tau = tau
        self.possible_pairs = 0
        self.pairs_examined = 0
        self.pairs_filtered = 0
        self.pairs_verified = 0
        self.kernel_calls = 0

    def join(self, patterns: Sequence[Pattern]) -> List[FTViolation]:
        """All FT-violating pairs among *patterns* at threshold ``tau``."""
        model, fd, tau = self.model, self.fd, self.tau
        kernel_calls0 = model.kernel_calls
        out: List[FTViolation] = []
        for i, left in enumerate(patterns):
            for right in patterns[i + 1 :]:
                dist = model.projection_distance(
                    fd.lhs, fd.rhs, left.values, right.values
                )
                if dist <= tau:
                    out.append(FTViolation(left, right, dist))
        n = len(patterns)
        self.possible_pairs = n * (n - 1) // 2
        self.pairs_examined = self.pairs_verified = self.possible_pairs
        self.kernel_calls = model.kernel_calls - kernel_calls0
        return out
