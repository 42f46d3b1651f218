"""Single-constraint repair algorithms (Section 3)."""

from repro.core.single.exact import repair_single_fd_exact
from repro.core.single.greedy import greedy_independent_set, repair_single_fd_greedy
from repro.core.single.mis import (
    ExpansionLimitError,
    ExpansionStats,
    enumerate_maximal_independent_sets,
)

__all__ = [
    "repair_single_fd_exact",
    "repair_single_fd_greedy",
    "greedy_independent_set",
    "enumerate_maximal_independent_sets",
    "ExpansionLimitError",
    "ExpansionStats",
]
