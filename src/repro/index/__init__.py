"""Indexes and optimizations for FT-violation detection."""

from repro.index.blocking import (
    AttributeBlocker,
    BlockPlan,
    candidate_pairs,
    plan_blocker,
)
from repro.index.qgram import passes_count_filter, qgram_overlap
from repro.index.simjoin import STRATEGIES, SimilarityJoin

__all__ = [
    "qgram_overlap",
    "passes_count_filter",
    "SimilarityJoin",
    "STRATEGIES",
    "AttributeBlocker",
    "BlockPlan",
    "candidate_pairs",
    "plan_blocker",
]
