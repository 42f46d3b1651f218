"""Equivalence and fallback tests for the vectorized join strategy.

The ``vectorized`` strategy must be observationally identical to
``indexed`` and the naive oracle (``tests/oracles/simjoin.py``): the
same violations, the same distances, the same emission order — while
examining candidate pairs at distinct-dictionary-id granularity and
fanning matches back out to tuple pairs through the dictionary
frequency lists.
"""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import FD
from repro.core.distances import DistanceModel, Weights
from repro.core.engine import Repairer
from repro.core.violation import group_patterns
from repro.dataset.relation import Relation, Schema
from repro.index import simjoin
from repro.index.simjoin import (
    STRATEGIES,
    DegradedJoinWarning,
    SimilarityJoin,
)
from tests.oracles.simjoin import NaiveJoin

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the numpy-absent CI job
    _np = None

requires_numpy = pytest.mark.skipif(
    _np is None, reason="exercises the numpy fast path"
)


def _violations(relation, fd, model, tau, strategy):
    """(left, right, distance) triples, in emission order."""
    if strategy == "naive":
        join = NaiveJoin(fd, model, tau)
    else:
        join = SimilarityJoin(fd, model, tau, strategy=strategy)
    return [
        (v.left.values, v.right.values, v.distance)
        for v in join.join(group_patterns(relation, fd))
    ], join


def _assert_all_equal(relation, fd, model, tau):
    reference, _ = _violations(relation, fd, model, tau, "naive")
    indexed, _ = _violations(relation, fd, model, tau, "indexed")
    vectorized, _ = _violations(relation, fd, model, tau, "vectorized")
    assert indexed == reference
    assert vectorized == reference


class TestVectorizedEquivalence:
    """vectorized == indexed == naive, distances and order included."""

    def test_registered_strategy(self):
        assert "vectorized" in STRATEGIES

    @settings(deadline=None, max_examples=60)
    @given(
        rows=st.lists(
            st.tuples(
                st.text("abc", min_size=0, max_size=7),  # empty strings in
                st.text("xyz", min_size=0, max_size=5),
            ),
            min_size=1,
            max_size=14,
        ),
        tau=st.floats(0.0, 1.1),
        w_lhs=st.sampled_from([0.0, 0.3, 0.5, 1.0]),  # weight-0 attrs in
    )
    def test_random_string_relations(self, rows, tau, w_lhs):
        relation = Relation(Schema.of("City", "State"), rows)
        fd = FD.parse("City -> State")
        model = DistanceModel(
            relation, weights=Weights(w_lhs, round(1.0 - w_lhs, 12))
        )
        _assert_all_equal(relation, fd, model, tau)

    @settings(deadline=None, max_examples=60)
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(-50, 50).map(lambda f: round(f, 2)),
                st.floats(0, 10).map(lambda f: round(f, 2)),
            ),
            min_size=1,
            max_size=14,
        ),
        tau=st.floats(0.0, 1.1),
    )
    def test_random_all_numeric_relations(self, rows, tau):
        schema = Schema.of("A", "B", numeric=("A", "B"))
        relation = Relation(schema, rows)
        fd = FD.parse("A -> B")
        _assert_all_equal(relation, fd, DistanceModel(relation), tau)

    @settings(deadline=None, max_examples=40)
    @given(
        rows=st.lists(
            st.tuples(
                st.text("pqr", min_size=1, max_size=6),
                st.floats(-20, 20).map(lambda f: round(f, 1)),
            ),
            min_size=1,
            max_size=12,
        ),
        tau=st.floats(0.0, 0.9),
    )
    def test_random_mixed_relations(self, rows, tau):
        schema = Schema.of("Name", "Score", numeric=("Score",))
        relation = Relation(schema, rows)
        fd = FD.parse("Name -> Score")
        _assert_all_equal(relation, fd, DistanceModel(relation), tau)

    def test_citizens_slice(self, citizens, citizens_model, fd=None):
        fd = FD.parse("City -> State")
        for tau in (0.0, 0.3, 0.55, 10.0):
            _assert_all_equal(citizens, fd, citizens_model, tau)


class TestDegenerateRegimes:
    def test_empty_relation(self):
        relation = Relation(Schema.of("City", "State"))
        fd = FD.parse("City -> State")
        _assert_all_equal(relation, fd, DistanceModel(relation), 0.5)
        out, join = _violations(
            relation, fd, DistanceModel(relation), 0.5, "vectorized"
        )
        assert out == []
        assert join.plan is not None

    def test_single_distinct_value(self):
        relation = Relation(Schema.of("City", "State"), [("aa", "x")] * 5)
        fd = FD.parse("City -> State")
        _assert_all_equal(relation, fd, DistanceModel(relation), 0.5)

    def test_all_identical_column(self):
        rows = [("aa", "x"), ("aa", "y"), ("aa", "xy"), ("aa", "x")]
        relation = Relation(Schema.of("City", "State"), rows)
        fd = FD.parse("City -> State")
        for tau in (0.0, 0.4, 1.0):
            _assert_all_equal(relation, fd, DistanceModel(relation), tau)

    def test_tau_zero(self, citizens, citizens_model):
        fd = FD.parse("City -> State")
        out, _ = _violations(citizens, fd, citizens_model, 0.0, "vectorized")
        reference, _ = _violations(citizens, fd, citizens_model, 0.0, "naive")
        assert out == reference == []


@requires_numpy
class TestCounters:
    def test_distinct_counters_populate(self, citizens, citizens_model):
        fd = FD.parse("City -> State")
        _, join = _violations(citizens, fd, citizens_model, 0.55, "vectorized")
        counters = join.counters()
        assert counters["distinct_pairs_examined"] == join.distinct_pairs_examined
        assert counters["tuple_fanout"] == join.tuple_fanout
        assert counters["vector_filter_passes"] == join.vector_filter_passes
        # at tuple granularity the fan-out dominates the distinct work
        assert join.distinct_pairs_examined <= max(1, join.tuple_fanout)
        assert join.vector_filter_passes > 0

    def test_scalar_strategies_report_zero(self, citizens, citizens_model):
        fd = FD.parse("City -> State")
        for tau in (0.55, 10.0):  # a block plan, then the scan fallback
            _, join = _violations(citizens, fd, citizens_model, tau, "indexed")
            assert join.distinct_pairs_examined == 0
            assert join.tuple_fanout == 0
            assert join.vector_filter_passes == 0

    def test_counters_invariant_across_n_jobs(
        self, citizens, citizens_fds, citizens_thresholds
    ):
        def stats_for(n_jobs):
            report = Repairer(
                citizens_fds,
                thresholds=citizens_thresholds,
                join_strategy="vectorized",
                n_jobs=n_jobs,
            ).detect(citizens)
            return report.stats

        serial, parallel = stats_for(1), stats_for(2)
        for key in (
            "distinct_pairs_examined",
            "tuple_fanout",
            "vector_filter_passes",
            "pairs_examined",
        ):
            assert serial[key] == parallel[key], key
        assert serial["distinct_pairs_examined"] > 0
        # the new counters flow into the aggregated pruning view and the
        # human-readable describe() line
        assert "distinct_pairs_examined" in serial.pruning
        assert "distinct pair(s)" in serial.describe()


class TestNumpyAbsentFallback:
    def test_degrades_to_indexed_with_warning(
        self, citizens, citizens_model, monkeypatch
    ):
        fd = FD.parse("City -> State")
        reference, _ = _violations(
            citizens, fd, citizens_model, 0.55, "indexed"
        )
        monkeypatch.setattr(simjoin, "_np", None)
        join = SimilarityJoin(fd, citizens_model, 0.55, strategy="vectorized")
        with pytest.warns(DegradedJoinWarning):
            out = [
                (v.left.values, v.right.values, v.distance)
                for v in join.join(group_patterns(citizens, fd))
            ]
        assert out == reference
        assert join.distinct_pairs_examined == 0  # scalar path took over

    @requires_numpy
    def test_no_warning_when_numpy_present(self, citizens, citizens_model):
        fd = FD.parse("City -> State")
        join = SimilarityJoin(fd, citizens_model, 0.55, strategy="vectorized")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedJoinWarning)
            join.join(group_patterns(citizens, fd))
