"""Tests for the similarity self-join strategies against the naive oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import FD
from repro.core.distances import (
    DistanceModel,
    Weights,
    normalized_edit_distance,
)
from repro.core.violation import group_patterns
from repro.dataset.relation import Relation, Schema
from repro.index.simjoin import STRATEGIES, SimilarityJoin
from tests.oracles.simjoin import NaiveJoin


@pytest.fixture
def fd():
    return FD.parse("City -> State")


def _make_join(fd, model, tau, strategy):
    if strategy == "naive":
        return NaiveJoin(fd, model, tau)
    return SimilarityJoin(fd, model, tau, strategy=strategy)


def _join(citizens, model, fd, tau, strategy):
    join = _make_join(fd, model, tau, strategy)
    patterns = group_patterns(citizens, fd)
    pairs = join.join(patterns)
    return {
        frozenset((v.left.values, v.right.values)) for v in pairs
    }, join


class TestStrategies:
    def test_unknown_strategy_rejected(self, citizens_model, fd):
        with pytest.raises(ValueError):
            SimilarityJoin(fd, citizens_model, 0.5, strategy="magic")

    def test_negative_tau_rejected(self, citizens_model, fd):
        with pytest.raises(ValueError):
            SimilarityJoin(fd, citizens_model, -0.1)

    @pytest.mark.parametrize("strategy", ("naive",) + STRATEGIES)
    def test_finds_expected_citizens_pairs(self, citizens, citizens_model, fd,
                                           strategy):
        pairs, _ = _join(citizens, citizens_model, fd, 0.55, strategy)
        # (Boton, MA) must pair with (Boston, MA) — the t8 typo
        assert frozenset({("Boton", "MA"), ("Boston", "MA")}) in pairs

    def test_all_strategies_agree(self, citizens, citizens_model, fd):
        reference, _ = _join(citizens, citizens_model, fd, 0.55, "naive")
        for strategy in STRATEGIES:
            pairs, _ = _join(citizens, citizens_model, fd, 0.55, strategy)
            assert pairs == reference

    def test_filter_counters(self, citizens, citizens_model, fd):
        # tau 10 leaves every blocker vacuous: indexed scans all pairs
        _, join = _join(citizens, citizens_model, fd, 10.0, "indexed")
        assert join.plan.kind == "scan"
        assert join.pairs_examined == 10  # 5 distinct patterns -> C(5,2)
        assert 0 <= join.pairs_filtered <= join.pairs_examined

    def test_tau_zero_yields_nothing(self, citizens, citizens_model, fd):
        for strategy in STRATEGIES:
            pairs, _ = _join(citizens, citizens_model, fd, 0.0, strategy)
            assert pairs == set()

    def test_large_tau_yields_all_pairs(self, citizens, citizens_model, fd):
        pairs, join = _join(citizens, citizens_model, fd, 10.0, "indexed")
        assert len(pairs) == join.pairs_examined == join.possible_pairs


def _exact_violation_list(relation, fd, model, tau, strategy):
    """(left, right, distance) triples, in emission order."""
    join = _make_join(fd, model, tau, strategy)
    return [
        (v.left.values, v.right.values, v.distance)
        for v in join.join(group_patterns(relation, fd))
    ]


@settings(deadline=None, max_examples=40)
@given(
    rows=st.lists(
        st.tuples(
            st.text("abcd", min_size=1, max_size=6),
            st.text("xy", min_size=1, max_size=4),
        ),
        min_size=1,
        max_size=12,
    ),
    tau=st.floats(0.0, 1.2),
)
def test_property_strategies_identical_on_random_relations(rows, tau):
    schema = Schema.of("City", "State")
    relation = Relation(schema, rows)
    fd = FD.parse("City -> State")
    model = DistanceModel(relation)
    patterns = group_patterns(relation, fd)
    results = []
    for strategy in ("naive",) + STRATEGIES:
        join = _make_join(fd, model, tau, strategy)
        results.append(
            {
                frozenset((v.left.values, v.right.values))
                for v in join.join(patterns)
            }
        )
    assert all(result == results[0] for result in results[1:])


class TestIndexedEquivalence:
    """The indexed strategy must match naive exactly: pairs, distances,
    and emission order — including every degenerate regime."""

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
        reference = _exact_violation_list(relation, fd, model, tau, "naive")
        indexed = _exact_violation_list(relation, fd, model, tau, "indexed")
        assert indexed == reference

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
        model = DistanceModel(relation)
        reference = _exact_violation_list(relation, fd, model, tau, "naive")
        indexed = _exact_violation_list(relation, fd, model, tau, "indexed")
        assert indexed == reference

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
        model = DistanceModel(relation)
        reference = _exact_violation_list(relation, fd, model, tau, "naive")
        indexed = _exact_violation_list(relation, fd, model, tau, "indexed")
        assert indexed == reference

    def test_tau_zero(self, citizens, citizens_model, fd):
        assert _exact_violation_list(
            citizens, fd, citizens_model, 0.0, "indexed"
        ) == _exact_violation_list(citizens, fd, citizens_model, 0.0, "naive")

    def test_indexed_counters_are_consistent(self, citizens, citizens_model,
                                             fd):
        join = SimilarityJoin(fd, citizens_model, 0.55, strategy="indexed")
        join.join(group_patterns(citizens, fd))
        assert join.candidates_generated == join.pairs_examined
        assert join.pairs_examined == join.pairs_filtered + join.pairs_verified
        assert join.pairs_examined <= join.possible_pairs
        assert 0.0 <= join.reduction_ratio <= 1.0
        counters = join.counters()
        assert counters["possible_pairs"] == join.possible_pairs
        assert counters["blocker"] is not None  # scan or a blocker label

    def test_naive_never_filters(self, citizens, citizens_model, fd):
        join = NaiveJoin(fd, citizens_model, 0.55)
        join.join(group_patterns(citizens, fd))
        assert join.pairs_filtered == 0
        assert join.pairs_verified == join.pairs_examined == join.possible_pairs


class TestScanFallback:
    """``indexed`` with a ``scan`` plan runs the length-filtered pair
    scan; it must match the oracle exactly, order and distances
    included. Attributes with a distance override offer the planner
    nothing to block on, which forces the scan at every ``tau``."""

    @settings(deadline=None, max_examples=60)
    @given(
        rows=st.lists(
            st.tuples(
                st.text("abc", min_size=0, max_size=7),
                st.text("xyz", min_size=0, max_size=5),
            ),
            min_size=2,
            max_size=14,
        ),
        tau=st.floats(0.0, 1.1),
        w_lhs=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
    def test_scan_plan_matches_oracle(self, rows, tau, w_lhs):
        relation = Relation(Schema.of("City", "State"), rows)
        fd = FD.parse("City -> State")
        model = DistanceModel(
            relation,
            weights=Weights(w_lhs, round(1.0 - w_lhs, 12)),
            overrides={
                "City": normalized_edit_distance,
                "State": normalized_edit_distance,
            },
        )
        patterns = group_patterns(relation, fd)
        join = SimilarityJoin(fd, model, tau, strategy="indexed")
        got = [
            (v.left.values, v.right.values, v.distance)
            for v in join.join(patterns)
        ]
        assert join.plan.kind == "scan"
        oracle = NaiveJoin(fd, model, tau)
        want = [
            (v.left.values, v.right.values, v.distance)
            for v in oracle.join(patterns)
        ]
        assert got == want
        assert join.pairs_examined == oracle.pairs_examined
        assert join.candidates_generated == join.possible_pairs
