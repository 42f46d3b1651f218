"""Unit + property tests for the distance layer (Eqs. 1-3)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.distances import (
    DistanceModel,
    Weights,
    jaccard_distance,
    levenshtein,
    normalized_edit_distance,
    normalized_euclidean,
    qgrams,
)
from repro.dataset.relation import Relation, Schema
from tests.oracles.kernels import levenshtein_two_row

words = st.text(alphabet="abcdefgh", max_size=12)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("a", "", 1),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("Boston", "Boton", 1),
            ("Bachelors", "Masters", 5),
            ("abc", "abc", 0),
            ("abc", "cba", 2),
        ],
    )
    def test_known_values(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_upper_bound_exceeded_reports_bound_plus_one(self):
        assert levenshtein("abcdef", "uvwxyz", upper_bound=2) == 3

    def test_upper_bound_not_exceeded_is_exact(self):
        assert levenshtein("kitten", "sitting", upper_bound=5) == 3

    def test_length_difference_shortcut(self):
        assert levenshtein("a", "abcdefgh", upper_bound=3) == 4

    @given(words, words)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(words)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(words, words, words)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(words, words)
    def test_bounds(self, a, b):
        dist = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= dist <= max(len(a), len(b))

    @given(words, words, st.integers(0, 6))
    def test_banded_agrees_with_exact_below_bound(self, a, b, bound):
        exact = levenshtein(a, b)
        banded = levenshtein(a, b, upper_bound=bound)
        if exact <= bound:
            assert banded == exact
        else:
            assert banded > bound


class TestLevenshteinBanded:
    """The bounded early-abort contract of ``levenshtein`` (exact when
    within the budget, ``budget + 1`` past it) vs the two-row oracle."""

    @pytest.mark.parametrize(
        "a,b,k,expected",
        [
            ("kitten", "sitting", 5, 3),
            ("kitten", "sitting", 3, 3),
            ("kitten", "sitting", 2, 3),  # overflow: k + 1
            ("abcdef", "uvwxyz", 2, 3),
            ("", "abc", 3, 3),
            ("", "abc", 2, 3),  # length gap alone overflows
            ("same", "same", 0, 0),
            ("a", "b", 0, 1),  # distinct under k=0 -> 1 (= k + 1)
        ],
    )
    def test_contract_cases(self, a, b, k, expected):
        assert levenshtein(a, b, k) == expected

    def test_negative_budget(self):
        assert levenshtein("x", "y", -1) == 1
        assert levenshtein("x", "x", -1) == 0

    @given(words, words, st.integers(0, 8))
    def test_property_matches_two_row(self, a, b, k):
        """Exact when <= k, strictly above k otherwise — always."""
        exact = levenshtein_two_row(a, b)
        bounded = levenshtein(a, b, k)
        if exact <= k:
            assert bounded == exact
        else:
            assert bounded > k

    @given(words, words, st.integers(0, 8))
    def test_symmetry(self, a, b, k):
        assert levenshtein(a, b, k) == levenshtein(b, a, k)


@pytest.mark.slow
class TestBandedKernelMicrobench:
    """pytest-benchmark: the two-row DP oracle on the verify regime.

    Long near-identical strings with a tight budget is the indexed
    verify step's regime; the bounded kernel must return results
    identical to the oracle's under the early-abort contract.
    """

    A = ("the-hospital-measure-code-" * 8)[:200]
    B = A[:100] + "X" + A[101:198] + "yz"  # 3 scattered edits

    def test_two_row_baseline(self, benchmark):
        result = benchmark(levenshtein_two_row, self.A, self.B)
        assert result == 3

    def test_identical_results_under_contract(self):
        for k in range(0, 10):
            exact = levenshtein_two_row(self.A, self.B)
            bounded = levenshtein(self.A, self.B, k)
            if exact <= k:
                assert bounded == exact
            else:
                assert bounded > k


class TestNormalizedEdit:
    def test_in_unit_interval(self):
        assert normalized_edit_distance("Boston", "Boton") == pytest.approx(1 / 6)

    def test_empty_pair(self):
        assert normalized_edit_distance("", "") == 0.0

    def test_maximal_distance(self):
        assert normalized_edit_distance("aa", "zz") == 1.0

    @given(words, words)
    def test_range(self, a, b):
        assert 0.0 <= normalized_edit_distance(a, b) <= 1.0

    @given(words, words)
    def test_symmetry(self, a, b):
        assert normalized_edit_distance(a, b) == normalized_edit_distance(b, a)


class TestQgramsAndJaccard:
    def test_qgrams_padding(self):
        assert qgrams("ab", 2) == ("#a", "ab", "b$")

    def test_qgrams_empty(self):
        assert qgrams("", 2) == ()

    def test_qgrams_rejects_bad_q(self):
        with pytest.raises(ValueError):
            qgrams("ab", 0)

    def test_jaccard_identity(self):
        assert jaccard_distance("same", "same") == 0.0

    def test_jaccard_disjoint(self):
        assert jaccard_distance("aaa", "zzz") == 1.0

    @given(words, words)
    def test_jaccard_range_and_symmetry(self, a, b):
        d = jaccard_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == jaccard_distance(b, a)


class TestNormalizedEuclidean:
    def test_basic(self):
        assert normalized_euclidean(3.0, 1.0, 8.0) == 0.25

    def test_clamped(self):
        assert normalized_euclidean(0.0, 100.0, 8.0) == 1.0

    def test_zero_spread_distinct_values(self):
        assert normalized_euclidean(1.0, 2.0, 0.0) == 1.0

    def test_zero_spread_equal_values(self):
        assert normalized_euclidean(5.0, 5.0, 0.0) == 0.0

    @given(
        st.floats(-1e6, 1e6),
        st.floats(-1e6, 1e6),
        st.floats(0.001, 1e6),
    )
    def test_range_and_symmetry(self, a, b, spread):
        d = normalized_euclidean(a, b, spread)
        assert 0.0 <= d <= 1.0
        assert d == normalized_euclidean(b, a, spread)


class TestWeights:
    def test_default_is_half_half(self):
        w = Weights()
        assert w.lhs == w.rhs == 0.5

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Weights(0.7, 0.7)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Weights(-0.5, 1.5)

    def test_skewed_ok(self):
        Weights(0.0, 1.0)
        Weights(0.3, 0.7)


class TestDistanceModel:
    @pytest.fixture
    def model(self, simple_relation):
        return DistanceModel(simple_relation)

    def test_string_attribute_uses_edit_distance(self, model):
        assert model.attribute_distance("A", "x1", "x2") == pytest.approx(0.5)

    def test_numeric_attribute_uses_euclidean(self, model):
        # spread of N in the fixture is 3
        assert model.attribute_distance("N", 1.0, 2.5) == pytest.approx(0.5)

    def test_equal_values_are_zero(self, model):
        assert model.attribute_distance("A", "x1", "x1") == 0.0

    def test_cache_fills(self, model):
        model.attribute_distance("A", "x1", "x2")
        model.attribute_distance("A", "x2", "x1")
        assert model.cache_size() == 1

    def test_cache_disabled(self, simple_relation):
        model = DistanceModel(simple_relation, cache=False)
        model.attribute_distance("A", "x1", "x2")
        assert model.cache_size() == 0

    def test_override(self, simple_relation):
        model = DistanceModel(
            simple_relation, overrides={"A": lambda a, b: 0.25}
        )
        assert model.attribute_distance("A", "x1", "x2") == 0.25

    def test_override_unknown_attribute_rejected(self, simple_relation):
        with pytest.raises(KeyError):
            DistanceModel(simple_relation, overrides={"Z": lambda a, b: 0})

    def test_override_out_of_range_rejected(self, simple_relation):
        model = DistanceModel(
            simple_relation, overrides={"A": lambda a, b: 2.0}
        )
        with pytest.raises(ValueError):
            model.attribute_distance("A", "x1", "x2")

    def test_projection_distance_weighted_sum(self, model):
        # Example 5 shape: w_l*d(lhs) + w_r*d(rhs)
        d = model.projection_distance(
            ["A"], ["N"], ("x1", 1.0), ("x2", 2.5)
        )
        assert d == pytest.approx(0.5 * 0.5 + 0.5 * 0.5)

    def test_projection_distance_skewed_weights(self, simple_relation):
        model = DistanceModel(simple_relation, weights=Weights(0.0, 1.0))
        d = model.projection_distance(["A"], ["N"], ("x1", 1.0), ("x2", 2.5))
        assert d == pytest.approx(0.5)  # only the RHS counts

    def test_repair_cost_unweighted_sum(self, model):
        cost = model.repair_cost(["A", "N"], ("x1", 1.0), ("x2", 2.5))
        assert cost == pytest.approx(0.5 + 0.5)

    def test_spread_captured_at_construction(self, simple_relation):
        model = DistanceModel(simple_relation)
        simple_relation.set_value(0, "N", 1000.0)
        assert model.spread("N") == 3.0  # unchanged

    def test_example5_from_paper(self, citizens, citizens_model):
        """dist(t4^phi1, t6^phi1) = 0.5*ned(Masters, Masers) + 0."""
        d = citizens_model.projection_distance(
            ["Education"],
            ["Level"],
            ("Masters", 4.0),
            ("Masers", 4.0),
        )
        assert d == pytest.approx(0.5 * (1 / 7))
