"""Tests for the q-gram filter machinery."""

from hypothesis import given, strategies as st

from repro.core.distances import levenshtein
from repro.index.qgram import passes_count_filter, qgram_overlap

words = st.text(alphabet="abcde", max_size=10)


class TestOverlap:
    def test_identical(self):
        assert qgram_overlap("abc", "abc") == 4  # #a ab bc c$

    def test_disjoint(self):
        assert qgram_overlap("aaa", "zzz") == 0

    def test_multiset_semantics(self):
        # 'aaaa' has gram 'aa' three times, 'aa' has it once
        assert qgram_overlap("aaaa", "aa") >= 3


class TestCountFilter:
    def test_never_rejects_true_match(self):
        assert passes_count_filter("Boston", "Boton", 1)

    def test_rejects_distant_pair(self):
        assert not passes_count_filter("aaaaaaaa", "zzzzzzzz", 1)

    def test_negative_edits_means_equality(self):
        assert passes_count_filter("x", "x", -1)
        assert not passes_count_filter("x", "y", -1)

    @given(words, words, st.integers(0, 5))
    def test_soundness(self, a, b, k):
        """The filter may only reject pairs whose distance exceeds k."""
        if levenshtein(a, b) <= k:
            assert passes_count_filter(a, b, k)
