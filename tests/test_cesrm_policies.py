"""Tests for expeditious-pair selection policies (§3.2)."""

import pytest

from repro.core.cachelab import RecoveryPairCache, RecoveryTuple
from repro.core.policies import (
    SELECTION_POLICIES,
    MostFrequentLossPolicy,
    MostRecentLossPolicy,
    SelectionPolicy,
    make_policy,
    register_policy,
)


def tup(seq, q="q", r="r", d_qs=0.1, d_rq=0.05):
    return RecoveryTuple(seq, q, d_qs, r, d_rq)


class TestMostRecent:
    def test_selects_highest_seq(self):
        cache = RecoveryPairCache()
        cache.observe(tup(1, q="old"))
        cache.observe(tup(9, q="new"))
        cache.observe(tup(5, q="mid"))
        assert MostRecentLossPolicy().select(cache).requestor == "new"

    def test_empty_cache(self):
        assert MostRecentLossPolicy().select(RecoveryPairCache()) is None


class TestMostFrequent:
    def test_selects_most_frequent_pair(self):
        cache = RecoveryPairCache(capacity=8)
        cache.observe(tup(1, q="a", r="x"))
        cache.observe(tup(2, q="a", r="x"))
        cache.observe(tup(3, q="b", r="y"))
        choice = MostFrequentLossPolicy().select(cache)
        assert choice.pair == ("a", "x")

    def test_tie_breaks_toward_recency(self):
        cache = RecoveryPairCache(capacity=8)
        cache.observe(tup(1, q="a", r="x"))
        cache.observe(tup(2, q="b", r="y"))  # tie 1-1; b is more recent
        choice = MostFrequentLossPolicy().select(cache)
        assert choice.pair == ("b", "y")

    def test_returns_most_recent_tuple_of_winning_pair(self):
        cache = RecoveryPairCache(capacity=8)
        cache.observe(tup(1, q="a", r="x", d_rq=0.5))
        cache.observe(tup(7, q="a", r="x", d_rq=0.1))
        choice = MostFrequentLossPolicy().select(cache)
        assert choice.seqno == 7

    def test_empty_cache(self):
        assert MostFrequentLossPolicy().select(RecoveryPairCache()) is None


class TestRegistry:
    def test_builtin_names(self):
        assert "most-recent" in SELECTION_POLICIES.names()
        assert "most-frequent" in SELECTION_POLICIES.names()

    def test_make_policy(self):
        assert isinstance(make_policy("most-recent"), MostRecentLossPolicy)
        assert isinstance(make_policy("most-frequent"), MostFrequentLossPolicy)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("nope")

    def test_register_custom_policy(self):
        @register_policy
        class OldestPolicy(SelectionPolicy):
            name = "test-oldest"

            def select(self, cache):
                entries = cache.entries()
                return entries[-1] if entries else None

        try:
            policy = make_policy("test-oldest")
            cache = RecoveryPairCache()
            cache.observe(tup(3, q="new"))
            cache.observe(tup(1, q="old"))
            assert policy.select(cache).requestor == "old"
        finally:
            SELECTION_POLICIES.unregister("test-oldest")

    def test_register_requires_name(self):
        with pytest.raises(ValueError):

            @register_policy
            class Nameless(SelectionPolicy):
                name = "abstract"

                def select(self, cache):
                    return None
