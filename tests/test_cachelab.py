"""The recovery-cache laboratory: policy semantics, the registry, and
spec-string compilation (`repro.core.cachelab`), plus the fault-plan spec
strings that share the grammar."""

import pytest

from repro.core.cachelab import (
    CACHE_POLICIES,
    CacheError,
    CachePolicy,
    CachePolicySpec,
    LfuCache,
    LruCache,
    ProbabilisticCache,
    RecoveryPairCache,
    RecoveryTuple,
    TtlCache,
    UnboundedCache,
    compile_cache_policy,
    make_cache_policy,
)
from repro.core.policies import MostRecentLossPolicy
from repro.faults import (
    FaultSpecError,
    LinkDown,
    NodeCrash,
    compile_fault_plan,
    is_fault_spec,
    parse_fault_event,
)


def tup(seqno, q="q", d_qs=1.0, r="r", d_rq=0.5):
    return RecoveryTuple(seqno, q, d_qs, r, d_rq)


class TestPaperEquivalence:
    """`paper` must reproduce the legacy RecoveryPairCache decision
    sequence exactly — the lookup/observe template is only bookkeeping."""

    def test_paper_is_the_legacy_class(self):
        cache = make_cache_policy("paper:capacity=4")
        assert isinstance(cache, RecoveryPairCache)
        assert cache.capacity == 4

    def test_decision_sequence_matches_legacy(self):
        lab = make_cache_policy("paper:capacity=2")
        legacy = RecoveryPairCache(capacity=2)
        sequence = [
            tup(3),
            tup(5),
            tup(3, d_rq=0.1),  # improve
            tup(3, d_rq=0.9),  # noop (worse)
            tup(7),  # evict 3
            tup(1),  # reject (older than everything)
            tup(9),  # evict 5
        ]
        for cand in sequence:
            assert lab.observe(cand) == legacy.observe(cand)
        assert [e.seqno for e in lab.entries()] == [
            e.seqno for e in legacy.entries()
        ]
        assert (lab.inserts, lab.improvements, lab.rejects) == (
            legacy.inserts,
            legacy.improvements,
            legacy.rejects,
        )

    def test_lookup_is_select_plus_counters(self):
        cache = make_cache_policy("paper:capacity=4")
        policy = MostRecentLossPolicy()
        assert cache.lookup(policy) is None
        cache.observe(tup(3))
        choice = cache.lookup(policy)
        assert choice is policy.select(cache)
        assert (cache.lookups, cache.hits) == (2, 1)
        assert cache.stats()["hit_rate"] == 0.5

    def test_evictions_counter_is_replier_only(self):
        """Fault stats sum `.evictions` by attribute name: capacity churn
        must not leak into it."""
        cache = make_cache_policy("paper:capacity=1")
        cache.observe(tup(1, r="a"))
        cache.observe(tup(2, r="b"))  # capacity-evicts seqno 1
        assert cache.evictions == 0
        assert cache.capacity_evictions == 1
        assert cache.evict_replier("b") == 1
        assert cache.evictions == 1


class TestLru:
    def test_evicts_least_recently_used(self):
        cache = LruCache(capacity=2)
        cache.observe(tup(1))
        cache.observe(tup(2))
        cache.observe(tup(1, d_rq=0.1))  # touch 1 (improve)
        cache.observe(tup(3))  # 2 is LRU
        assert sorted(s.seqno for s in cache.entries()) == [1, 3]

    def test_selection_counts_as_use(self):
        cache = LruCache(capacity=2)
        cache.observe(tup(1))
        cache.observe(tup(2))
        # most-recent selects seqno 2; 1 stays LRU
        cache.lookup(MostRecentLossPolicy())
        cache.observe(tup(3))
        assert sorted(s.seqno for s in cache.entries()) == [2, 3]

    def test_admits_old_candidates(self):
        """Unlike `paper`, LRU has no reject path for stale seqnos."""
        cache = LruCache(capacity=1)
        cache.observe(tup(5))
        assert cache.observe(tup(1)) is True
        assert [e.seqno for e in cache.entries()] == [1]


class TestLfu:
    def test_evicts_least_frequent(self):
        cache = LfuCache(capacity=2)
        cache.observe(tup(1))
        cache.observe(tup(1, d_rq=0.4))
        cache.observe(tup(1, d_rq=0.3))  # freq(1) = 3
        cache.observe(tup(2))  # freq(2) = 1
        cache.observe(tup(3))  # evicts 2
        assert sorted(s.seqno for s in cache.entries()) == [1, 3]

    def test_ties_break_toward_oldest(self):
        cache = LfuCache(capacity=2)
        cache.observe(tup(4))
        cache.observe(tup(2))  # same freq; 2 is older
        cache.observe(tup(9))
        assert sorted(s.seqno for s in cache.entries()) == [4, 9]


class TestTtl:
    def test_expires_untouched_entries(self):
        cache = TtlCache(capacity=4, ttl=10.0)
        cache.observe(tup(1), now=0.0)
        cache.observe(tup(2), now=5.0)
        cache.observe(tup(3), now=11.0)  # deadline(1) = 10 <= 11
        assert sorted(s.seqno for s in cache.entries()) == [2, 3]
        assert cache.expirations == 1

    def test_touch_extends_the_deadline(self):
        cache = TtlCache(capacity=4, ttl=10.0)
        cache.observe(tup(1), now=0.0)
        cache.observe(tup(1, d_rq=0.1), now=8.0)  # improve touches
        cache.observe(tup(2), now=12.0)
        assert sorted(s.seqno for s in cache.entries()) == [1, 2]

    def test_lookup_expires_too(self):
        cache = TtlCache(capacity=4, ttl=1.0)
        cache.observe(tup(1), now=0.0)
        assert cache.lookup(MostRecentLossPolicy(), now=5.0) is None
        assert len(cache) == 0

    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError, match="ttl must be > 0"):
            TtlCache(ttl=0.0)


class TestProb:
    def test_p1_always_admits(self):
        cache = ProbabilisticCache(capacity=4, p=1.0, seed=0)
        for s in range(4):
            assert cache.observe(tup(s)) is True
        assert cache.rejects == 0

    def test_p0_rejects_new_but_improves_existing(self):
        cache = ProbabilisticCache(capacity=4, p=1.0, seed=0)
        cache.observe(tup(1))
        cache.p = 0.0
        assert cache.observe(tup(2)) is False
        assert cache.rejects == 1
        assert cache.observe(tup(1, d_rq=0.1)) is True  # improvement
        assert cache.improvements == 1

    def test_admission_is_seed_deterministic(self):
        def outcomes(seed):
            c = ProbabilisticCache(capacity=64, p=0.5, seed=seed)
            return [c.observe(tup(s)) for s in range(32)]

        assert outcomes(7) == outcomes(7)
        assert outcomes(7) != outcomes(8)

    def test_p_range_validated(self):
        with pytest.raises(ValueError, match="p must be in"):
            ProbabilisticCache(p=1.5)


class TestUnbounded:
    def test_never_evicts(self):
        cache = UnboundedCache()
        for s in range(100):
            cache.observe(tup(s))
        assert len(cache) == 100
        assert cache.capacity_evictions == 0
        assert cache.stats()["capacity"] is None


class TestRegistryAndSpecs:
    def test_builtins_registered(self):
        assert CACHE_POLICIES.names() == (
            "paper",
            "lru",
            "lfu",
            "ttl",
            "prob",
            "unbounded",
        )
        assert {s.name for s in CACHE_POLICIES.specs()} == set(
            CACHE_POLICIES.names()
        )

    def test_unknown_family(self):
        with pytest.raises(CacheError, match="unknown cache policy 'arc'"):
            compile_cache_policy("arc:capacity=16")

    def test_unknown_parameter(self):
        with pytest.raises(
            CacheError, match=r"unknown parameter\(s\) \['weight'\]"
        ):
            compile_cache_policy("lru:capacity=4,weight=2")

    def test_bad_values(self):
        with pytest.raises(CacheError, match="is not an integer"):
            compile_cache_policy("paper:capacity=big")
        with pytest.raises(CacheError, match="capacity=0 must be >= 1"):
            compile_cache_policy("paper:capacity=0")
        with pytest.raises(CacheError, match="must be <= 1"):
            compile_cache_policy("prob:p=1.5")

    def test_grammar_errors_are_cache_errors(self):
        with pytest.raises(CacheError, match="empty cache policy spec"):
            compile_cache_policy("")
        with pytest.raises(CacheError, match="trailing ':'"):
            compile_cache_policy("lru:")

    def test_canonical_spec(self):
        compiled = compile_cache_policy("ttl:ttl=30s,capacity=8")
        assert compiled.spec == "ttl:capacity=8,ttl=30s"
        assert compile_cache_policy("unbounded").spec == "unbounded"

    def test_make_stamps_the_canonical_spec(self):
        cache = make_cache_policy("lru:capacity=4")
        assert cache.spec == "lru:capacity=4"
        assert cache.stats()["spec"] == "lru:capacity=4"

    def test_ttl_suffix_parses(self):
        cache = make_cache_policy("ttl:capacity=4,ttl=500ms")
        assert isinstance(cache, TtlCache)
        assert cache.ttl == pytest.approx(0.5)

    def test_prob_rng_isolated_per_host_source(self):
        compiled = compile_cache_policy("prob:capacity=8,p=0.5")

        def outcomes(host, source, seed=3):
            c = compiled.make(seed=seed, host=host, source=source)
            return [c.observe(tup(s)) for s in range(32)]

        assert outcomes("r1", "s") == outcomes("r1", "s")
        assert outcomes("r1", "s") != outcomes("r2", "s")
        assert outcomes("r1", "s", seed=3) != outcomes("r1", "s", seed=4)

    def test_register_custom_policy(self):
        class FifoCache(CachePolicy):
            family = "test-fifo"

            def __init__(self, capacity=16):
                super().__init__(capacity)
                self._order = []

            def _touch(self, seqno, now):
                if seqno not in self._order:
                    self._order.append(seqno)

            def _forget(self, seqno):
                if seqno in self._order:
                    self._order.remove(seqno)

            def _victim(self, candidate):
                return self._order[0]

        def factory(params):
            from repro.harness.specstr import int_param, reject_unknown

            capacity = int_param(
                params, "cache policy 'test-fifo'", "capacity", 16,
                error=CacheError,
            )
            reject_unknown(params, "cache policy 'test-fifo'", CacheError)
            return lambda seed=0, host="", source="": FifoCache(capacity)

        CACHE_POLICIES.register(
            CachePolicySpec(name="test-fifo", factory=factory)
        )
        try:
            cache = make_cache_policy("test-fifo:capacity=2")
            cache.observe(tup(5))
            cache.observe(tup(1))
            cache.observe(tup(3))  # FIFO evicts 5, not min-seqno 1
            assert sorted(s.seqno for s in cache.entries()) == [1, 3]
            with pytest.raises(CacheError, match="already registered"):
                CACHE_POLICIES.register(
                    CachePolicySpec(name="test-fifo", factory=factory)
                )
        finally:
            CACHE_POLICIES.unregister("test-fifo")
        with pytest.raises(CacheError, match="unknown cache policy"):
            CACHE_POLICIES.get("test-fifo")


class TestFaultSpecStrings:
    def test_is_fault_spec(self):
        assert is_fault_spec("node-crash:host=r2,at=5")
        assert is_fault_spec("link-down:u=a,v=b,at=1;node-crash:host=r2,at=5")
        assert not is_fault_spec("plan.json")
        assert not is_fault_spec("zipf:alpha=1.1")

    def test_parse_event(self):
        event = parse_fault_event("node-crash:host=r2,at=5s,restart_after=3s")
        assert isinstance(event, NodeCrash)
        assert (event.host, event.at, event.restart_after) == ("r2", 5.0, 3.0)

    def test_compile_plan(self):
        plan = compile_fault_plan(
            "link-down:u=a,v=b,at=1,duration=2;node-crash:host=r2,at=5"
        )
        assert len(plan.events) == 2
        assert isinstance(plan.events[0], LinkDown)
        assert isinstance(plan.events[1], NodeCrash)
        # the plan round-trips through the existing JSON wire format
        from repro.faults import FaultPlan

        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_errors(self):
        with pytest.raises(FaultSpecError, match="unknown fault 'meteor'"):
            parse_fault_event("meteor:at=1")
        with pytest.raises(
            FaultSpecError, match=r"missing required parameter\(s\) \['host'\]"
        ):
            parse_fault_event("node-crash:at=5")
        with pytest.raises(
            FaultSpecError, match=r"unknown parameter\(s\) \['blast'\]"
        ):
            parse_fault_event("node-crash:host=r2,at=5,blast=1")
        with pytest.raises(FaultSpecError, match="is not a number"):
            parse_fault_event("node-crash:host=r2,at=noon")
        with pytest.raises(FaultSpecError, match="empty fault spec"):
            compile_fault_plan("  ")
