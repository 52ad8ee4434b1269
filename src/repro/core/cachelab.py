"""The recovery-cache laboratory: pluggable per-source tuple caches.

CESRM's contribution *is* a cache: each receiver keeps, per source, the
requestor/replier pairs that carried out the recovery of its recent
losses, as §3.1 tuples ``⟨i, q, d_qs, r, d_rq⟩`` (packet sequence
number, requestor, requestor's distance to the source, replier, and
replier's distance to the requestor), retaining per packet only the
*optimal* pair — the one minimizing the **recovery delay**
``d_qs + 2·d_rq``.

The paper fixes one replacement scheme (seqno-recency eviction at a
fixed capacity, §3.1's update rules).  This module generalizes it — the
ROADMAP's §4.3-extension item — behind a narrow policy protocol
(``observe / lookup / evict_replier / entries / stats``) with a
:class:`CachePolicySpec` registry mirroring ``ProtocolSpec`` /
``WorkloadSpec``.  Spec strings use the shared
:mod:`repro.harness.specstr` grammar:

``paper:capacity=16``
    Today's behavior and the default: evict the least recent packet's
    tuple when full; reject candidates older than everything cached.
``lru:capacity=16``
    Evict the least recently *used* entry (inserts, improvements, and
    selections all count as use) — Jain's address-locality comparison
    shows LRU tracking temporal locality that FIFO-by-seqno misses.
``lfu:capacity=16``
    Evict the least frequently used entry (ties break toward the oldest
    packet).
``ttl:capacity=16,ttl=30s``
    Paper eviction plus time-to-live decay: entries untouched for
    ``ttl`` seconds expire — cached state goes stale when the tree
    reconfigures (Jain's out-of-order caching analysis).
``prob:capacity=16,p=0.5``
    Paper eviction with probabilistic insertion à la ProbCache: a new
    tuple is admitted with probability ``p`` (improvements to already
    cached packets always apply).  Draws come from a dedicated RNG
    derived from ``(run seed, host, source, spec)`` so admission noise
    never perturbs the protocol's own jitter streams.
``unbounded``
    No capacity, no eviction — the frontier's upper bound.

The update rules shared by every policy (§3.1): a candidate for an
already cached packet replaces it only if strictly better; a candidate
for a new packet is admitted, evicting a policy-chosen victim when full.
Counters keep their legacy names (``inserts`` / ``improvements`` /
``rejects`` / ``evictions``) — ``evictions`` counts *replier* evictions
(crash relearning, what fault stats always reported) while capacity and
TTL churn get their own ``capacity_evictions`` / ``expirations``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, TYPE_CHECKING

from repro.harness.registries import Registry
from repro.harness.specstr import (
    canonical_spec,
    float_param,
    int_param,
    reject_unknown,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.policies import SelectionPolicy


class CacheError(ValueError):
    """Raised for malformed cache-policy spec strings, unknown families
    or parameters, and invalid policy configurations."""


# ----------------------------------------------------------------------
# The cached tuple (§3.1)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecoveryTuple:
    """One cached recovery: ``⟨i, q, d_qs, r, d_rq⟩`` (§3.1), optionally
    extended with the §3.3 turning-point router annotation."""

    seqno: int
    requestor: str
    requestor_to_source: float
    replier: str
    replier_to_requestor: float
    turning_point: str | None = None

    @property
    def recovery_delay(self) -> float:
        """The §3.1 optimality metric ``d_qs + 2·d_rq``."""
        return self.requestor_to_source + 2.0 * self.replier_to_requestor

    @property
    def pair(self) -> tuple[str, str]:
        """The requestor/replier pair."""
        return (self.requestor, self.replier)


# ----------------------------------------------------------------------
# The policy protocol
# ----------------------------------------------------------------------
class CachePolicy:
    """Base class for per-source recovery-tuple caches.

    The narrow protocol the agent and harness rely on is
    ``observe / lookup / evict_replier / entries / stats``; the query
    helpers (``most_recent`` / ``pair_frequencies`` / ``get``) keep the
    §3.2 :class:`~repro.core.policies.SelectionPolicy` implementations
    working unchanged against any policy.

    Subclasses customize replacement through three hooks:
    :meth:`_admit` (may refuse a brand-new candidate), :meth:`_victim`
    (chooses the entry to evict when full, or refuses the candidate),
    and :meth:`_touch` / :meth:`_forget` / :meth:`_expire` (recency /
    frequency / decay bookkeeping).

    "Recency" in the default policy is packet sequence order: the least
    recent packet is the one with the smallest sequence number (the
    transmission is in sequence order, so sequence order is loss order).
    """

    #: Registry family name (the spec string's ``family`` part).
    family: str = "abstract"

    def __init__(self, capacity: int | None = 16) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._entries: dict[int, RecoveryTuple] = {}
        self.inserts = 0
        self.improvements = 0
        self.rejects = 0
        #: Replier evictions (crash relearning) — the legacy meaning of
        #: ``evictions``; fault stats sum this attribute by name.
        self.evictions = 0
        #: Entries displaced to make room (never counted in ``evictions``).
        self.capacity_evictions = 0
        #: Entries dropped by TTL decay.
        self.expirations = 0
        self.lookups = 0
        self.hits = 0
        #: What the last ``observe`` did ("insert" / "improve" /
        #: "reject" / "noop") and which seqno it displaced, if any —
        #: read by the agent to emit ``cache.insert`` / ``cache.evict``
        #: events without widening ``observe``'s bool return.
        self.last_outcome: str = ""
        self.last_evicted: int | None = None
        self.spec: str = self.family

    # -- queries (shared by every policy; selection policies use these) --
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, seqno: int) -> bool:
        return seqno in self._entries

    def get(self, seqno: int) -> RecoveryTuple | None:
        return self._entries.get(seqno)

    def entries(self) -> list[RecoveryTuple]:
        """Cached tuples, most recent packet first."""
        return [self._entries[s] for s in sorted(self._entries, reverse=True)]

    def most_recent(self) -> RecoveryTuple | None:
        """The tuple of the most recent recovered loss, if any."""
        if not self._entries:
            return None
        return self._entries[max(self._entries)]

    def pair_frequencies(self) -> dict[tuple[str, str], int]:
        """How often each requestor/replier pair appears in the cache."""
        freq: dict[tuple[str, str], int] = {}
        for entry in self._entries.values():
            freq[entry.pair] = freq.get(entry.pair, 0) + 1
        return freq

    def clear(self) -> None:
        for seqno in list(self._entries):
            self._forget(seqno)
        self._entries.clear()

    # -- the update rules (§3.1 skeleton, policy-specific replacement) --
    def observe(self, candidate: RecoveryTuple, now: float = 0.0) -> bool:
        """Apply the §3.1 update rules for a reply's recovery tuple.

        The caller is responsible for the "host suffered this loss"
        check.  Returns True if the cache changed.
        """
        self._expire(now)
        self.last_evicted = None
        seqno = candidate.seqno
        existing = self._entries.get(seqno)
        if existing is not None:
            if candidate.recovery_delay < existing.recovery_delay:
                self._entries[seqno] = candidate
                self.improvements += 1
                self._touch(seqno, now)
                self.last_outcome = "improve"
                return True
            self.last_outcome = "noop"
            return False
        if not self._admit(candidate, now):
            self.rejects += 1
            self.last_outcome = "reject"
            return False
        if self.capacity is not None and len(self._entries) >= self.capacity:
            victim = self._victim(candidate)
            if victim is None:
                self.rejects += 1
                self.last_outcome = "reject"
                return False
            del self._entries[victim]
            self._forget(victim)
            self.capacity_evictions += 1
            self.last_evicted = victim
        self._entries[seqno] = candidate
        self.inserts += 1
        self._touch(seqno, now)
        self.last_outcome = "insert"
        return True

    def lookup(
        self, policy: "SelectionPolicy", now: float = 0.0
    ) -> RecoveryTuple | None:
        """Run a §3.2 selection policy over the live entries, counting
        hit rate and touching the chosen entry's recency/frequency."""
        self._expire(now)
        self.lookups += 1
        choice = policy.select(self)
        if choice is not None:
            self.hits += 1
            self._touch(choice.seqno, now)
        return choice

    def evict_replier(self, host: str) -> int:
        """Drop every cached tuple whose replier is ``host`` (observed
        failing to serve an expedited request).  Returns how many entries
        were evicted; the pair must then be relearned from live replies.
        """
        stale = [
            seqno
            for seqno, entry in self._entries.items()
            if entry.replier == host
        ]
        for seqno in stale:
            del self._entries[seqno]
            self._forget(seqno)
        self.evictions += len(stale)
        return len(stale)

    def stats(self) -> dict:
        """The per-policy counters summaries and sweep rows record."""
        return {
            "policy": self.family,
            "spec": self.spec,
            "capacity": self.capacity,
            "entries": len(self._entries),
            "inserts": self.inserts,
            "improvements": self.improvements,
            "rejects": self.rejects,
            "capacity_evictions": self.capacity_evictions,
            "replier_evictions": self.evictions,
            "expirations": self.expirations,
            "lookups": self.lookups,
            "hits": self.hits,
            "hit_rate": round(self.hits / self.lookups, 6) if self.lookups else 0.0,
        }

    # -- replacement hooks ------------------------------------------------
    def _admit(self, candidate: RecoveryTuple, now: float) -> bool:
        """May refuse a brand-new candidate before capacity is checked."""
        return True

    def _victim(self, candidate: RecoveryTuple) -> int | None:
        """The seqno to evict to make room, or None to refuse the
        candidate instead.  Only called when the cache is full."""
        raise NotImplementedError

    def _touch(self, seqno: int, now: float) -> None:
        """Recency/frequency bookkeeping on insert/improve/selection."""

    def _forget(self, seqno: int) -> None:
        """Drop bookkeeping for an entry leaving the cache."""

    def _expire(self, now: float) -> None:
        """Drop decayed entries (TTL policies)."""


class RecoveryPairCache(CachePolicy):
    """The paper's policy (§3.1): recency is packet sequence order; when
    full, the least recent packet's tuple is evicted — unless the
    candidate itself is older than everything cached, in which case it
    is rejected."""

    family = "paper"

    def __init__(self, capacity: int = 16) -> None:
        super().__init__(capacity)
        self.spec = f"paper:capacity={capacity}"

    def _victim(self, candidate: RecoveryTuple) -> int | None:
        oldest = min(self._entries)
        if candidate.seqno < oldest:
            return None  # less recent than everything cached
        return oldest


class LruCache(CachePolicy):
    """Evict the least recently *used* entry.  Use = insert, improve, or
    being chosen by the selection policy; candidates are always
    admitted (no reject path)."""

    family = "lru"

    def __init__(self, capacity: int = 16) -> None:
        super().__init__(capacity)
        self.spec = f"lru:capacity={capacity}"
        self._tick = 0
        self._stamp: dict[int, int] = {}

    def _touch(self, seqno: int, now: float) -> None:
        self._tick += 1
        self._stamp[seqno] = self._tick

    def _forget(self, seqno: int) -> None:
        self._stamp.pop(seqno, None)

    def _victim(self, candidate: RecoveryTuple) -> int | None:
        return min(self._entries, key=lambda s: self._stamp.get(s, 0))


class LfuCache(CachePolicy):
    """Evict the least frequently used entry (ties break toward the
    oldest packet).  Use = insert, improve, or selection."""

    family = "lfu"

    def __init__(self, capacity: int = 16) -> None:
        super().__init__(capacity)
        self.spec = f"lfu:capacity={capacity}"
        self._freq: dict[int, int] = {}

    def _touch(self, seqno: int, now: float) -> None:
        self._freq[seqno] = self._freq.get(seqno, 0) + 1

    def _forget(self, seqno: int) -> None:
        self._freq.pop(seqno, None)

    def _victim(self, candidate: RecoveryTuple) -> int | None:
        return min(self._entries, key=lambda s: (self._freq.get(s, 0), s))


class TtlCache(RecoveryPairCache):
    """Paper eviction plus TTL decay: an entry untouched for ``ttl``
    seconds of simulated time expires at the next observe/lookup."""

    family = "ttl"

    def __init__(self, capacity: int = 16, ttl: float = 30.0) -> None:
        if not ttl > 0.0:
            raise ValueError(f"ttl must be > 0, got {ttl!r}")
        super().__init__(capacity)
        self.ttl = ttl
        self.spec = f"ttl:capacity={capacity},ttl={ttl:g}s"
        self._deadline: dict[int, float] = {}

    def _touch(self, seqno: int, now: float) -> None:
        self._deadline[seqno] = now + self.ttl

    def _forget(self, seqno: int) -> None:
        self._deadline.pop(seqno, None)

    def _expire(self, now: float) -> None:
        stale = [
            seqno
            for seqno, deadline in self._deadline.items()
            if deadline <= now
        ]
        for seqno in stale:
            del self._entries[seqno]
            del self._deadline[seqno]
        self.expirations += len(stale)


class ProbabilisticCache(RecoveryPairCache):
    """Paper eviction with probabilistic insertion (ProbCache's idea
    applied to recovery pairs): a brand-new tuple is admitted with
    probability ``p``; improvements always apply.

    Admission draws come from a dedicated :class:`random.Random` seeded
    from ``(run seed, host, source, spec)`` — never from the agent's
    protocol streams, so enabling ``prob`` cannot perturb SRM timer
    jitter.
    """

    family = "prob"

    def __init__(self, capacity: int = 16, p: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p!r}")
        super().__init__(capacity)
        self.p = p
        self.spec = f"prob:capacity={capacity},p={p:g}"
        self._rng = random.Random(seed)

    def _admit(self, candidate: RecoveryTuple, now: float) -> bool:
        return self._rng.random() < self.p if self.p < 1.0 else True


class UnboundedCache(CachePolicy):
    """No capacity, no eviction — the frontier's upper bound (and the
    memory cost the paper's fixed capacity exists to avoid)."""

    family = "unbounded"

    def __init__(self) -> None:
        super().__init__(capacity=None)
        self.spec = "unbounded"

    def _victim(self, candidate: RecoveryTuple) -> int | None:  # pragma: no cover
        raise AssertionError("unbounded cache never evicts")


# ----------------------------------------------------------------------
# The CachePolicySpec registry
# ----------------------------------------------------------------------
#: ``make(seed=..., host=..., source=...)`` — builds one per-(host,
#: source) cache instance.
PolicyMaker = Callable[..., CachePolicy]

#: ``factory(params)`` — validates raw spec parameters once, returns a
#: :data:`PolicyMaker`; must raise :class:`CacheError` on bad values.
PolicyFactory = Callable[[dict], PolicyMaker]


@dataclass(frozen=True)
class CachePolicySpec:
    """Everything the harness needs to run one cache-policy family."""

    #: Registry name (the spec string's ``family`` part).
    name: str
    #: Builds a maker from the raw ``key=value`` parameter mapping.
    factory: PolicyFactory
    #: One-line description for ``cesrm caches`` listings.
    description: str = ""
    #: Documented parameters: ``name -> "default — meaning"``.
    params_doc: Mapping[str, str] = field(default_factory=dict)
    #: Extra metadata for listings and experiments.
    tags: tuple[str, ...] = field(default=())


#: The cache-policy surface (see :mod:`repro.harness.registries`).
CACHE_POLICIES: Registry[CachePolicySpec] = Registry(
    "cache policy", error=CacheError
)


class CompiledCachePolicy:
    """A validated family + parameters pair that can build the
    per-(host, source) cache instances of one run."""

    def __init__(self, family: str, params: Mapping[str, str], maker: PolicyMaker):
        self.family = family
        self.params = dict(params)
        self._maker = maker

    @property
    def spec(self) -> str:
        """The canonical spec string (what digests and summaries record)."""
        return canonical_spec(self.family, self.params)

    def make(self, seed: int = 0, host: str = "", source: str = "") -> CachePolicy:
        """One cache instance for ``host``'s view of ``source``."""
        cache = self._maker(seed=seed, host=host, source=source)
        cache.spec = self.spec
        return cache

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CompiledCachePolicy({self.spec!r})"


def compile_cache_policy(spec: str) -> CompiledCachePolicy:
    """Parse and validate ``spec`` into a :class:`CompiledCachePolicy`
    (the single validation point — ``SimulationConfig``, the sweep
    compiler, and the CLI all call this, so a typo fails before any
    simulation starts)."""
    cs, params = CACHE_POLICIES.resolve(spec)
    return CompiledCachePolicy(cs.name, params, cs.factory(dict(params)))


def make_cache_policy(
    spec: str, seed: int = 0, host: str = "", source: str = ""
) -> CachePolicy:
    """Compile ``spec`` and build one cache instance from it."""
    return compile_cache_policy(spec).make(seed=seed, host=host, source=source)


def _derive_seed(seed: int, host: str, source: str, spec: str) -> int:
    """A per-(run, host, source, spec) admission-RNG seed, isolated from
    every protocol stream by construction."""
    text = f"cachelab|{seed}|{host}|{source}|{spec}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


# ----------------------------------------------------------------------
# Built-in families
# ----------------------------------------------------------------------
def _capacity(params: dict, where: str) -> int:
    return int_param(params, where, "capacity", 16, error=CacheError)


def _paper_factory(params: dict) -> PolicyMaker:
    where = "cache policy 'paper'"
    capacity = _capacity(params, where)
    reject_unknown(params, where, CacheError)

    def make(seed: int = 0, host: str = "", source: str = "") -> CachePolicy:
        return RecoveryPairCache(capacity)

    return make


def _lru_factory(params: dict) -> PolicyMaker:
    where = "cache policy 'lru'"
    capacity = _capacity(params, where)
    reject_unknown(params, where, CacheError)

    def make(seed: int = 0, host: str = "", source: str = "") -> CachePolicy:
        return LruCache(capacity)

    return make


def _lfu_factory(params: dict) -> PolicyMaker:
    where = "cache policy 'lfu'"
    capacity = _capacity(params, where)
    reject_unknown(params, where, CacheError)

    def make(seed: int = 0, host: str = "", source: str = "") -> CachePolicy:
        return LfuCache(capacity)

    return make


def _ttl_factory(params: dict) -> PolicyMaker:
    where = "cache policy 'ttl'"
    capacity = _capacity(params, where)
    ttl = float_param(params, where, "ttl", 30.0, minimum=1e-9, error=CacheError)
    reject_unknown(params, where, CacheError)

    def make(seed: int = 0, host: str = "", source: str = "") -> CachePolicy:
        return TtlCache(capacity, ttl)

    return make


def _prob_factory(params: dict) -> PolicyMaker:
    where = "cache policy 'prob'"
    canonical = canonical_spec("prob", params)
    capacity = _capacity(params, where)
    p = float_param(params, where, "p", 0.5, minimum=0.0, error=CacheError)
    if p > 1.0:
        raise CacheError(f"{where}: p={p!r} must be <= 1")
    reject_unknown(params, where, CacheError)

    def make(seed: int = 0, host: str = "", source: str = "") -> CachePolicy:
        return ProbabilisticCache(
            capacity, p, seed=_derive_seed(seed, host, source, canonical)
        )

    return make


def _unbounded_factory(params: dict) -> PolicyMaker:
    reject_unknown(params, "cache policy 'unbounded'", CacheError)

    def make(seed: int = 0, host: str = "", source: str = "") -> CachePolicy:
        return UnboundedCache()

    return make


CACHE_POLICIES.register(
    CachePolicySpec(
        name="paper",
        factory=_paper_factory,
        description="§3.1 seqno-recency eviction (the default; byte-identical "
        "to the pre-cachelab cache)",
        params_doc={"capacity": "16 — max cached tuples per source"},
        tags=("paper", "default"),
    )
)
CACHE_POLICIES.register(
    CachePolicySpec(
        name="lru",
        factory=_lru_factory,
        description="evict the least recently used entry (use = insert / "
        "improve / selection)",
        params_doc={"capacity": "16 — max cached tuples per source"},
        tags=("locality",),
    )
)
CACHE_POLICIES.register(
    CachePolicySpec(
        name="lfu",
        factory=_lfu_factory,
        description="evict the least frequently used entry (ties toward the "
        "oldest packet)",
        params_doc={"capacity": "16 — max cached tuples per source"},
        tags=("locality",),
    )
)
CACHE_POLICIES.register(
    CachePolicySpec(
        name="ttl",
        factory=_ttl_factory,
        description="paper eviction plus time-to-live decay of untouched "
        "entries",
        params_doc={
            "capacity": "16 — max cached tuples per source",
            "ttl": "30s — seconds of simulated time before an untouched "
            "entry expires",
        },
        tags=("decay",),
    )
)
CACHE_POLICIES.register(
    CachePolicySpec(
        name="prob",
        factory=_prob_factory,
        description="paper eviction with probabilistic insertion "
        "(ProbCache-style admission)",
        params_doc={
            "capacity": "16 — max cached tuples per source",
            "p": "0.5 — admission probability for brand-new tuples",
        },
        tags=("admission",),
    )
)
CACHE_POLICIES.register(
    CachePolicySpec(
        name="unbounded",
        factory=_unbounded_factory,
        description="no capacity, no eviction — the frontier's upper bound",
        tags=("bound",),
    )
)


__all__ = [
    "CACHE_POLICIES",
    "CacheError",
    "CachePolicy",
    "CachePolicySpec",
    "CompiledCachePolicy",
    "LfuCache",
    "LruCache",
    "PolicyFactory",
    "PolicyMaker",
    "ProbabilisticCache",
    "RecoveryPairCache",
    "RecoveryTuple",
    "TtlCache",
    "UnboundedCache",
    "compile_cache_policy",
    "make_cache_policy",
]
