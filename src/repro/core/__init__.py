"""CESRM — the Caching-Enhanced Scalable Reliable Multicast protocol (§3).

CESRM augments SRM with a *caching-based expedited recovery scheme* that
runs in parallel with SRM's scheme.  Each receiver caches the optimal
requestor/replier pair that carried out the recovery of its recent losses
(:mod:`repro.core.cachelab` — a pluggable policy laboratory whose default
``paper`` policy is §3.1's cache); on a new loss a selection policy
(:mod:`repro.core.policies`) picks the *expeditious* pair, and if the host
itself is the expeditious requestor it unicasts an undelayed expedited
request to the expeditious replier, which immediately multicasts the repair
(:mod:`repro.core.agent`).  When routers offer turning-point annotation and
subcast, expedited replies become localized (:mod:`repro.core.router_assist`,
§3.3).
"""

from repro.core.cachelab import (
    CACHE_POLICIES,
    CacheError,
    CachePolicy,
    CachePolicySpec,
    CompiledCachePolicy,
    RecoveryTuple,
    RecoveryPairCache,
    compile_cache_policy,
    make_cache_policy,
)
from repro.core.policies import (
    SELECTION_POLICIES,
    SelectionPolicy,
    MostRecentLossPolicy,
    MostFrequentLossPolicy,
    make_policy,
    register_policy,
)
from repro.core.agent import CesrmAgent
from repro.core.router_assist import RouterAssistedCesrmAgent

__all__ = [
    "CACHE_POLICIES",
    "CacheError",
    "CachePolicy",
    "CachePolicySpec",
    "CompiledCachePolicy",
    "RecoveryTuple",
    "RecoveryPairCache",
    "compile_cache_policy",
    "make_cache_policy",
    "SELECTION_POLICIES",
    "SelectionPolicy",
    "MostRecentLossPolicy",
    "MostFrequentLossPolicy",
    "make_policy",
    "register_policy",
    "CesrmAgent",
    "RouterAssistedCesrmAgent",
]
