"""Expeditious requestor/replier selection policies (§3.2).

Given the cache of optimal recovery tuples, a policy picks the pair to
carry out the expedited recovery of a new loss.  The paper defines two:

* **most recent loss** — the optimal pair of the most recent packet the
  host lost and has since recovered.  The paper's simulations use this one
  (§4.3): loss location correlates most strongly with the most recent
  loss, and a single-entry cache suffices.
* **most frequent loss** — the pair appearing most frequently among the
  cached tuples.

The interface is open: "other more sophisticated policies … may indeed be
more effective" (§3.2), so downstream users can implement
:class:`SelectionPolicy` themselves.
"""

from __future__ import annotations

import abc

from repro.core.cachelab import CachePolicy, RecoveryTuple
from repro.harness.registries import Registry


class SelectionPolicy(abc.ABC):
    """Strategy for choosing the expeditious recovery pair."""

    name: str = "abstract"

    @abc.abstractmethod
    def select(self, cache: CachePolicy) -> RecoveryTuple | None:
        """The expeditious recovery tuple, or None when the cache offers
        no usable pair (then only SRM's scheme runs for this loss)."""


class MostRecentLossPolicy(SelectionPolicy):
    """§3.2's *most recent loss* policy (used by the paper's simulations)."""

    name = "most-recent"

    def select(self, cache: CachePolicy) -> RecoveryTuple | None:
        return cache.most_recent()


class MostFrequentLossPolicy(SelectionPolicy):
    """§3.2's *most frequent loss* policy.

    Among the pairs appearing most frequently in the cache, ties break
    toward the pair whose most recent tuple is most recent; the tuple
    returned is that pair's most recent cached tuple.
    """

    name = "most-frequent"

    def select(self, cache: CachePolicy) -> RecoveryTuple | None:
        entries = cache.entries()  # most recent first
        if not entries:
            return None
        freq = cache.pair_frequencies()
        best_pair = None
        best_key = None
        for rank, entry in enumerate(entries):
            key = (freq[entry.pair], -rank)  # frequency, then recency
            if best_key is None or key > best_key:
                best_key = key
                best_pair = entry.pair
        for entry in entries:
            if entry.pair == best_pair:
                return entry
        return None  # pragma: no cover - best_pair comes from entries


#: The selection-policy surface (see :mod:`repro.harness.registries`);
#: extend via :func:`register_policy`, which first checks that the class
#: defines its own ``name``.
SELECTION_POLICIES: Registry[type[SelectionPolicy]] = Registry("policy")
SELECTION_POLICIES.register(MostRecentLossPolicy)
SELECTION_POLICIES.register(MostFrequentLossPolicy)


def register_policy(
    policy_cls: type[SelectionPolicy], replace: bool = False
) -> type[SelectionPolicy]:
    """Register a custom policy class under its ``name`` so configs can
    refer to it by string.  Usable as a class decorator::

        @register_policy
        class FastestPairPolicy(SelectionPolicy):
            name = "fastest-pair"
            ...

    A name that is already registered is refused unless ``replace=True``:
    swapping the paper's §3.2 policy under a run is something no digest
    records.
    """
    name = policy_cls.name
    if not name or name == SelectionPolicy.name:
        raise ValueError("policy classes must define a unique `name`")
    return SELECTION_POLICIES.register(policy_cls, replace=replace)


def make_policy(name: str) -> SelectionPolicy:
    """Instantiate a registered policy by name."""
    return SELECTION_POLICIES.get(name)()
