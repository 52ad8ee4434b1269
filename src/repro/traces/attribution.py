"""Attributing observed loss patterns to tree-link combinations (§4.2).

Each per-packet loss pattern ``x`` (the set of receivers that lost the
packet) can be produced by many different combinations of link drops.  The
paper selects a representative combination per packet using the probability
of each combination ``c``:

    p(c) = Π_{l ∈ L_c} p(l) × Π_{l' ∈ U_c} (1 - p(l'))

where ``L_c`` are the dropped links, and ``U_c`` are the links neither in
``L_c`` nor downstream of it (drops hidden behind an upstream drop are
unobservable and carry no probability factor).  The posterior of ``c``
among all combinations producing ``x`` is ``p(c) / Σ_{c'} p(c')``.

Combinations are *antichains* of tree links whose downstream receiver sets
union to exactly ``x``.  Rather than enumerate them (exponentially many),
this module computes:

* the **total probability** of all combinations via sum-product dynamic
  programming over the tree,
* the **most probable combination** via max-product DP with traceback,
* an exact **posterior sample** via top-down sampling, and
* a brute-force enumerator for small trees (used by the tests to validate
  the DP).

The DP recurses on each node ``n`` with incoming link ``l``:

* subtree has no losses → weight ``CLEAN(n)``: every link in the subtree
  (including ``l``) forwards successfully;
* subtree entirely lost → either drop on ``l`` (weight ``p(l)``, links
  below unconstrained) or forward on ``l`` and cover every child subtree
  (weight ``(1-p(l)) × Π_children``); a lost leaf *must* drop on ``l``;
* subtree partially lost → ``l`` must forward; recurse into children.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.net.topology import LinkId, MulticastTree
from repro.traces.model import LossTrace

@dataclass(frozen=True)
class AttributionChoice:
    """The selected combination for one loss pattern."""

    combo: frozenset[LinkId]
    probability: float
    posterior: float


@dataclass
class AttributionResult:
    """Per-packet link attributions for a whole trace."""

    combos: dict[int, frozenset[LinkId]] = field(default_factory=dict)
    posteriors: dict[int, float] = field(default_factory=dict)
    distinct_patterns: int = 0

    def posterior_fraction_above(self, threshold: float) -> float:
        """Fraction of attributed packets whose selected combination has
        posterior probability above ``threshold`` (the §4.2 accuracy
        statistic)."""
        if not self.posteriors:
            return 0.0
        hits = sum(1 for p in self.posteriors.values() if p > threshold)
        return hits / len(self.posteriors)

    @property
    def mean_posterior(self) -> float:
        if not self.posteriors:
            return 0.0
        return sum(self.posteriors.values()) / len(self.posteriors)


class Attributor:
    """Attributes loss patterns over a fixed tree and link-rate estimate.

    Parameters
    ----------
    tree:
        The multicast tree.
    rates:
        Estimated per-link drop probabilities ``p(l)``.
    clamp:
        Rates are clamped into ``[lo, hi]`` so that patterns that occurred
        despite a zero-rate estimate still receive a well-defined
        attribution.
    """

    def __init__(
        self,
        tree: MulticastTree,
        rates: dict[LinkId, float],
        clamp: tuple[float, float] = (1e-6, 1.0 - 1e-6),
    ) -> None:
        self.tree = tree
        lo, hi = clamp
        self.rates = {
            link: min(max(rates.get(link, 0.0), lo), hi) for link in tree.links
        }
        # The DP runs on the tree's frozen integer index: per-node drop
        # rates, children tuples, and subtree-receiver bitsets replace the
        # (parent, child)-keyed dict lookups and frozenset algebra of the
        # per-name implementation.  Children order matches tree order, so
        # every float multiplication happens in the same order as before.
        index = tree.index
        self._index = index
        names = index.names
        parent = index.parent
        self._children = index.children
        self._subtree_bits = index.subtree_bits
        self._root = index.ids[tree.source]
        self._p = [
            self.rates[(names[parent[i]], name)] if parent[i] >= 0 else 0.0
            for i, name in enumerate(names)
        ]
        clean = [1.0] * index.n
        for node in index.post_order:
            weight = 1.0
            for child in self._children[node]:
                weight *= clean[child]
            if parent[node] >= 0:
                weight *= 1.0 - self._p[node]
            clean[node] = weight
        self._clean_by_id = clean
        #: node name -> clean-subtree weight (kept for the brute-force
        #: enumerator and for external inspection).
        self._clean = {name: clean[i] for i, name in enumerate(names)}
        self._cache: dict[frozenset[str], AttributionChoice] = {}

    # ------------------------------------------------------------------
    # Core DP (integer kernel)
    # ------------------------------------------------------------------
    def _weights(
        self, node: int, pattern: int, memo: dict[int, tuple[float, float]]
    ) -> tuple[float, float]:
        """Sum-product and max-product weights for the subtree at node id
        ``node`` (which must not be the root), given the loss-pattern
        bitset.  ``memo`` caches per-(query, node) results so traceback
        and sampling reuse the forward pass instead of recomputing it."""
        cached = memo.get(node)
        if cached is not None:
            return cached
        p = self._p[node]
        receivers = self._subtree_bits[node]
        local = receivers & pattern
        if not local:
            clean = self._clean_by_id[node]
            result = (clean, clean)
        elif local == receivers:
            children = self._children[node]
            if not children:  # lost leaf: the incoming link must drop
                result = (p, p)
            else:
                sum_prod = 1.0
                max_prod = 1.0
                for child in children:
                    s, m = self._weights(child, pattern, memo)
                    sum_prod *= s
                    max_prod *= m
                forward = 1.0 - p
                result = (p + forward * sum_prod, max(p, forward * max_prod))
        else:
            # Partial loss: the incoming link must forward.
            sum_prod = 1.0
            max_prod = 1.0
            for child in self._children[node]:
                s, m = self._weights(child, pattern, memo)
                sum_prod *= s
                max_prod *= m
            forward = 1.0 - p
            result = (forward * sum_prod, forward * max_prod)
        memo[node] = result
        return result

    def total_probability(self, pattern: frozenset[str]) -> float:
        """Σ p(c) over every combination producing ``pattern``."""
        self._check_pattern(pattern)
        bits = self._index.pattern_bits(pattern)
        memo: dict[int, tuple[float, float]] = {}
        total = 1.0
        for child in self._children[self._root]:
            total *= self._weights(child, bits, memo)[0]
        return total

    def best_combination(self, pattern: frozenset[str]) -> AttributionChoice:
        """The maximum-probability combination and its posterior."""
        self._check_pattern(pattern)
        cached = self._cache.get(pattern)
        if cached is not None:
            return cached
        if not pattern:
            choice = AttributionChoice(frozenset(), self.total_probability(pattern), 1.0)
            self._cache[pattern] = choice
            return choice
        bits = self._index.pattern_bits(pattern)
        combo: set[LinkId] = set()
        root_children = self._children[self._root]
        memo: dict[int, tuple[float, float]] = {}
        total = 1.0
        best = 1.0
        for child in root_children:
            s, m = self._weights(child, bits, memo)
            total *= s
            best *= m
        for child in root_children:
            self._traceback(child, bits, memo, combo)
        posterior = best / total if total > 0.0 else 0.0
        choice = AttributionChoice(frozenset(combo), best, posterior)
        self._cache[pattern] = choice
        return choice

    def _traceback(
        self,
        node: int,
        pattern: int,
        memo: dict[int, tuple[float, float]],
        combo: set[LinkId],
    ) -> None:
        receivers = self._subtree_bits[node]
        local = receivers & pattern
        if not local:
            return
        names = self._index.names
        children = self._children[node]
        if local == receivers:
            p = self._p[node]
            if not children:
                combo.add((names[self._index.parent[node]], names[node]))
                return
            max_prod = 1.0
            for child in children:
                max_prod *= self._weights(child, pattern, memo)[1]
            if p >= (1.0 - p) * max_prod:
                combo.add((names[self._index.parent[node]], names[node]))
                return
        for child in children:
            self._traceback(child, pattern, memo, combo)

    def sample_combination(
        self, pattern: frozenset[str], rng: random.Random
    ) -> frozenset[LinkId]:
        """Draw a combination exactly from the posterior over combinations."""
        self._check_pattern(pattern)
        bits = self._index.pattern_bits(pattern)
        combo: set[LinkId] = set()
        memo: dict[int, tuple[float, float]] = {}
        for child in self._children[self._root]:
            self._sample_into(child, bits, rng, memo, combo)
        return frozenset(combo)

    def _sample_into(
        self,
        node: int,
        pattern: int,
        rng: random.Random,
        memo: dict[int, tuple[float, float]],
        combo: set[LinkId],
    ) -> None:
        receivers = self._subtree_bits[node]
        local = receivers & pattern
        if not local:
            return
        names = self._index.names
        children = self._children[node]
        if local == receivers:
            p = self._p[node]
            if not children:
                combo.add((names[self._index.parent[node]], names[node]))
                return
            total, _ = self._weights(node, pattern, memo)
            if rng.random() < p / total:
                combo.add((names[self._index.parent[node]], names[node]))
                return
        for child in children:
            self._sample_into(child, pattern, rng, memo, combo)

    # ------------------------------------------------------------------
    # Brute force (tests / tiny trees)
    # ------------------------------------------------------------------
    def enumerate_combinations(
        self, pattern: frozenset[str]
    ) -> list[tuple[frozenset[LinkId], float]]:
        """All (combination, probability) pairs for ``pattern``.

        Exponential; intended for validating the DP on small trees.
        """
        self._check_pattern(pattern)

        def expand(node: str) -> list[tuple[frozenset[LinkId], float]]:
            parent = self.tree.parent(node)
            assert parent is not None
            link = (parent, node)
            p = self.rates[link]
            receivers = self.tree.subtree_receivers(node)
            local = receivers & pattern
            if not local:
                return [(frozenset(), self._clean[node])]
            children = self.tree.children(node)
            options: list[tuple[frozenset[LinkId], float]] = []
            if local == receivers:
                options.append((frozenset([link]), p))
                if not children:
                    return options
            prefix = 1.0 - p
            partials: list[tuple[frozenset[LinkId], float]] = [(frozenset(), prefix)]
            for child in children:
                partials = [
                    (acc | c, w * cw)
                    for acc, w in partials
                    for c, cw in expand(child)
                ]
            options.extend(partials)
            return options

        results: list[tuple[frozenset[LinkId], float]] = [(frozenset(), 1.0)]
        for child in self.tree.children(self.tree.source):
            results = [
                (acc | c, w * cw)
                for acc, w in results
                for c, cw in expand(child)
            ]
        return results

    def pattern_of_combo(self, combo: frozenset[LinkId]) -> frozenset[str]:
        """The loss pattern a combination produces: the union of receiver
        sets downstream of its links."""
        out: set[str] = set()
        for _, child in combo:
            out |= self.tree.subtree_receivers(child)
        return frozenset(out)

    # ------------------------------------------------------------------
    # Whole-trace attribution
    # ------------------------------------------------------------------
    def attribute_trace(
        self,
        trace: LossTrace,
        select: str = "max",
        rng: random.Random | None = None,
    ) -> AttributionResult:
        """Attribute every lossy packet of ``trace``.

        ``select`` is ``"max"`` (most probable combination, the default the
        simulations use) or ``"sample"`` (posterior draw per packet,
        requires ``rng``).
        """
        if select not in ("max", "sample"):
            raise ValueError(f"unknown select mode {select!r}")
        if select == "sample" and rng is None:
            raise ValueError("select='sample' requires an rng")
        result = AttributionResult()
        seen: set[frozenset[str]] = set()
        for packet in trace.lossy_packets():
            pattern = trace.loss_pattern(packet)
            seen.add(pattern)
            choice = self.best_combination(pattern)
            if select == "max":
                result.combos[packet] = choice.combo
            else:
                assert rng is not None
                result.combos[packet] = self.sample_combination(pattern, rng)
            result.posteriors[packet] = choice.posterior
        result.distinct_patterns = len(seen)
        return result

    def _check_pattern(self, pattern: frozenset[str]) -> None:
        unknown = pattern - set(self.tree.receivers)
        if unknown:
            raise ValueError(f"pattern contains non-receivers: {sorted(unknown)}")
