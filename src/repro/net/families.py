"""Generative topology families behind a ``TopologySpec`` registry.

The 14 Yajnik receiver sets are measurements topping out at ~12
receivers; this registry is how runs scale past them (ROADMAP item 1).
A topology spec rides in the ``trace`` slot of a
:class:`~repro.exec.jobs.RunJob` and names a *family* plus parameters in
the shared :mod:`repro.harness.specstr` grammar::

    tree:depth=3,fanout=4                    # 64 receivers, balanced
    transit_stub:transits=8,stubs=8,hosts=16 # 1024 receivers, 3-tier
    random_tree:receivers=500,depth=6        # seeded irregular tree
    fat_tree:k=16                            # 1024 receivers, 4-level

Families mirror the :class:`~repro.harness.registry.ProtocolSpec` /
``WorkloadSpec`` / ``CachePolicySpec`` surfaces: a frozen
:class:`TopologySpec` registered by name, listed by ``cesrm topologies``,
and validated eagerly wherever a spec string enters the system.

Loss synthesis comes in two flavours:

* the original ``tree`` family keeps the *calibrated* Gilbert machinery
  (:func:`~repro.traces.synthesize.synthesize_on_tree`) so every
  pre-existing ``tree:`` spec stays byte-identical;
* the scale families (``transit_stub``, ``random_tree``, ``fat_tree``)
  use *uncalibrated* per-link Gilbert processes — ``loss`` is the
  per-link marginal rate directly.  Calibration is an O(receivers x
  depth) expectation inside an 80-step bisection; at 10^5 receivers that
  dominates the run, and the scale experiments care about relative
  protocol behaviour, not hitting a published loss total.

Everything here builds on :mod:`repro.net.topology`, :mod:`repro.traces`
and the harness grammar only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.harness.registries import Registry
from repro.harness.specstr import canonical_spec
from repro.net.topology import MulticastTree, build_balanced_tree, build_random_tree
from repro.sim.rng import RngRegistry
from repro.traces.model import SyntheticTrace
from repro.traces.synthesize import SynthesisParams, _sample_trace, synthesize_on_tree


class TopologyError(ValueError):
    """Raised for unknown families and malformed topology specs."""


#: Loss/schedule parameters shared by every family (string-typed like the
#: raw grammar; :func:`parse_topology_spec` returns the merged mapping).
SHARED_DEFAULTS = {
    "loss": "0.05",
    "period": "0.08",
    "packets": "1000",
}

#: Defaults for the legacy ``tree`` family (also the documented grammar).
TREE_DEFAULTS = {
    "depth": "3",
    "fanout": "2",
    **SHARED_DEFAULTS,
}

#: Receiver-count ceiling for the scale families (the legacy ``tree``
#: family keeps its historical 4096 cap and error wording).
MAX_RECEIVERS = 1_048_576

#: ``random_tree`` uses the golden-frozen :func:`build_random_tree`,
#: whose weighted attachment is quadratic in the router count — cap it
#: well below the O(n) families.
MAX_RANDOM_TREE_RECEIVERS = 16_384


@dataclass(frozen=True)
class TopologySpec:
    """One registered generative topology family.

    ``build`` receives the merged string-parameter mapping (defaults
    filled in, values already validated) and a seeded ``random.Random``
    (ignored by deterministic families).  ``validate`` raises
    :class:`TopologyError` for out-of-range values; ``calibrated``
    selects the legacy calibrated synthesis path.
    """

    name: str
    build: Callable[[Mapping[str, str], random.Random], MulticastTree]
    validate: Callable[[str, Mapping[str, str]], None]
    defaults: Mapping[str, str]
    description: str = ""
    params_doc: Mapping[str, str] = field(default_factory=dict)
    calibrated: bool = False
    tags: tuple[str, ...] = ()


#: The topology surface (see :mod:`repro.harness.registries`): families
#: are registered, *topology* specs are parsed.
TOPOLOGIES: Registry[TopologySpec] = Registry(
    "topology family", error=TopologyError, label="topology",
    listing=("calibrated",),
)


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
def is_topology_spec(name: str) -> bool:
    """True when ``name`` is a generative topology spec rather than a
    Yajnik trace name (the router: a ``family:`` prefix we know)."""
    family, _, rest = name.partition(":")
    return bool(rest) and family.strip() in TOPOLOGIES


def _resolve(spec: str) -> tuple[TopologySpec, str, dict[str, str]]:
    """``(family, canonical spec, merged params)`` of a topology spec:
    family defaults filled in, unknown keys rejected, values
    range-checked.  The canonical spec (family, then the *user-supplied*
    parameters sorted by key — defaults stay implicit) is the identity
    equivalent spellings share."""
    fspec, params = TOPOLOGIES.resolve(spec)
    unknown = set(params) - set(fspec.defaults)
    if unknown:
        raise TopologyError(
            f"unknown parameter(s) {sorted(unknown)} for topology {fspec.name!r}"
        )
    merged = {**fspec.defaults, **params}
    fspec.validate(spec, merged)
    return fspec, canonical_spec(fspec.name, params), merged


def parse_topology_spec(spec: str) -> dict[str, str]:
    """Validate a topology spec and return its full parameter mapping
    (family defaults filled in, unknown keys rejected, values range-
    checked)."""
    return _resolve(spec)[2]


def _shared_values(spec: str, merged: Mapping[str, str]) -> tuple[float, float, int]:
    """Parse and range-check the shared loss/period/packets parameters."""
    try:
        loss = float(merged["loss"])
        period = float(merged["period"])
        packets = int(merged["packets"])
    except ValueError as exc:
        raise TopologyError(f"malformed topology spec {spec!r}: {exc}") from None
    if not (0.0 < loss < 1.0):
        raise TopologyError(f"topology {spec!r}: loss must be in (0, 1)")
    if period <= 0 or packets < 1:
        raise TopologyError(f"topology {spec!r}: period/packets must be positive")
    return loss, period, packets


# ----------------------------------------------------------------------
# Family: tree (legacy, calibrated)
# ----------------------------------------------------------------------
def _validate_tree(spec: str, merged: Mapping[str, str]) -> None:
    try:
        depth = int(merged["depth"])
        fanout = int(merged["fanout"])
    except ValueError as exc:
        raise TopologyError(f"malformed topology spec {spec!r}: {exc}") from None
    _shared_values(spec, merged)
    if depth < 1 or fanout < 1:
        raise TopologyError(f"topology {spec!r}: depth and fanout must be >= 1")
    if fanout**depth > 4096:
        raise TopologyError(
            f"topology {spec!r}: {fanout ** depth} receivers is unreasonably large"
        )


def _build_tree(merged: Mapping[str, str], _rng: random.Random) -> MulticastTree:
    return build_balanced_tree(
        branching=int(merged["fanout"]), depth=int(merged["depth"])
    )


# ----------------------------------------------------------------------
# Family: transit_stub (Icarus/GT-ITM-style three-tier hierarchy)
# ----------------------------------------------------------------------
TRANSIT_STUB_DEFAULTS = {
    "transits": "3",
    "stubs": "4",
    "hosts": "4",
    **SHARED_DEFAULTS,
}


def _validate_transit_stub(spec: str, merged: Mapping[str, str]) -> None:
    try:
        transits = int(merged["transits"])
        stubs = int(merged["stubs"])
        hosts = int(merged["hosts"])
    except ValueError as exc:
        raise TopologyError(f"malformed topology spec {spec!r}: {exc}") from None
    _shared_values(spec, merged)
    if transits < 1 or stubs < 1 or hosts < 1:
        raise TopologyError(
            f"topology {spec!r}: transits/stubs/hosts must be >= 1"
        )
    receivers = transits * stubs * hosts
    if receivers > MAX_RECEIVERS:
        raise TopologyError(
            f"topology {spec!r}: {receivers} receivers exceeds the"
            f" {MAX_RECEIVERS} cap"
        )


def _build_transit_stub(
    merged: Mapping[str, str], _rng: random.Random
) -> MulticastTree:
    """Source uplinks into a chain of transit routers; each transit
    router serves ``stubs`` stub routers; each stub router serves
    ``hosts`` receivers.  O(n) to build, depth grows with the transit
    chain (loss paths lengthen toward the far stubs, like the multi-AS
    paths the transit-stub generators model)."""
    transits = int(merged["transits"])
    stubs = int(merged["stubs"])
    hosts = int(merged["hosts"])
    parents: dict[str, str] = {}
    receivers: list[str] = []
    previous = "s"
    rid = 0
    for t in range(transits):
        transit = f"t{t + 1}"
        parents[transit] = previous
        previous = transit
        for u in range(stubs):
            stub = f"u{t + 1}_{u + 1}"
            parents[stub] = transit
            for _ in range(hosts):
                rid += 1
                name = f"r{rid}"
                parents[name] = stub
                receivers.append(name)
    return MulticastTree(source="s", parents=parents, receivers=receivers)


# ----------------------------------------------------------------------
# Family: random_tree (seeded irregular tree, legacy builder)
# ----------------------------------------------------------------------
RANDOM_TREE_DEFAULTS = {
    "receivers": "64",
    "depth": "4",
    **SHARED_DEFAULTS,
}


def _validate_random_tree(spec: str, merged: Mapping[str, str]) -> None:
    try:
        receivers = int(merged["receivers"])
        depth = int(merged["depth"])
    except ValueError as exc:
        raise TopologyError(f"malformed topology spec {spec!r}: {exc}") from None
    _shared_values(spec, merged)
    if receivers < 2 or depth < 2:
        raise TopologyError(
            f"topology {spec!r}: receivers must be >= 2 and depth >= 2"
        )
    if receivers > MAX_RANDOM_TREE_RECEIVERS:
        raise TopologyError(
            f"topology {spec!r}: {receivers} receivers exceeds the"
            f" {MAX_RANDOM_TREE_RECEIVERS} cap for random_tree (weighted"
            " attachment is quadratic; use transit_stub or fat_tree)"
        )


def _build_random_tree(merged: Mapping[str, str], rng: random.Random) -> MulticastTree:
    return build_random_tree(int(merged["receivers"]), int(merged["depth"]), rng)


# ----------------------------------------------------------------------
# Family: fat_tree (k-ary fat-tree multicast spanning tree)
# ----------------------------------------------------------------------
FAT_TREE_DEFAULTS = {
    "k": "4",
    **SHARED_DEFAULTS,
}


def _validate_fat_tree(spec: str, merged: Mapping[str, str]) -> None:
    try:
        k = int(merged["k"])
    except ValueError as exc:
        raise TopologyError(f"malformed topology spec {spec!r}: {exc}") from None
    _shared_values(spec, merged)
    if k < 2 or k % 2:
        raise TopologyError(f"topology {spec!r}: k must be an even integer >= 2")
    receivers = k**3 // 4
    if receivers > MAX_RECEIVERS:
        raise TopologyError(
            f"topology {spec!r}: {receivers} receivers exceeds the"
            f" {MAX_RECEIVERS} cap"
        )


def _build_fat_tree(merged: Mapping[str, str], _rng: random.Random) -> MulticastTree:
    """The multicast spanning tree of a k-ary fat-tree: source at a core
    switch, one aggregation switch per pod, k/2 edge switches per
    aggregation, k/2 hosts per edge — k^3/4 receivers at depth 4."""
    k = int(merged["k"])
    half = k // 2
    parents: dict[str, str] = {"c0": "s"}
    receivers: list[str] = []
    rid = 0
    for p in range(k):
        agg = f"a{p + 1}"
        parents[agg] = "c0"
        for j in range(half):
            edge = f"e{p + 1}_{j + 1}"
            parents[edge] = agg
            for _ in range(half):
                rid += 1
                name = f"r{rid}"
                parents[name] = edge
                receivers.append(name)
    return MulticastTree(source="s", parents=parents, receivers=receivers)


# ----------------------------------------------------------------------
# Building and synthesis
# ----------------------------------------------------------------------
def build_topology(spec: str, seed: int = 0) -> MulticastTree:
    """Build the multicast tree a topology spec describes.  Seeded
    families draw their shape from the same ``topology`` stream the
    trace synthesis uses, so ``build_topology(spec, seed)`` matches the
    tree inside ``synthesize_topology_trace(spec, seed)``."""
    fspec, name, merged = _resolve(spec)
    rng = RngRegistry(seed).fork(f"trace:{name}").stream("topology")
    return fspec.build(merged, rng)


def synthesize_topology_trace(
    spec: str,
    seed: int = 0,
    max_packets: int | None = None,
) -> SyntheticTrace:
    """Synthesize a loss trace over a generative topology.

    The trace is named by the *canonical* spec so equivalent spellings
    (parameter order) share one identity.  The ``tree`` family keeps the
    calibrated path (loss target ``loss * packets * receivers``, scaled
    down with ``max_packets`` like the Yajnik replay caps); the scale
    families sample uncalibrated per-link Gilbert processes at rate
    ``loss``.  Deterministic in ``(spec, seed, max_packets)``.
    """
    fspec, name, merged = _resolve(spec)
    loss = float(merged["loss"])
    period = float(merged["period"])
    n_packets = int(merged["packets"])
    if max_packets is not None and max_packets < n_packets:
        n_packets = max_packets

    registry = RngRegistry(seed).fork(f"trace:{name}")
    tree = fspec.build(merged, registry.stream("topology"))

    if fspec.calibrated:
        target = max(1, round(loss * n_packets * len(tree.receivers)))
        synth_params = SynthesisParams(
            name=name,
            n_receivers=len(tree.receivers),
            tree_depth=tree.depth,
            period=period,
            n_packets=n_packets,
            target_losses=target,
        )
        return synthesize_on_tree(tree, synth_params, seed=seed)

    rates = {link: loss for link in tree.links}
    synth_params = SynthesisParams(
        name=name,
        n_receivers=len(tree.receivers),
        tree_depth=tree.depth,
        period=period,
        n_packets=n_packets,
        target_losses=0,
    )
    return _sample_trace(synth_params, tree, rates, registry.stream("sample"))


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------
TOPOLOGIES.register(
    TopologySpec(
        name="tree",
        build=_build_tree,
        validate=_validate_tree,
        defaults=TREE_DEFAULTS,
        description="balanced fanout^depth tree, calibrated Gilbert losses",
        params_doc={
            "depth": "tree depth (default 3)",
            "fanout": "children per router (default 2)",
            "loss": "target mean receiver loss rate (default 0.05)",
            "period": "inter-packet period in seconds (default 0.08)",
            "packets": "trace length (default 1000)",
        },
        calibrated=True,
        tags=("calibrated",),
    )
)

TOPOLOGIES.register(
    TopologySpec(
        name="transit_stub",
        build=_build_transit_stub,
        validate=_validate_transit_stub,
        defaults=TRANSIT_STUB_DEFAULTS,
        description="three-tier transit/stub hierarchy, O(n) build to 10^6",
        params_doc={
            "transits": "transit routers in the backbone chain (default 3)",
            "stubs": "stub routers per transit (default 4)",
            "hosts": "receivers per stub (default 4)",
            "loss": "per-link marginal loss rate (default 0.05)",
            "period": "inter-packet period in seconds (default 0.08)",
            "packets": "trace length (default 1000)",
        },
        tags=("scale",),
    )
)

TOPOLOGIES.register(
    TopologySpec(
        name="random_tree",
        build=_build_random_tree,
        validate=_validate_random_tree,
        defaults=RANDOM_TREE_DEFAULTS,
        description="seeded irregular tree (the Yajnik synthesis shape)",
        params_doc={
            "receivers": "receiver count (default 64)",
            "depth": "exact tree depth (default 4)",
            "loss": "per-link marginal loss rate (default 0.05)",
            "period": "inter-packet period in seconds (default 0.08)",
            "packets": "trace length (default 1000)",
        },
        tags=("seeded",),
    )
)

TOPOLOGIES.register(
    TopologySpec(
        name="fat_tree",
        build=_build_fat_tree,
        validate=_validate_fat_tree,
        defaults=FAT_TREE_DEFAULTS,
        description="k-ary fat-tree spanning tree (k^3/4 receivers, depth 4)",
        params_doc={
            "k": "fat-tree arity, even (default 4; receivers = k^3/4)",
            "loss": "per-link marginal loss rate (default 0.05)",
            "period": "inter-packet period in seconds (default 0.08)",
            "packets": "trace length (default 1000)",
        },
        tags=("scale",),
    )
)


__all__ = [
    "MAX_RECEIVERS",
    "TOPOLOGIES",
    "TREE_DEFAULTS",
    "TopologyError",
    "TopologySpec",
    "build_topology",
    "is_topology_spec",
    "parse_topology_spec",
    "synthesize_topology_trace",
]
