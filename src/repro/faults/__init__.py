"""Deterministic fault injection (link outages, crashes, packet chaos).

Public surface: :class:`FaultPlan` (declarative, JSON-round-trippable fault
schedules) and :class:`FaultInjector` (compiles a plan onto one wired run).
See ``docs/faults.md``.
"""

from repro.faults.inject import (
    DROP,
    FaultInjector,
    HopEffect,
    HopRule,
    recovery_loss_rule,
    trace_drop_rule,
)
from repro.faults.plan import (
    EVENT_TYPES,
    FaultEvent,
    FaultPlan,
    LinkDown,
    LinkFlap,
    NodeCrash,
    PacketDuplicate,
    PacketReorder,
    Partition,
    SessionSuppress,
    event_from_dict,
    sample_plan,
)
from repro.faults.spec import (
    FaultSpecError,
    compile_fault_plan,
    is_fault_spec,
    parse_fault_event,
    resolve_fault_plan,
)

__all__ = [
    "DROP",
    "EVENT_TYPES",
    "FaultSpecError",
    "compile_fault_plan",
    "is_fault_spec",
    "parse_fault_event",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "HopEffect",
    "HopRule",
    "LinkDown",
    "LinkFlap",
    "NodeCrash",
    "PacketDuplicate",
    "PacketReorder",
    "Partition",
    "SessionSuppress",
    "event_from_dict",
    "recovery_loss_rule",
    "resolve_fault_plan",
    "sample_plan",
    "trace_drop_rule",
]
