"""Fault-plan spec strings: declarative plans without a JSON file.

Fault plans have always been typed event lists (:mod:`repro.faults.plan`)
loaded from JSON.  This module gives them the same
``family:key=value,...`` spec grammar as workloads, topologies, and
cache policies — one event per spec, ``;``-joined into a plan::

    node-crash:host=r2,at=5s,restart_after=3s
    link-flap:u=s,v=r1,mean_up=2s,mean_down=500ms,start=1s
    node-crash:host=r2,at=5s;packet-duplicate:rate=0.05

Families are exactly the registered event ``type_name``\\ s; keys are
the event dataclass's fields, coerced by annotation (floats accept the
grammar's ``s``/``ms``/``x`` suffixes; everything else stays a string).
The CLI's ``--faults`` flag and the sweep grid's ``faults`` axis accept
these specs anywhere a plan path was accepted before: both read their
value through :func:`resolve_fault_plan`.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Mapping

from repro.faults.plan import EVENT_TYPES, FaultEvent, FaultPlan
from repro.harness import specstr


class FaultSpecError(ValueError):
    """Raised for malformed fault spec strings."""


def is_fault_spec(text: str) -> bool:
    """Heuristic used where a string may be a plan *path* or a spec:
    ``family:`` prefixes naming a registered event type are specs."""
    family = text.split(";", 1)[0].partition(":")[0].strip()
    return family in EVENT_TYPES


def parse_fault_event(spec: str) -> FaultEvent:
    """One ``family:key=value,...`` spec -> a validated fault event."""
    family, params = specstr.parse_spec(spec, label="fault", error=FaultSpecError)
    event_cls = EVENT_TYPES.get(family)
    if event_cls is None:
        raise FaultSpecError(
            f"unknown fault {family!r}; known: {tuple(sorted(EVENT_TYPES))}"
        )
    where = f"fault {family!r}"
    kwargs: dict[str, object] = {}
    fields = {f.name: f for f in dataclasses.fields(event_cls)}
    for key, raw in params.items():
        f = fields.get(key)
        if f is None or key == specstr.POSITIONAL:
            raise FaultSpecError(
                f"unknown parameter(s) {[key]} for {where}"
            )
        # Annotations are strings (PEP 563 in plan.py): float fields —
        # including `float | None` — take the suffix-aware number parser.
        if "float" in str(f.type):
            kwargs[key] = specstr.coerce_float(raw, where, key, FaultSpecError)
        else:
            kwargs[key] = raw
    try:
        return event_cls(**kwargs)
    except TypeError:
        missing = [
            f.name
            for f in dataclasses.fields(event_cls)
            if f.default is dataclasses.MISSING and f.name not in kwargs
        ]
        raise FaultSpecError(
            f"{where} is missing required parameter(s) {missing}"
        ) from None
    except ValueError as exc:
        # Event __post_init__ validation (negative times, bad rates, ...)
        raise FaultSpecError(f"{where}: {exc}") from None


def compile_fault_plan(spec: str) -> FaultPlan:
    """A ``;``-separated list of event specs -> a validated
    :class:`FaultPlan` (the single validation point for spec-string
    fault plans — the CLI and the sweep compiler both call this)."""
    if not spec.strip():
        raise FaultSpecError("empty fault spec")
    events = tuple(
        parse_fault_event(part) for part in spec.split(";") if part.strip()
    )
    return FaultPlan(events=events)


def resolve_fault_plan(value: Any, base: str | Path = "") -> FaultPlan:
    """The one reader of a fault-plan value, behind the CLI's ``--faults``
    flag and the sweep grid's ``faults`` axis: ``""`` (or None) is no
    faults, a spec string compiles (:func:`compile_fault_plan`), any other
    string names a plan JSON file (relative to ``base``), and a mapping is
    an inline plan table.

    Raises :class:`FaultSpecError` for a bad spec or a value of another
    type, ``OSError`` for an unreadable file, and ``ValueError`` /
    ``KeyError`` / ``TypeError`` for a malformed plan."""
    if value == "" or value is None:
        return FaultPlan()
    if isinstance(value, Mapping):
        return FaultPlan.from_dict(dict(value))
    if isinstance(value, str):
        if is_fault_spec(value):
            return compile_fault_plan(value)
        return FaultPlan.load(Path(base) / value)
    raise FaultSpecError(
        f"a fault plan is '' (none), a spec string, a plan-file path, or "
        f"an inline plan table, got {value!r}"
    )


__all__ = [
    "FaultSpecError",
    "compile_fault_plan",
    "is_fault_spec",
    "parse_fault_event",
    "resolve_fault_plan",
]
