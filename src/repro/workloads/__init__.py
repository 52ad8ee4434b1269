"""repro.workloads — declarative workload/scenario DSL.

``repro.workloads`` turns a spec string like ``zipf:alpha=1.1,objects=500``
into a seeded, deterministic stream of send events the sim engine drains,
through a pluggable registry mirroring the protocol registry.  See
``docs/workloads.md`` for the grammar and the extension recipe.

Importing this package registers the built-in families (cbr, poisson,
zipf, flash_crowd, diurnal, multi_source, trace) in :data:`WORKLOADS`.
Generative topologies (``tree:depth=D,fanout=F``) are their own surface,
:mod:`repro.net.families`.
"""

from repro.workloads.registry import (
    WORKLOADS,
    SendEvent,
    Workload,
    WorkloadError,
    WorkloadSpec,
    compile_workload,
)
from repro.workloads.generators import DEFAULT_WORKLOAD
from repro.workloads.runtime import (
    events_horizon,
    schedule_events,
    workload_run_stats,
)

__all__ = [
    "DEFAULT_WORKLOAD",
    "SendEvent",
    "WORKLOADS",
    "Workload",
    "WorkloadError",
    "WorkloadSpec",
    "compile_workload",
    "events_horizon",
    "schedule_events",
    "workload_run_stats",
]
