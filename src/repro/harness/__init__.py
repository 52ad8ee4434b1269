"""Experiment harness: per-trace simulation runs and paper reproductions.

* :mod:`repro.harness.config` — one immutable config for a run (§4.3's
  simulation setup is the default).
* :mod:`repro.harness.specstr` — the shared ``family:key=value`` spec
  grammar every pluggable surface (workloads, topologies, faults, cache
  policies) parses through.
* :mod:`repro.harness.registries` — the :class:`Registry` object every
  such surface is one instance of.
* :mod:`repro.harness.registry` — the protocol surface (``PROTOCOLS``,
  :class:`ProtocolSpec`); every protocol the harness runs ships through it.
* :mod:`repro.harness.runner` — builds a simulation (tree, network,
  agents, fault injection) and runs it to completion.
* :mod:`repro.harness.experiments` — drivers that regenerate every table
  and figure of §4, plus the ablations DESIGN.md lists.
* :mod:`repro.harness.analysis` — the §3.4 closed-form latency model.
* :mod:`repro.harness.report` — ASCII rendering of tables and bar series.
* :mod:`repro.harness.cli` — the ``cesrm`` command-line entry point.

Exports resolve lazily (PEP 562): protocol specs reference agent classes
in :mod:`repro.core`, and :mod:`repro.core.cachelab` uses the shared
grammar/registry modules here — loading them on first attribute access
instead of at package import keeps that mutual dependency acyclic.
"""

import importlib
from typing import Any

#: name -> (module, attribute); resolved on first access.
_EXPORTS = {
    "SimulationConfig": ("repro.harness.config", "SimulationConfig"),
    "PROTOCOLS": ("repro.harness.registry", "PROTOCOLS"),
    "ProtocolSpec": ("repro.harness.registry", "ProtocolSpec"),
    "RunResult": ("repro.harness.runner", "RunResult"),
    "run_trace": ("repro.harness.runner", "run_trace"),
    "build_simulation": ("repro.harness.runner", "build_simulation"),
}

__all__ = [
    "SimulationConfig",
    "PROTOCOLS",
    "ProtocolSpec",
    "RunResult",
    "run_trace",
    "build_simulation",
]


def __getattr__(name: str) -> Any:
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(target[0]), target[1])
    globals()[name] = value  # cache so __getattr__ runs once per name
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
