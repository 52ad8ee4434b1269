"""Declarative sweep specs: a parameter grid compiled into ``RunJob``\\ s.

The paper's whole evaluation (§4, Figures 1–5, Table 1) is one grid —
traces × protocols × loss models × seeds — and every axis of that grid
is already declarative somewhere in the repo: protocols in the
:mod:`~repro.harness.registry`, workloads in :mod:`repro.workloads`,
faults in :mod:`repro.faults`, generative topologies in the ``--trace``
slot.  A *sweep spec* names the axes once and lets the machinery take
the cartesian product::

    name = "figure2"
    description = "Expedited-recovery latency gap, CESRM vs SRM"

    [defaults]
    max_packets = 3000

    [grid]
    protocol = ["srm", "cesrm"]
    trace = ["WRN951113", "WRN951030"]
    seed = [0, 1, 2]

    [grid.params]
    cache_capacity = [1, 16]

    [[cases]]           # explicit extra points appended to the product
    protocol = "cesrm-router"
    trace = "WRN951113"

Specs load from TOML (shown) or JSON — the same mapping either way.
:func:`compile_sweep` expands the grid plus the explicit case list into
deduplicated :class:`SweepCase`\\ s, each wrapping one fully-validated
:class:`~repro.exec.jobs.RunJob`, and the sweep's :meth:`~SweepSpec.digest`
is a content digest of that job set — two specs that mean the same runs
have the same digest no matter how they were written, which is what keys
resumability and the result store.

Axes
----
``protocol``, ``trace`` (Yajnik name or topology spec), ``faults`` (a
fault spec string, a path to a :class:`~repro.faults.FaultPlan` JSON
file, resolved relative to the spec file, or an inline plan table;
``""`` = no faults), every run
axis declared as a sweep ``dimension`` (see
:func:`repro.harness.config.axis`; a spec string, its default = the
paper's behaviour), ``seed`` (folds into both the config seed and the
trace synthesis seed, exactly like the CLI's ``--seed``), and — under
``grid.params`` / ``params`` / ``cases.params`` — any other
:class:`~repro.harness.config.SimulationConfig` field.  :data:`AXES`
lists them by name.

``max_packets`` is the per-trace replay cap (``0`` means the full
trace); it defaults to the harness's standard 3000-packet cap and, like
``seed``, shapes both the trace synthesis and the config.
"""

from __future__ import annotations

import hashlib
import json
import tomllib
from dataclasses import dataclass, fields
from itertools import product
from pathlib import Path
from typing import Any, Mapping

from repro.exec.jobs import RUN_AXES, RunJob, split_axes
from repro.faults import FaultPlan, resolve_fault_plan
from repro.harness.config import CONFIG_AXES, DEFAULT_MAX_PACKETS, SimulationConfig

#: Bump when the compiled-job layout changes meaning; folds into digests.
SWEEP_SCHEMA = 1

#: The declared run axes a grid may sweep, and the optional dimensions in
#: result-store column order: those plus the hand-written ``faults``
#: (whose value is a plan, not a string) in the column slot it holds.
GRID_AXES = tuple(a for a in RUN_AXES if a.dimension)
OPTIONAL_AXES = tuple(
    name
    for _, name in sorted(
        [(a.dimension, a.name) for a in GRID_AXES] + [(2, "faults")]
    )
)

#: The swept dimensions a grid (or case) may name directly.
AXES = ("protocol", "trace", *OPTIONAL_AXES, "seed", "max_packets")

_CONFIG_FIELDS = {f.name for f in fields(SimulationConfig)}
#: Config fields that may not appear under ``params`` because they are
#: proper axes (seed/max_packets shape trace synthesis too; a dimension
#: axis is a column of the result store).
_RESERVED_PARAMS = ("seed", "max_packets") + tuple(
    a.name for a in CONFIG_AXES if a.dimension
)


class SweepError(ValueError):
    """Raised for malformed sweep specs (unknown keys, bad axis values,
    unresolvable fault plans, empty grids)."""


@dataclass(frozen=True)
class SweepCase:
    """One grid point: the compiled job plus its axis coordinates.

    ``axes`` records where in the grid the job sits — the dimension
    columns of the result store — with ``params`` as a canonical-JSON
    string of the case's config overrides.
    """

    job: RunJob
    protocol: str
    trace: str
    #: The :data:`OPTIONAL_AXES` coordinates, name -> store label (an
    #: axis's spec string, its default when unswept; the fault plan's
    #: path or inline label).
    optional: Mapping[str, str]
    seed: int
    max_packets: int | None
    #: Canonical JSON of the SimulationConfig overrides (sorted keys).
    params: str

    @property
    def key(self) -> str:
        return self.job.key()

    def axes(self) -> dict[str, Any]:
        return {
            "protocol": self.protocol,
            "trace": self.trace,
            **self.optional,
            "seed": self.seed,
            "max_packets": self.max_packets,
            "params": self.params,
        }


@dataclass(frozen=True)
class SweepSpec:
    """A compiled sweep: named, deduplicated, content-addressed."""

    name: str
    description: str
    cases: tuple[SweepCase, ...]
    #: Grid points pruned because they compiled to an identical job.
    duplicates: int = 0

    def __len__(self) -> int:
        return len(self.cases)

    def digest(self) -> str:
        """Content digest of the job *set* (order-independent): identical
        for any two specs that compile to the same runs."""
        payload = json.dumps(
            {
                "schema": SWEEP_SCHEMA,
                "jobs": sorted(case.key for case in self.cases),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:40]

    def to_manifest(self) -> dict[str, Any]:
        """What the result store records about the sweep itself."""
        return {
            "name": self.name,
            "description": self.description,
            "n_jobs": len(self.cases),
            "schema": SWEEP_SCHEMA,
        }

    def describe(self) -> str:
        dup = f" ({self.duplicates} duplicate points pruned)" if self.duplicates else ""
        return f"sweep {self.name} [{self.digest()[:12]}]: {len(self.cases)} jobs{dup}"


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_sweep(path: str | Path) -> SweepSpec:
    """Load and compile a sweep spec from a ``.toml`` or ``.json`` file.

    Relative fault-plan paths inside the spec resolve against the spec
    file's directory.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SweepError(f"cannot read sweep spec {path}: {exc}") from None
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SweepError(f"invalid JSON in {path}: {exc}") from None
    else:
        try:
            data = tomllib.loads(raw.decode())
        except tomllib.TOMLDecodeError as exc:
            raise SweepError(f"invalid TOML in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise SweepError(f"sweep spec {path} must be a table/object")
    data.setdefault("name", path.stem)
    return compile_sweep(data, base_dir=path.parent)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
_TOP_LEVEL = {"name", "description", "defaults", "grid", "params", "cases"}


def compile_sweep(
    data: Mapping[str, Any], base_dir: str | Path | None = None
) -> SweepSpec:
    """Expand ``data`` (the parsed spec mapping) into a :class:`SweepSpec`.

    Validation is eager and total: every protocol, trace, workload,
    fault plan, and config override of every grid point is checked here,
    so a sweep never fails three layers down in a pool worker.
    """
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    unknown = set(data) - _TOP_LEVEL
    if unknown:
        raise SweepError(
            f"unknown sweep spec keys {sorted(unknown)}; "
            f"expected {sorted(_TOP_LEVEL)}"
        )
    name = data.get("name") or "sweep"
    description = str(data.get("description", ""))

    defaults = _check_point_mapping(data.get("defaults", {}), "defaults")
    fixed_params = _check_params(data.get("params", {}), "params")

    grid = data.get("grid", {})
    if not isinstance(grid, Mapping):
        raise SweepError("grid must be a table of axis -> list of values")
    grid_params = _grid_params(grid.get("params", {}))
    axes_values: dict[str, list[Any]] = {}
    for axis, values in grid.items():
        if axis == "params":
            continue
        if axis not in AXES:
            raise SweepError(
                f"unknown grid axis {axis!r}; known axes: {', '.join(AXES)} "
                f"(config fields go under [grid.params])"
            )
        if not isinstance(values, (list, tuple)):
            raise SweepError(f"grid axis {axis!r} must be a list of values")
        if not values:
            raise SweepError(f"grid axis {axis!r} is an empty list")
        axes_values[axis] = list(values)

    points: list[dict[str, Any]] = []
    if axes_values or grid_params or not data.get("cases"):
        axis_names = list(axes_values)
        param_names = list(grid_params)
        pools = [axes_values[a] for a in axis_names] + [
            grid_params[p] for p in param_names
        ]
        for combo in product(*pools) if pools else [()]:
            point = dict(zip(axis_names, combo[: len(axis_names)]))
            point_params = dict(zip(param_names, combo[len(axis_names) :]))
            if point_params:
                point["params"] = point_params
            points.append(point)

    cases_data = data.get("cases", [])
    if not isinstance(cases_data, (list, tuple)):
        raise SweepError("cases must be an array of tables")
    for index, case in enumerate(cases_data):
        points.append(_check_point_mapping(case, f"cases[{index}]"))

    plan_cache: dict[str, FaultPlan] = {}
    cases: list[SweepCase] = []
    seen: set[str] = set()
    duplicates = 0
    for index, point in enumerate(points):
        case = _compile_point(
            point, defaults, fixed_params, base, plan_cache, where=f"point {index}"
        )
        if case.key in seen:
            duplicates += 1
            continue
        seen.add(case.key)
        cases.append(case)
    if not cases:
        raise SweepError(
            f"sweep {name!r} compiles to zero jobs — give it a [grid] "
            f"and/or [[cases]]"
        )
    return SweepSpec(
        name=str(name),
        description=description,
        cases=tuple(cases),
        duplicates=duplicates,
    )


def _compile_point(
    point: Mapping[str, Any],
    defaults: Mapping[str, Any],
    fixed_params: Mapping[str, Any],
    base: Path,
    plan_cache: dict[str, FaultPlan],
    where: str,
) -> SweepCase:
    def resolve(axis: str, fallback: Any) -> Any:
        if axis in point:
            return point[axis]
        return defaults.get(axis, fallback)

    protocol = resolve("protocol", None)
    trace = resolve("trace", None)
    if protocol is None:
        raise SweepError(f"{where}: no protocol (set it in [grid], [defaults], or the case)")
    if trace is None:
        raise SweepError(f"{where}: no trace (set it in [grid], [defaults], or the case)")
    faults_value = resolve("faults", "")
    swept = {
        a.name: str(resolve(a.name, a.default) or a.default) for a in GRID_AXES
    }
    job_axes, config_axes = split_axes(swept)
    seed = resolve("seed", 0)
    max_packets = resolve("max_packets", DEFAULT_MAX_PACKETS)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SweepError(f"{where}: seed must be an integer, got {seed!r}")
    if not isinstance(max_packets, int) or isinstance(max_packets, bool) or max_packets < 0:
        raise SweepError(
            f"{where}: max_packets must be a non-negative integer "
            f"(0 = full trace), got {max_packets!r}"
        )
    cap = None if max_packets == 0 else max_packets

    params = dict(fixed_params)
    params.update(_check_params(point.get("params", {}), where))
    faults_label, plan = _resolve_faults(faults_value, base, plan_cache, where)

    try:
        config = SimulationConfig().with_(
            seed=seed, max_packets=cap, **config_axes, **params
        )
    except (TypeError, ValueError) as exc:
        raise SweepError(f"{where}: bad config params: {exc}") from None
    try:
        job = RunJob(
            trace=str(trace),
            protocol=str(protocol),
            config=config,
            trace_seed=seed,
            trace_max_packets=cap,
            faults=plan,
            **job_axes,
        )
    except ValueError as exc:
        raise SweepError(f"{where}: {exc}") from None
    return SweepCase(
        job=job,
        protocol=str(protocol),
        trace=str(trace),
        optional={**swept, "faults": faults_label},
        seed=seed,
        max_packets=cap,
        params=json.dumps(params, sort_keys=True),
    )


def _check_point_mapping(data: Any, where: str) -> dict[str, Any]:
    if not isinstance(data, Mapping):
        raise SweepError(f"{where} must be a table")
    unknown = set(data) - set(AXES) - {"params"}
    if unknown:
        raise SweepError(
            f"unknown keys {sorted(unknown)} in {where}; "
            f"expected {', '.join(AXES)} or params"
        )
    return dict(data)


def _check_params(data: Any, where: str) -> dict[str, Any]:
    if not isinstance(data, Mapping):
        raise SweepError(f"{where} params must be a table of config fields")
    out = {}
    for key, value in data.items():
        _check_param_name(key, where)
        out[key] = value
    return out


def _grid_params(data: Any) -> dict[str, list[Any]]:
    if not isinstance(data, Mapping):
        raise SweepError("grid.params must be a table of config field -> list")
    out: dict[str, list[Any]] = {}
    for key, values in data.items():
        _check_param_name(key, "grid.params")
        if not isinstance(values, (list, tuple)) or not values:
            raise SweepError(
                f"grid.params.{key} must be a non-empty list of values"
            )
        out[key] = list(values)
    return out


def _check_param_name(key: str, where: str) -> None:
    if key in _RESERVED_PARAMS:
        raise SweepError(
            f"{where}: {key!r} is a sweep axis, not a param — "
            f"set it at the grid/defaults/case level"
        )
    if key not in _CONFIG_FIELDS:
        raise SweepError(
            f"{where}: unknown config param {key!r}; known: "
            f"{sorted(_CONFIG_FIELDS - set(_RESERVED_PARAMS))}"
        )


def _resolve_faults(
    value: Any, base: Path, plan_cache: dict[str, FaultPlan], where: str
) -> tuple[str, FaultPlan]:
    """A faults axis value — ``""``, a spec string, a plan-file path, or
    an inline plan table, read by :func:`repro.faults.resolve_fault_plan`
    — as ``(store label, FaultPlan)``: the label is the value itself, or
    ``inline:<sha8>`` for a table."""
    if value is None:
        value = ""
    if isinstance(value, Mapping):
        try:
            plan = resolve_fault_plan(value)
        except (ValueError, TypeError, KeyError) as exc:
            raise SweepError(f"{where}: bad inline fault plan: {exc}") from None
        return "inline:" + hashlib.sha256(plan.to_json().encode()).hexdigest()[:8], plan
    if not isinstance(value, str):
        raise SweepError(
            f"{where}: faults must be '' (none), a spec string, a plan-file "
            f"path, or an inline plan table, got {value!r}"
        )
    plan = plan_cache.get(value)
    if plan is None:
        try:
            plan = plan_cache[value] = resolve_fault_plan(value, base)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SweepError(f"{where}: cannot load fault plan {value!r}: {exc}") from None
    return value, plan


__all__ = [
    "AXES",
    "SWEEP_SCHEMA",
    "SweepCase",
    "SweepError",
    "SweepSpec",
    "compile_sweep",
    "load_sweep",
]
