"""The built-in workload families.

Each family is a :class:`~repro.workloads.registry.WorkloadSpec` whose
factory validates the raw ``key=value`` parameters once (at compile
time) and returns a pure ``generate(trace, rng)`` callable.  All rates
are expressed relative to the trace's nominal packet period, so a
workload composes with any trace or topology without re-tuning: the
trace still fixes *how many* packets are sent (``trace.n_packets``) and
what the network drops; the workload decides *when* and *by whom*.

Families shipped (the ISSUE's grammar):

``cbr``
    The legacy constant-bit-rate schedule — packet ``i`` at ``i·period``
    from the source (``rate=2`` doubles the pace).
``poisson``
    Memoryless arrivals at ``rate`` packets/s (default ``1/period``).
``zipf``
    Zipf-popular objects sent as bursty back-to-back trains — the
    temporally-local traffic CESRM's recovery cache thrives on.
``flash_crowd``
    Rate ramps to ``peak``× over ``ramp`` seconds mid-run, holds, and
    ramps back down.
``diurnal``
    Sinusoidal rate between ``min``× and 1× with cycle ``period``.
``multi_source``
    ``senders`` hosts take round-robin turns multicasting (any-source
    SRM; each sender numbers its own stream from 0).
``trace``
    Pace with the packet period of the *named* Yajnik trace — replay
    WRN951128's timing over any topology.
"""

from __future__ import annotations

import math
import random
from typing import Mapping

from repro.harness import specstr
from repro.traces.model import LossTrace
from repro.workloads.registry import (
    WORKLOADS,
    SendEvent,
    WorkloadError,
    WorkloadSpec,
)

#: The family :class:`~repro.exec.jobs.RunJob` treats as the implicit
#: default: ``workload=""`` runs the same source-paced schedule the
#: pre-workload harness hard-coded (and stays byte-identical to it).
DEFAULT_WORKLOAD = "cbr"


# ----------------------------------------------------------------------
# Parameter coercion — the shared repro.harness.specstr helpers, bound
# to this surface's noun and error type (messages unchanged, pinned by
# tests).
# ----------------------------------------------------------------------
def _consume(params: dict, key: str, default: str | None = None) -> str | None:
    return specstr.consume(params, key, default)


def _reject_unknown(params: Mapping[str, str], family: str) -> None:
    specstr.reject_unknown(params, f"workload {family!r}", WorkloadError)


def _as_float(value: str, family: str, key: str) -> float:
    """Parse a number, tolerating the grammar's unit suffixes: ``20x``
    (multiplier), ``5s`` (seconds), ``40ms`` (milliseconds)."""
    return specstr.coerce_float(value, f"workload {family!r}", key, WorkloadError)


def _float_param(
    params: dict, family: str, key: str, default: float,
    minimum: float | None = None,
) -> float:
    return specstr.float_param(
        params, f"workload {family!r}", key, default, minimum, WorkloadError
    )


def _int_param(
    params: dict, family: str, key: str, default: int, minimum: int = 1
) -> int:
    return specstr.int_param(
        params, f"workload {family!r}", key, default, minimum, WorkloadError
    )


# ----------------------------------------------------------------------
# cbr — the legacy schedule, made explicit
# ----------------------------------------------------------------------
def _cbr_factory(params: dict):
    rate = _float_param(params, "cbr", "rate", 1.0, minimum=1e-9)
    _reject_unknown(params, "cbr")

    def generate(trace: LossTrace, rng: random.Random):
        src = trace.tree.source
        # rate == 1 reproduces the hard-coded ``seq * period`` schedule
        # float for float, so a cbr run differs from a default run only
        # by carrying workload metadata.
        step = trace.period if rate == 1.0 else trace.period / rate
        for seq in range(trace.n_packets):
            yield SendEvent(seq * step, src, seq)

    return generate


# ----------------------------------------------------------------------
# poisson — memoryless arrivals
# ----------------------------------------------------------------------
def _poisson_factory(params: dict):
    rate = _consume(params, "rate")
    _reject_unknown(params, "poisson")
    pps = None if rate is None else _as_float(rate, "poisson", "rate")
    if pps is not None and pps <= 0:
        raise WorkloadError(f"workload 'poisson': rate={pps!r} must be > 0")

    def generate(trace: LossTrace, rng: random.Random):
        src = trace.tree.source
        lam = pps if pps is not None else 1.0 / trace.period
        t = 0.0
        for seq in range(trace.n_packets):
            yield SendEvent(t, src, seq)
            t += rng.expovariate(lam)

    return generate


# ----------------------------------------------------------------------
# zipf — popularity-skewed object trains (temporal locality)
# ----------------------------------------------------------------------
def _zipf_factory(params: dict):
    alpha = _float_param(params, "zipf", "alpha", 1.1, minimum=0.0)
    objects = _int_param(params, "zipf", "objects", 100)
    train = _float_param(params, "zipf", "train", 8.0, minimum=1.0)
    burst = _float_param(params, "zipf", "burst", 4.0, minimum=1.0)
    _reject_unknown(params, "zipf")

    # Inverse-CDF table for the Zipf(alpha) popularity of object ranks.
    weights = [1.0 / (rank ** alpha) for rank in range(1, objects + 1)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    cumulative[-1] = 1.0  # guard float undershoot

    def draw_object(rng: random.Random) -> int:
        u = rng.random()
        lo, hi = 0, objects - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def generate(trace: LossTrace, rng: random.Random):
        src = trace.tree.source
        period = trace.period
        spacing = period / burst  # intra-train pace
        n = trace.n_packets
        seq = 0
        t = 0.0
        while seq < n:
            obj = draw_object(rng)
            # Geometric train length with the requested mean: trains of
            # packets for one hot object arrive back-to-back, then the
            # source idles so the long-run rate stays ~1/period.
            length = 1
            p_continue = 1.0 - 1.0 / train
            while seq + length < n and rng.random() < p_continue:
                length += 1
            for _ in range(length):
                yield SendEvent(t, src, seq, obj=obj)
                seq += 1
                t += spacing
            t += length * (period - spacing)

    return generate


# ----------------------------------------------------------------------
# flash_crowd — a mid-run surge
# ----------------------------------------------------------------------
def _flash_crowd_factory(params: dict):
    peak = _float_param(params, "flash_crowd", "peak", 10.0, minimum=1.0)
    ramp = _float_param(params, "flash_crowd", "ramp", 5.0, minimum=0.0)
    hold = _float_param(params, "flash_crowd", "hold", -1.0)
    start = _float_param(params, "flash_crowd", "start", -1.0)
    _reject_unknown(params, "flash_crowd")

    def generate(trace: LossTrace, rng: random.Random):
        src = trace.tree.source
        period = trace.period
        nominal = trace.n_packets * period
        surge_at = start if start >= 0 else 0.4 * nominal
        surge_hold = hold if hold >= 0 else ramp

        def factor(t: float) -> float:
            dt = t - surge_at
            if dt < 0 or dt > 2 * ramp + surge_hold:
                return 1.0
            if dt < ramp:
                return 1.0 + (peak - 1.0) * (dt / ramp if ramp > 0 else 1.0)
            if dt < ramp + surge_hold:
                return peak
            down = dt - ramp - surge_hold
            return peak - (peak - 1.0) * (down / ramp if ramp > 0 else 1.0)

        t = 0.0
        for seq in range(trace.n_packets):
            yield SendEvent(t, src, seq)
            t += period / factor(t)

    return generate


# ----------------------------------------------------------------------
# diurnal — sinusoidal load cycle
# ----------------------------------------------------------------------
def _diurnal_factory(params: dict):
    cycle = _float_param(params, "diurnal", "period", 60.0, minimum=1e-6)
    floor = _float_param(params, "diurnal", "min", 0.2, minimum=1e-6)
    phase = _float_param(params, "diurnal", "phase", 0.0)
    _reject_unknown(params, "diurnal")
    if floor > 1.0:
        raise WorkloadError(f"workload 'diurnal': min={floor!r} must be <= 1")

    def generate(trace: LossTrace, rng: random.Random):
        src = trace.tree.source
        period = trace.period
        t = 0.0
        for seq in range(trace.n_packets):
            yield SendEvent(t, src, seq)
            swing = 0.5 - 0.5 * math.cos(2 * math.pi * (t / cycle + phase))
            t += period / (floor + (1.0 - floor) * swing)

    return generate


# ----------------------------------------------------------------------
# multi_source — any-source SRM traffic
# ----------------------------------------------------------------------
def _multi_source_factory(params: dict):
    senders = _int_param(params, "multi_source", "senders", 2)
    _reject_unknown(params, "multi_source")

    def generate(trace: LossTrace, rng: random.Random):
        tree = trace.tree
        hosts = [tree.source, *tree.receivers]
        k = min(senders, len(hosts))
        pool = hosts[:k]
        counts = {host: 0 for host in pool}
        for i in range(trace.n_packets):
            sender = pool[i % k]
            yield SendEvent(i * trace.period, sender, counts[sender])
            counts[sender] += 1

    return generate


# ----------------------------------------------------------------------
# trace — pace with a named Yajnik trace
# ----------------------------------------------------------------------
def _trace_factory(params: dict):
    name = _consume(params, "name") or _consume(params, specstr.POSITIONAL)
    _reject_unknown(params, "trace")
    if not name:
        raise WorkloadError(
            "workload 'trace' needs the source trace name, e.g. trace:WRN951128"
        )
    from repro.traces.yajnik import trace_meta

    try:
        meta = trace_meta(name)
    except KeyError as exc:
        raise WorkloadError(str(exc)) from None

    def generate(trace: LossTrace, rng: random.Random):
        src = trace.tree.source
        for seq in range(trace.n_packets):
            yield SendEvent(seq * meta.period, src, seq)

    return generate


# ----------------------------------------------------------------------
# Registration (listing order = the grammar examples' order)
# ----------------------------------------------------------------------
WORKLOADS.register(
    WorkloadSpec(
        name="cbr",
        factory=_cbr_factory,
        description="constant rate from the source (the implicit default)",
        params_doc={"rate": "1 — pace multiplier over 1/period"},
    )
)
WORKLOADS.register(
    WorkloadSpec(
        name="poisson",
        factory=_poisson_factory,
        description="memoryless arrivals at a fixed mean rate",
        params_doc={"rate": "1/period — mean packets per second"},
    )
)
WORKLOADS.register(
    WorkloadSpec(
        name="zipf",
        factory=_zipf_factory,
        description="Zipf-popular objects in back-to-back trains (locality)",
        params_doc={
            "alpha": "1.1 — Zipf skew exponent",
            "objects": "100 — distinct objects",
            "train": "8 — mean packets per object train",
            "burst": "4 — intra-train speedup over 1/period",
        },
        tags=("locality",),
    )
)
WORKLOADS.register(
    WorkloadSpec(
        name="flash_crowd",
        factory=_flash_crowd_factory,
        description="rate surges to peak× mid-run, holds, ramps back",
        params_doc={
            "peak": "10x — surge rate multiplier",
            "ramp": "5s — ramp-up/-down duration",
            "hold": "=ramp — plateau duration",
            "start": "0.4·duration — surge start (seconds)",
        },
        tags=("bursty",),
    )
)
WORKLOADS.register(
    WorkloadSpec(
        name="diurnal",
        factory=_diurnal_factory,
        description="sinusoidal rate cycle between min× and 1×",
        params_doc={
            "period": "60s — cycle length",
            "min": "0.2 — trough rate fraction",
            "phase": "0 — cycle phase offset (fraction)",
        },
    )
)
WORKLOADS.register(
    WorkloadSpec(
        name="multi_source",
        factory=_multi_source_factory,
        description="round-robin any-source traffic from N hosts",
        params_doc={"senders": "2 — multicasting hosts (source + receivers)"},
        tags=("any-source",),
    )
)
WORKLOADS.register(
    WorkloadSpec(
        name="trace",
        factory=_trace_factory,
        description="pace with the named Yajnik trace's packet period",
        params_doc={"name": "(required) — Table 1 trace, e.g. WRN951128"},
    )
)


__all__ = ["DEFAULT_WORKLOAD"]
