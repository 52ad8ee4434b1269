"""The shared ``family:key=value,...`` spec-string grammar.

Four harness surfaces speak the same mini-language — workloads
(``zipf:alpha=1.1,objects=500``), generative topologies
(``tree:depth=3,fanout=2``), fault events (``node-crash:host=r2,at=5s``),
and cache policies (``ttl:capacity=16,ttl=30s``).  This module is the
single parser and the single set of typed coercions behind all of them::

    family[:key=value[,key=value...]]

A single bare token (no ``=``) is a positional value, stored under
:data:`POSITIONAL`.  Unit suffixes are uniform across surfaces: ``5s``
(seconds), ``40ms`` (milliseconds), ``20x`` (multiplier).

Every caller keeps its own error type (``WorkloadError``, ``CacheError``,
...) and noun ("workload", "cache policy") — pass them as ``error`` and
``label``/``where`` so messages stay domain-specific while the grammar
stays in one place (a registry-backed surface binds both once, in
:meth:`repro.harness.registries.Registry.resolve`).  The wording below
is pinned by tests: it predates this module (it was the workloads
parser) and summary digests and CLI output depend on canonical spec
strings not changing.
"""

from __future__ import annotations

import math
from typing import Mapping, MutableMapping

#: The parameter key a bare (``key=``-less) token is stored under; a
#: family taking one positional value reads it from here.
POSITIONAL = ""


class SpecError(ValueError):
    """Default error for malformed spec strings; callers usually pass
    their own subclass of :class:`ValueError` via ``error=``."""


# ----------------------------------------------------------------------
# Grammar
# ----------------------------------------------------------------------
def parse_spec(
    spec: str,
    *,
    label: str = "spec",
    error: type[Exception] = SpecError,
) -> tuple[str, dict[str, str]]:
    """``family:key=value,...`` -> ``(family, params)``.

    A single bare token (no ``=``) is allowed as a positional value and
    stored under :data:`POSITIONAL`; everything else must be
    ``key=value``.  ``label`` names the surface in error messages
    ("workload", "fault", "cache policy"); ``error`` is the exception
    class raised.
    """
    spec = spec.strip()
    if not spec:
        raise error(f"empty {label} spec")
    family, sep, rest = spec.partition(":")
    family = family.strip()
    if not family:
        raise error(f"{label} spec {spec!r} has no family name")
    if sep and not rest.strip():
        raise error(f"{label} spec {spec!r} has a trailing ':'")
    params: dict[str, str] = {}
    if rest.strip():
        for token in rest.split(","):
            token = token.strip()
            if not token:
                raise error(f"empty parameter in {label} spec {spec!r}")
            key, eq, value = token.partition("=")
            key, value = key.strip(), value.strip()
            if not eq:
                if POSITIONAL in params:
                    raise error(
                        f"{label} spec {spec!r} has more than one positional value"
                    )
                params[POSITIONAL] = key
                continue
            if not key or not value:
                raise error(
                    f"malformed parameter {token!r} in {label} spec {spec!r}"
                )
            if key in params:
                raise error(
                    f"duplicate parameter {key!r} in {label} spec {spec!r}"
                )
            params[key] = value
    return family, params


def canonical_spec(family: str, params: Mapping[str, str]) -> str:
    """The normalized spec string: family, then parameters sorted by key
    (a positional value sorts first, rendered bare)."""
    if not params:
        return family
    parts = []
    for key in sorted(params):
        value = params[key]
        parts.append(value if key == POSITIONAL else f"{key}={value}")
    return f"{family}:{','.join(parts)}"


# ----------------------------------------------------------------------
# Typed coercions
# ----------------------------------------------------------------------
def consume(
    params: MutableMapping[str, str], key: str, default: str | None = None
) -> str | None:
    """Pop ``key`` from the raw parameter mapping (so leftovers can be
    rejected as unknown afterwards)."""
    value = params.pop(key, None)
    return default if value is None else value


def reject_unknown(
    params: Mapping[str, str],
    where: str,
    error: type[Exception] = SpecError,
) -> None:
    """Raise on any parameter the family did not :func:`consume`.
    ``where`` reads like ``"workload 'zipf'"``."""
    if params:
        raise error(f"unknown parameter(s) {sorted(params)} for {where}")


def coerce_float(
    value: str, where: str, key: str, error: type[Exception] = SpecError
) -> float:
    """Parse a number, tolerating the grammar's unit suffixes: ``20x``
    (multiplier), ``5s`` (seconds), ``40ms`` (milliseconds)."""
    text = value.strip().lower()
    scale = 1.0
    if text.endswith("ms"):
        text, scale = text[:-2], 1e-3
    elif text.endswith(("x", "s")):
        text = text[:-1]
    try:
        out = scale * float(text)
    except ValueError:
        raise error(
            f"{where}: parameter {key}={value!r} is not a number"
        ) from None
    if not math.isfinite(out):
        raise error(f"{where}: {key}={value!r} is not finite")
    return out


def float_param(
    params: MutableMapping[str, str],
    where: str,
    key: str,
    default: float,
    minimum: float | None = None,
    error: type[Exception] = SpecError,
) -> float:
    raw = consume(params, key)
    out = default if raw is None else coerce_float(raw, where, key, error)
    if minimum is not None and out < minimum:
        raise error(f"{where}: {key}={out!r} must be >= {minimum}")
    return out


def coerce_int(
    value: str, where: str, key: str, error: type[Exception] = SpecError
) -> int:
    try:
        return int(value)
    except ValueError:
        raise error(
            f"{where}: parameter {key}={value!r} is not an integer"
        ) from None


def int_param(
    params: MutableMapping[str, str],
    where: str,
    key: str,
    default: int,
    minimum: int = 1,
    error: type[Exception] = SpecError,
) -> int:
    raw = consume(params, key)
    if raw is None:
        return default
    out = coerce_int(raw, where, key, error)
    if out < minimum:
        raise error(f"{where}: {key}={out} must be >= {minimum}")
    return out


__all__ = [
    "POSITIONAL",
    "SpecError",
    "canonical_spec",
    "coerce_float",
    "coerce_int",
    "consume",
    "float_param",
    "int_param",
    "parse_spec",
    "reject_unknown",
]
