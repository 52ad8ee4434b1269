"""The name -> spec registry that *is* each pluggable surface.

The reproduction has five named choice points, each one public
:class:`Registry` instance used directly — there are no per-surface
``register_*`` / ``get_*`` / ``*_names`` functions:

==========================  ==========================================
``PROTOCOLS``               :mod:`repro.harness.registry`
``WORKLOADS``               :mod:`repro.workloads.registry`
``TOPOLOGIES``              :mod:`repro.net.families`
``CACHE_POLICIES``          :mod:`repro.core.cachelab`
``SELECTION_POLICIES``      :mod:`repro.core.policies`
==========================  ==========================================

What a surface declares, once, where it constructs its registry:

* ``kind`` — the noun in duplicate / unknown-name messages
  ("protocol", "cache policy");
* ``error`` — the exception class every message is raised as;
* ``label`` — the noun in spec-string grammar messages, when it differs
  from ``kind`` (topology *families* parse *topology* specs);
* ``listing`` — the spec attributes its ``cesrm <things>`` rows show
  beyond ``name / description / tags / params`` (``fabric`` for
  protocols, ``calibrated`` for topologies).

What it gets: ordered registration with ``replace=``-guarded
re-registration (:meth:`~Registry.register` / :meth:`~Registry.unregister`),
the single unknown-name check (:meth:`~Registry.get`, listing the known
names), :meth:`~Registry.names` / :meth:`~Registry.specs`, the surface's
binding of the shared :mod:`repro.harness.specstr` grammar
(:meth:`~Registry.resolve` parses a ``family:key=value`` string once and
looks the family up once; :meth:`~Registry.canonical` normalises it),
and the rows (:meth:`~Registry.rows`) the one listing renderer in
:mod:`repro.harness.cli` prints as text or ``--json``.  Message wording
is pinned by tests and identical across surfaces.

Anything with a ``name`` attribute registers — frozen spec dataclasses
and plain classes alike.
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, TypeVar

from repro.harness import specstr

S = TypeVar("S")


class Registry(Generic[S]):
    """An insertion-ordered name -> spec mapping with uniform errors."""

    def __init__(
        self,
        kind: str,
        error: type[Exception] = ValueError,
        *,
        label: str | None = None,
        listing: tuple[str, ...] = (),
    ):
        self.kind = kind
        self.error = error
        self.label = kind if label is None else label
        self.listing = listing
        self._specs: dict[str, S] = {}

    def register(self, spec: S, replace: bool = False) -> S:
        """Add ``spec`` under ``spec.name``.  Re-registering an existing
        name is an error unless ``replace=True`` (tests swapping in
        doubles)."""
        name = spec.name  # type: ignore[attr-defined]
        if not replace and name in self._specs:
            raise self.error(f"{self.kind} {name!r} is already registered")
        self._specs[name] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Remove a spec (primarily for tests cleaning up doubles)."""
        self._specs.pop(name, None)

    def get(self, name: str) -> S:
        """The spec registered under ``name``; raises ``self.error`` (with
        the known names) otherwise — each surface's single validation
        point."""
        spec = self._specs.get(name)
        if spec is None:
            raise self.error(
                f"unknown {self.kind} {name!r}; known: {self.names()}"
            )
        return spec

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._specs)

    def specs(self) -> tuple[S, ...]:
        return tuple(self._specs.values())

    # ------------------------------------------------------------------
    # Spec strings: the shared grammar under this surface's noun + error
    # ------------------------------------------------------------------
    def resolve(self, spec: str) -> tuple[S, dict[str, str]]:
        """``family:key=value,...`` -> ``(registered entry, raw params)``:
        one parse, one lookup."""
        family, params = specstr.parse_spec(
            spec, label=self.label, error=self.error
        )
        return self.get(family), params

    def canonical(self, spec: str) -> str:
        """The normalized spelling equivalent spec strings share (family,
        then the *user-supplied* parameters sorted by key — defaults stay
        implicit)."""
        entry, params = self.resolve(spec)
        return specstr.canonical_spec(entry.name, params)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Listings
    # ------------------------------------------------------------------
    def rows(self) -> list[dict[str, Any]]:
        """One ``cesrm <things> --json`` row per registered spec."""
        rows = []
        for spec in self._specs.values():
            row = {
                "name": spec.name,
                "description": spec.description,
                "tags": list(spec.tags),
            }
            if hasattr(spec, "params_doc"):
                row["params"] = dict(spec.params_doc)
            for key in self.listing:
                row[key] = getattr(spec, key)
            rows.append(row)
        return rows

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)


__all__ = ["Registry"]
