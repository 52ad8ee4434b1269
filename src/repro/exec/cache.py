"""Persistent content-addressed run cache.

Each completed job stores one JSON file named by the job's content
:meth:`~repro.exec.jobs.RunJob.key` under ``<dir>/runs/``; the payload
records the full digest (spec + source fingerprint), so an entry written
by an older source tree reads back as an *invalidation* — counted, treated
as a miss, and overwritten in place by the fresh result.  Writes go
through a temp file + ``os.replace`` so concurrent processes never
observe a torn entry.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.exec.jobs import RunJob, stored_axes

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/cesrm-repro``."""
    override = os.environ.get(CACHE_DIR_ENV, "")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "cesrm-repro"


@dataclass
class CacheStats:
    """Hit/miss/store/invalidation accounting for one cache handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0

    def describe(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.invalidations} invalidated"
        )


@dataclass(frozen=True)
class CacheEntry:
    """One stored run, as listed by ``cesrm cache``."""

    key: str
    trace: str
    protocol: str
    seed: int
    max_packets: int | None
    fingerprint: str
    size_bytes: int
    #: The run axes the stored job carries, name -> value: those off
    #: their defaults (an axis the entry pre-dates was at its default),
    #: plus a ``faults`` label when its fault plan is non-empty.
    axes: Mapping[str, Any] = field(default_factory=dict)
    #: Last-modified time of the entry file (what ``prune`` ages on).
    mtime: float = 0.0


@dataclass(frozen=True)
class PruneStats:
    """What one :meth:`RunCache.prune` pass removed and kept."""

    removed: int
    freed_bytes: int
    kept: int
    kept_bytes: int

    def describe(self) -> str:
        return (
            f"pruned {self.removed} entries ({self.freed_bytes} B), "
            f"kept {self.kept} ({self.kept_bytes} B)"
        )


@dataclass
class RunCache:
    """On-disk cache of :class:`~repro.exec.summary.RunSummary` payloads."""

    directory: Path = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)

    @property
    def runs_dir(self) -> Path:
        return self.directory / "runs"

    def _path(self, key: str) -> Path:
        return self.runs_dir / f"{key}.json"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, job: RunJob, fingerprint: str) -> dict[str, Any] | None:
        """The stored summary dict for ``job``, or None (miss).  An entry
        whose digest no longer matches (source changed) is a miss and is
        counted as an invalidation."""
        path = self._path(job.key())
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self.stats.misses += 1
            self.stats.invalidations += 1
            return None
        if payload.get("digest") != job.digest(fingerprint):
            self.stats.misses += 1
            self.stats.invalidations += 1
            return None
        self.stats.hits += 1
        return payload["summary"]

    def put(
        self, job: RunJob, fingerprint: str, summary: dict[str, Any]
    ) -> Path:
        """Atomically store ``summary`` for ``job`` (replacing any stale
        entry in the same slot)."""
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        path = self._path(job.key())
        payload = {
            "digest": job.digest(fingerprint),
            "fingerprint": fingerprint,
            "job": job.to_dict(),
            "summary": summary,
        }
        fd, tmp = tempfile.mkstemp(
            dir=str(self.runs_dir), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                # dumps, not dump: json.dump streams through the pure-Python
                # encoder; dumps is the C one, same bytes.
                handle.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    # ------------------------------------------------------------------
    # Inspection / maintenance
    # ------------------------------------------------------------------
    def entries(self) -> list[CacheEntry]:
        out = []
        for path in sorted(self.runs_dir.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
                job = payload["job"]
                stat = path.stat()
                out.append(
                    CacheEntry(
                        key=path.stem,
                        trace=job["trace"],
                        protocol=job["protocol"],
                        seed=job["config"]["seed"],
                        max_packets=job["trace_max_packets"],
                        fingerprint=payload.get("fingerprint", ""),
                        size_bytes=stat.st_size,
                        axes=stored_axes(job),
                        mtime=stat.st_mtime,
                    )
                )
            except (OSError, KeyError, json.JSONDecodeError, TypeError):
                continue
        return out

    def size_bytes(self) -> int:
        return sum(
            path.stat().st_size
            for path in self.runs_dir.glob("*.json")
            if path.is_file()
        )

    def clear(self) -> int:
        """Delete every stored run; returns how many were removed."""
        removed = 0
        for path in self.runs_dir.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def prune(
        self,
        older_than: float | None = None,
        max_size: int | None = None,
        now: float | None = None,
    ) -> PruneStats:
        """Garbage-collect the cache: drop entries last written more than
        ``older_than`` seconds ago, then — if the survivors still exceed
        ``max_size`` bytes — drop oldest-first until they fit.

        Sweeps grow the cache fast (one entry per grid point per source
        fingerprint); this is the maintenance valve.  ``now`` overrides
        the clock for tests.
        """
        if now is None:
            now = time.time()
        entries: list[tuple[float, int, Path]] = []
        for path in self.runs_dir.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest first

        removed = 0
        freed = 0
        kept: list[tuple[float, int, Path]] = []
        for mtime, size, path in entries:
            if older_than is not None and now - mtime > older_than:
                if self._unlink(path):
                    removed += 1
                    freed += size
                    continue
            kept.append((mtime, size, path))
        if max_size is not None:
            total = sum(size for _, size, _ in kept)
            survivors = []
            for mtime, size, path in kept:
                if total > max_size and self._unlink(path):
                    removed += 1
                    freed += size
                    total -= size
                    continue
                survivors.append((mtime, size, path))
            kept = survivors
        return PruneStats(
            removed=removed,
            freed_bytes=freed,
            kept=len(kept),
            kept_bytes=sum(size for _, size, _ in kept),
        )

    @staticmethod
    def _unlink(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False


# ----------------------------------------------------------------------
# Human-friendly units for the prune CLI
# ----------------------------------------------------------------------
_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}
_SIZE_UNITS = {"": 1, "b": 1, "k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_age(text: str) -> float:
    """``"7d"``/``"12h"``/``"30m"``/``"45s"`` (or bare seconds) -> seconds."""
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([smhdw]?)\s*", text.lower())
    if not match:
        raise ValueError(
            f"invalid age {text!r}: expected <number>[s|m|h|d|w], e.g. 7d"
        )
    return float(match.group(1)) * _AGE_UNITS.get(match.group(2) or "s", 1.0)


def parse_size(text: str) -> int:
    """``"500M"``/``"2G"``/``"64K"`` (or bare bytes) -> bytes."""
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([kmgb]?)i?b?\s*", text.lower())
    if not match:
        raise ValueError(
            f"invalid size {text!r}: expected <number>[K|M|G], e.g. 500M"
        )
    return int(float(match.group(1)) * _SIZE_UNITS[match.group(2)])
