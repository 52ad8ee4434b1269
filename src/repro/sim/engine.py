"""The discrete-event simulation loop.

:class:`Simulator` keeps a virtual clock and a *batched* event queue: a
binary heap of distinct timestamps plus one FIFO bucket of entries per
timestamp.  Running the simulator drains whole buckets in scheduling order
— simultaneous events cost one heap operation for the batch instead of one
``heappush``/``heappop`` (plus ``Event`` comparisons) each, which is where
the old flat-heap engine spent most of its time on hop-dense multicast
floods.  The clock only moves when an event fires, so simulated time is
completely decoupled from wall-clock time.

Two scheduling paths share the queue:

* :meth:`schedule` / :meth:`schedule_at` allocate a cancellable
  :class:`~repro.sim.events.Event` (timers, agent work);
* :meth:`schedule_raw` enqueues a bare ``(callback, args)`` pair with no
  ``Event`` allocation, for the network's per-hop arrivals, which are never
  cancelled and dominate the event count.

Cancellation stays lazy (flag and skip), but cancelled entries are now
*compacted*: each bucket sheds them the moment it is drained, and
:meth:`run` sweeps the whole queue at a fixed event cadence so a restarted
timer's corpse never outlives its bucket by much.

Determinism contract
--------------------
Given identical schedules and identical random streams (see
:class:`~repro.sim.rng.RngRegistry`), two runs produce identical event
sequences.  Batching preserves the total ``(time, scheduling-order)``
order exactly: buckets pop in time order and each bucket is FIFO.  The
engine never consults global randomness or wall-clock time.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.sim.events import Event

#: Fired-event cadence at which :meth:`Simulator.run` compacts
#: lazily-cancelled entries out of future buckets.
COMPACT_INTERVAL = 1 << 16


class SimulationError(RuntimeError):
    """Raised on engine misuse (scheduling in the past, etc.)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(1.0, out.append, "a")
    >>> _ = sim.schedule(0.5, out.append, "b")
    >>> sim.run()
    >>> out
    ['b', 'a']
    >>> sim.now
    1.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: Heap of distinct timestamps with a pending bucket.
        self._times: list[float] = []
        #: timestamp -> FIFO list of entries (Event | (callback, args)).
        self._buckets: dict[float, list[Any]] = {}
        #: Bucket currently being drained (already popped from _buckets).
        self._bucket: list[Any] | None = None
        self._bucket_time = 0.0
        self._bucket_pos = 0
        self._seq = 0
        self._events_processed = 0
        self._running = False
        self._stopped = False
        #: Optional observability hooks (repro.obs).  Both default to None
        #: — the disabled state — so an untraced run pays only an
        #: ``is None`` branch per event; instrumented layers reach the
        #: tracer through this single plumbing point.
        self.tracer = None
        self.profiler = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_processed

    def coalesced(self, extra: int) -> None:
        """The entry now firing stands in for ``extra`` further events.

        A forwarding kernel that delivers several same-instant packet
        arrivals from one queue entry calls this from inside the entry, so
        :attr:`events_processed` (and an attached profiler's event count)
        reads as if each arrival had fired on its own.  What the engine
        *steps* by stays the entry: ``step()``, ``max_events``, ``stop()``
        and ``clear()`` act between entries, never inside one.
        """
        self._events_processed += extra
        if self.profiler is not None:
            self.profiler.events += extra

    @property
    def pending_events(self) -> int:
        """Number of events still queued, excluding lazily-cancelled ones."""
        count = 0
        if self._bucket is not None:
            count += sum(
                1
                for e in self._bucket[self._bucket_pos :]
                if type(e) is tuple or not e.cancelled
            )
        for bucket in self._buckets.values():
            count += sum(1 for e in bucket if type(e) is tuple or not e.cancelled)
        return count

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Returns the :class:`Event`, which may be cancelled until it fires.
        ``delay`` must be non-negative; zero-delay events fire after all
        events already scheduled for the current instant (FIFO order).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay!r})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at the absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time!r} before now={self._now!r}"
            )
        event = Event(time, self._seq, callback, args)
        self._seq += 1
        self._push(time, event)
        return event

    def schedule_raw(
        self, time: float, callback: Callable[..., Any], args: tuple[Any, ...]
    ) -> None:
        """Schedule a non-cancellable ``callback(*args)`` at ``time``.

        The fast path for fire-and-forget work (the network's per-hop
        packet arrivals): no :class:`Event` is allocated and nothing is
        returned.  Ordering relative to :meth:`schedule_at` is exactly
        call order, as if an ``Event`` had been created.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time!r} before now={self._now!r}"
            )
        # Inline of _push (this is the hottest scheduling entry point).
        bucket = self._buckets.get(time)
        if bucket is not None:
            bucket.append((callback, args))
            return
        self._push_new(time, (callback, args))

    def _push(self, time: float, entry: Any) -> None:
        bucket = self._buckets.get(time)
        if bucket is not None:
            bucket.append(entry)
            return
        self._push_new(time, entry)

    def _push_new(self, time: float, entry: Any) -> None:
        """Enqueue ``entry`` at ``time`` for a caller that has just found
        no pending bucket there (``_buckets.get(time)`` missed) and knows
        ``time`` is not in the past: the rest of :meth:`_push`, with no
        second lookup.  The network's flood loop calls it directly for
        each new arrival instant."""
        current = self._bucket
        if current is not None:
            if time == self._bucket_time:
                # The instant being drained: fires later in this very batch.
                current.append(entry)
                return
            if time < self._bucket_time:
                # Earlier than the paused drain cursor — possible only
                # between runs, after an ``until``/``max_events`` break
                # left a partially drained bucket detached.  Requeue its
                # remainder so heap order is restored.
                rest = current[self._bucket_pos :]
                if rest:
                    self._buckets[self._bucket_time] = rest
                    heapq.heappush(self._times, self._bucket_time)
                self._bucket = None
        self._buckets[time] = [entry]
        heapq.heappush(self._times, time)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next pending entry: ``run(max_events=1)``.

        Returns True if an entry fired, False if the queue is exhausted.
        """
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed != before

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        ``until`` is an absolute simulated time; events scheduled exactly at
        ``until`` still fire.  Afterwards the clock rests at the last fired
        event's time (or at ``until`` if that is later and the queue held a
        later event).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        fired = 0
        # The one drain loop (``step()`` is ``run(max_events=1)``), with
        # the cursor advance and the fire inlined: at millions of events
        # per run a method call per event is measurable.
        heappop = heapq.heappop
        buckets = self._buckets
        next_compact = COMPACT_INTERVAL
        done = False
        try:
            while not done:
                # Advance the drain cursor to the next live entry.
                entry = None
                bucket = self._bucket
                pos = self._bucket_pos
                while True:
                    if bucket is not None:
                        size = len(bucket)
                        while pos < size:
                            candidate = bucket[pos]
                            if type(candidate) is tuple or not candidate.cancelled:
                                entry = candidate
                                break
                            pos += 1
                        if entry is not None:
                            break
                        self._bucket = bucket = None
                    times = self._times
                    if not times:
                        break
                    time = heappop(times)
                    bucket = buckets.pop(time)
                    self._bucket = bucket
                    self._bucket_time = time
                    pos = 0
                if entry is None:
                    break
                self._bucket_pos = pos
                time = self._bucket_time
                # Checked once per bucket: every entry in it shares ``time``,
                # including zero-delay events appended while draining.
                if until is not None and time > until:
                    if self._now < until:
                        self._now = until
                    break
                # Stop/limit checks happen before each fire — here for the
                # bucket's first entry (before the clock moves), at the loop
                # bottom for the rest.
                if self._stopped or (max_events is not None and fired >= max_events):
                    break
                self._now = time
                # Drain the selected bucket.
                while True:
                    self._bucket_pos = pos + 1
                    self._events_processed += 1
                    if type(entry) is tuple:
                        callback, args = entry
                    else:
                        entry.fired = True
                        callback = entry.callback
                        args = entry.args
                    if self.profiler is None:
                        callback(*args)
                    else:
                        self.profiler.record_call(callback, args)
                    fired += 1
                    if fired == next_compact:
                        next_compact += COMPACT_INTERVAL
                        self.compact()
                    # Next live entry in the same bucket, if any.
                    pos = self._bucket_pos
                    entry = None
                    size = len(bucket)
                    while pos < size:
                        candidate = bucket[pos]
                        if type(candidate) is tuple or not candidate.cancelled:
                            entry = candidate
                            break
                        pos += 1
                    if entry is None:
                        self._bucket = None
                        break
                    self._bucket_pos = pos
                    if self._stopped or (
                        max_events is not None and fired >= max_events
                    ):
                        done = True
                        break
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop :meth:`run` after the current event's callback returns."""
        self._stopped = True

    def clear(self) -> None:
        """Drop every pending event without firing it."""
        self._times.clear()
        self._buckets.clear()
        bucket = self._bucket
        if bucket is not None:
            # run()'s inlined drain loop holds a direct reference to the
            # active bucket; truncate it in place so the per-event size
            # re-read sees it exhausted and the loop halts even when
            # clear() is called from inside a firing callback.
            del bucket[self._bucket_pos :]
            self._bucket = None

    def compact(self) -> None:
        """Drop lazily-cancelled entries from every future bucket.

        Draining already compacts the active bucket; this sweeps the rest,
        bounding the memory held by restarted timers' stale events.  Called
        automatically by :meth:`run` every ``COMPACT_INTERVAL`` events and
        safe to call at any point.
        """
        empty: list[float] = []
        for time, bucket in self._buckets.items():
            live = [e for e in bucket if type(e) is tuple or not e.cancelled]
            if live:
                if len(live) != len(bucket):
                    self._buckets[time] = live
            else:
                empty.append(time)
        if empty:
            for time in empty:
                del self._buckets[time]
            # Rebuild the time heap without the now-empty timestamps (the
            # active bucket's time is not in the heap by construction).
            self._times = [t for t in self._times if t in self._buckets]
            heapq.heapify(self._times)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Simulator(now={self._now:.6f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )
