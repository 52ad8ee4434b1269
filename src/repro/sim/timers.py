"""Restartable timers built on top of the raw event queue.

SRM and CESRM are timer-driven protocols: request timers, reply timers,
back-off abstinence timers, reply abstinence timers, reorder-delay timers,
session timers.  :class:`Timer` gives them a uniform restart/cancel
interface; :class:`PeriodicTimer` drives fixed-period activities such as
session-message exchange and the data source's packet clock.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.events import EventKind, callback_label, callback_node
from repro.sim.engine import Simulator
from repro.sim.events import Event


class Timer:
    """A one-shot timer that can be started, restarted, and cancelled.

    The callback is supplied once at construction; ``start`` (re)arms the
    timer, implicitly cancelling any previous arming.  ``expiry`` exposes the
    absolute fire time while armed.

    When the engine has a tracer attached, every arm/fire/cancel emits a
    ``timer.*`` trace event labelled with the callback (and attributed to
    the owning agent's host when the callback is an agent method).
    """

    __slots__ = ("_sim", "_callback", "_args", "_event")

    def __init__(self, sim: Simulator, callback: Callable[..., Any], *args: Any) -> None:
        self._sim = sim
        self._callback = callback
        self._args = args
        self._event: Event | None = None

    @property
    def armed(self) -> bool:
        """True while the timer is pending."""
        return self._event is not None and self._event.pending

    @property
    def expiry(self) -> float | None:
        """Absolute simulated fire time, or None when not armed."""
        if self.armed:
            assert self._event is not None
            return self._event.time
        return None

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer ``delay`` seconds from now."""
        self.start_at(self._sim.now + delay)

    def start_at(self, time: float) -> None:
        """Arm (or re-arm) the timer at the absolute simulated ``time``."""
        self.cancel()
        self._event = self._sim.schedule_at(time, self._fire)
        if self._sim.tracer is not None:
            self._trace(EventKind.TIMER_SCHEDULE, at=time)

    def cancel(self) -> None:
        """Disarm the timer.  Idempotent; safe when never started."""
        if self._event is not None:
            if self._sim.tracer is not None and self._event.pending:
                self._trace(EventKind.TIMER_CANCEL)
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        if self._sim.tracer is not None:
            self._trace(EventKind.TIMER_FIRE)
        self._callback(*self._args)

    def _trace(self, kind: str, **detail: Any) -> None:
        self._sim.tracer.emit(
            self._sim.now,
            kind,
            node=callback_node(self._callback),
            timer=callback_label(self._callback),
            **detail,
        )


class PeriodicTimer:
    """Fires a callback every ``period`` seconds until stopped.

    The first firing happens ``first_delay`` seconds after :meth:`start`
    (defaulting to one full period).  Rescheduling happens *before* the
    callback runs, so a callback may stop the timer to break the cycle.
    """

    __slots__ = ("_sim", "period", "_callback", "_args", "_event", "_ticks")

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self._sim = sim
        self.period = period
        self._callback = callback
        self._args = args
        self._event: Event | None = None
        self._ticks = 0

    @property
    def running(self) -> bool:
        return self._event is not None and self._event.pending

    @property
    def ticks(self) -> int:
        """Number of times the callback has fired."""
        return self._ticks

    def start(self, first_delay: float | None = None) -> None:
        """Begin ticking; ``first_delay`` defaults to one period."""
        self.stop()
        delay = self.period if first_delay is None else first_delay
        self._event = self._sim.schedule(delay, self._fire)
        if self._sim.tracer is not None:
            self._trace(EventKind.TIMER_SCHEDULE, at=self._event.time)

    def stop(self) -> None:
        if self._event is not None:
            if self._sim.tracer is not None and self._event.pending:
                self._trace(EventKind.TIMER_CANCEL)
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = self._sim.schedule(self.period, self._fire)
        self._ticks += 1
        if self._sim.tracer is not None:
            self._trace(EventKind.TIMER_FIRE, tick=self._ticks)
        self._callback(*self._args)

    def _trace(self, kind: str, **detail: Any) -> None:
        self._sim.tracer.emit(
            self._sim.now,
            kind,
            node=callback_node(self._callback),
            timer=callback_label(self._callback),
            period=self.period,
            **detail,
        )
