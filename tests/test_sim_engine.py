"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_starts_at_custom_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    out = []
    sim.schedule(2.0, out.append, "late")
    sim.schedule(1.0, out.append, "early")
    sim.schedule(3.0, out.append, "latest")
    sim.run()
    assert out == ["early", "late", "latest"]


def test_simultaneous_events_fire_fifo():
    sim = Simulator()
    out = []
    for i in range(10):
        sim.schedule(1.0, out.append, i)
    sim.run()
    assert out == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    times = []
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.schedule(4.25, lambda: times.append(sim.now))
    sim.run()
    assert times == [1.5, 4.25]
    assert sim.now == 4.25


def test_zero_delay_event_fires_after_current_instant_fifo():
    sim = Simulator()
    out = []

    def first():
        out.append("first")
        sim.schedule(0.0, out.append, "nested")

    sim.schedule(1.0, first)
    sim.schedule(1.0, out.append, "second")
    sim.run()
    assert out == ["first", "second", "nested"]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    out = []
    event = sim.schedule(1.0, out.append, "cancelled")
    sim.schedule(2.0, out.append, "kept")
    event.cancel()
    sim.run()
    assert out == ["kept"]


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert not event.pending


def test_cancel_from_within_callback():
    sim = Simulator()
    out = []
    later = sim.schedule(2.0, out.append, "later")
    sim.schedule(1.0, later.cancel)
    sim.run()
    assert out == []


def test_run_until_stops_before_later_events():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "in")
    sim.schedule(5.0, out.append, "out")
    sim.run(until=2.0)
    assert out == ["in"]
    assert sim.now == 2.0
    assert sim.pending_events == 1


def test_run_until_includes_boundary_events():
    sim = Simulator()
    out = []
    sim.schedule(2.0, out.append, "boundary")
    sim.run(until=2.0)
    assert out == ["boundary"]


def test_run_resumes_after_until():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "a")
    sim.schedule(3.0, out.append, "b")
    sim.run(until=2.0)
    sim.run()
    assert out == ["a", "b"]


def test_run_max_events():
    sim = Simulator()
    out = []
    for i in range(5):
        sim.schedule(float(i + 1), out.append, i)
    sim.run(max_events=3)
    assert out == [0, 1, 2]


def test_stop_halts_run():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "first")
    sim.schedule(1.5, sim.stop)
    sim.schedule(2.0, out.append, "unreached")
    sim.run()
    assert out == ["first"]
    sim.run()  # resumes after stop
    assert out == ["first", "unreached"]


def test_step_fires_single_event():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "a")
    sim.schedule(2.0, out.append, "b")
    assert sim.step()
    assert out == ["a"]
    assert sim.step()
    assert not sim.step()


def test_events_processed_counts_fired_only():
    sim = Simulator()
    kept = sim.schedule(1.0, lambda: None)
    cancelled = sim.schedule(2.0, lambda: None)
    cancelled.cancel()
    sim.run()
    assert sim.events_processed == 1
    assert kept.fired


def test_clear_drops_pending_events():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "x")
    sim.clear()
    sim.run()
    assert out == []


def test_clear_from_callback_halts_run():
    # clear() issued from inside a firing callback must stop the drain
    # loop dead: same-instant siblings and later buckets all vanish.
    sim = Simulator()
    out = []
    sim.schedule(1.0, lambda: (out.append("a"), sim.clear()))
    sim.schedule(1.0, out.append, "sibling")
    sim.schedule(2.0, out.append, "later")
    sim.run()
    assert out == ["a"]
    assert sim.pending_events == 0
    # The engine is still usable afterwards.
    sim.schedule(1.0, out.append, "fresh")
    sim.run()
    assert out == ["a", "fresh"]


def test_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    out = []

    def chain(n):
        out.append(n)
        if n < 4:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert out == [0, 1, 2, 3, 4]
    assert sim.now == 5.0


def test_callback_args_passed_through():
    sim = Simulator()
    got = []
    sim.schedule(1.0, lambda a, b, c: got.append((a, b, c)), 1, "two", [3])
    sim.run()
    assert got == [(1, "two", [3])]


def test_earlier_event_scheduled_after_until_break_fires_first():
    # A run(until=...) break can leave the engine paused on a future
    # event; anything scheduled before that instant between runs must
    # still fire first (and the clock must never move backwards).
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "a")
    sim.schedule(5.0, out.append, "late")
    sim.schedule(5.0, out.append, "late2")
    sim.run(until=2.0)
    times = []
    sim.schedule_at(3.0, lambda: (out.append("mid"), times.append(sim.now)))
    sim.run()
    assert out == ["a", "mid", "late", "late2"]
    assert times == [3.0]
    assert sim.now == 5.0


def test_max_events_break_keeps_order_for_earlier_inserts():
    sim = Simulator()
    out = []
    for i in range(3):
        sim.schedule(float(i + 1), out.append, i)
    sim.run(max_events=1)
    sim.schedule_at(1.5, out.append, "wedge")
    sim.run()
    assert out == [0, "wedge", 1, 2]


def test_compact_drops_cancelled_and_preserves_live_order():
    sim = Simulator()
    out = []
    cancelled = [sim.schedule(float(t), out.append, f"dead{t}") for t in (2, 3)]
    sim.schedule(2.0, out.append, "live2")
    sim.schedule(4.0, out.append, "live4")
    for event in cancelled:
        event.cancel()
    sim.compact()
    assert sim.pending_events == 2
    sim.run()
    assert out == ["live2", "live4"]


def test_schedule_raw_interleaves_with_events_in_call_order():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "event-first")
    sim.schedule_raw(1.0, out.append, ("raw",))
    sim.schedule(1.0, out.append, "event-second")
    sim.run()
    assert out == ["event-first", "raw", "event-second"]
    assert sim.events_processed == 3


def test_event_ordering_respects_subsecond_precision():
    sim = Simulator()
    out = []
    sim.schedule(0.0001, out.append, "a")
    sim.schedule(0.00009, out.append, "b")
    sim.run()
    assert out == ["b", "a"]


# ----------------------------------------------------------------------
# _push_new: the flood loop's entry for an instant with no pending bucket
# ----------------------------------------------------------------------
def test_push_new_on_the_instant_being_drained_fires_in_the_same_batch():
    """The drained bucket is off the bucket map, so a flood hop landing on
    the current instant misses the lookup and comes through ``_push_new``:
    it joins the batch being drained, after what is already in it, and
    opens no second heap entry for the instant."""
    sim = Simulator()
    out = []

    def arrive():
        out.append("arrive")
        assert sim._buckets.get(sim.now) is None
        sim._push_new(sim.now, (out.append, ("hop",)))
        assert sim.now not in sim._times

    sim.schedule(1.0, arrive)
    sim.schedule(1.0, out.append, "queued")
    sim.schedule(2.0, out.append, "later")
    sim.run(until=1.0)
    assert out == ["arrive", "queued", "hop"]
    assert sim.events_processed == 3
    sim.run()
    assert out[-1] == "later"


@pytest.mark.parametrize(
    "brk, at",
    [
        ("until", 3.0), ("until", 5.0), ("until", 7.0),
        ("max_events", 3.0), ("max_events", 5.0), ("max_events", 7.0),
        ("mid_bucket", 5.0), ("mid_bucket", 7.0),
    ],
)
def test_push_new_after_a_break_requeues_the_paused_bucket(brk, at):
    """After an ``until`` or ``max_events`` break between buckets (the next
    bucket taken off the heap but not fired) or a ``max_events`` break
    inside one (a bucket drained part way), an arrival before the paused
    bucket's instant requeues the bucket's remainder and fires first; one
    on or after it fires after the remainder.  The clock never moves
    backwards."""
    sim = Simulator()
    out = []
    times = []
    sim.schedule(1.0, out.append, "a")
    for name in ("p1", "p2", "p3"):
        sim.schedule(5.0, out.append, name)
    if brk == "until":
        sim.run(until=2.0)
    elif brk == "max_events":
        sim.run(max_events=1)  # "a"
    else:
        sim.run(max_events=2)  # "a", then "p1"
    assert sim._bucket is not None, "the break left a bucket paused"
    assert sim._buckets.get(at) is None
    sim._push_new(at, (lambda: (out.append("new"), times.append(sim.now)), ()))
    sim.run()
    if at < 5.0:
        assert out == ["a", "new", "p1", "p2", "p3"]
    else:
        assert out == ["a", "p1", "p2", "p3", "new"]
    assert times == [at]
    assert sim.now == max(at, 5.0)
    assert sim.events_processed == 5
