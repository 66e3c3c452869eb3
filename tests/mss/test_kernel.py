"""Event-loop and resource tests, including ordering properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mss.kernel import Resource, SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(9.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9.0
    assert sim.events_processed == 3


def test_ties_break_by_scheduling_order():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(1.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1, 2]


def test_schedule_during_callback():
    sim = Simulator()
    fired = []

    def first():
        fired.append(sim.now)
        sim.schedule(2.0, lambda: fired.append(sim.now))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == [1.0, 3.0]


def test_cannot_schedule_in_past():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancel_event():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled


def test_run_until():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run()
    assert fired == [1, 10]


def test_peek_and_step():
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    assert sim.peek() == 3.0
    assert sim.step() is True
    assert sim.step() is False
    assert sim.peek() is None


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_arbitrary_delays_fire_sorted(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, (lambda t: (lambda: fired.append(t)))(d))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ---------------------------------------------------------------------------
# Resource


def test_resource_grants_immediately_when_free():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    granted = []
    resource.acquire(lambda: granted.append(1))
    resource.acquire(lambda: granted.append(2))
    assert granted == [1, 2]
    assert resource.in_use == 2


def test_resource_queues_beyond_capacity():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    granted = []
    resource.acquire(lambda: granted.append("first"))
    resource.acquire(lambda: granted.append("second"))
    assert granted == ["first"]
    assert resource.queue_length == 1
    resource.release()
    assert granted == ["first", "second"]
    assert resource.queue_length == 0


def test_resource_fifo_order():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    granted = []
    resource.acquire(lambda: granted.append(0))
    for i in (1, 2, 3):
        resource.acquire((lambda k: (lambda: granted.append(k)))(i))
    for _ in range(3):
        resource.release()
    assert granted == [0, 1, 2, 3]


def test_resource_wait_time_accounting():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    resource.acquire(lambda: None)

    waited = []
    sim.schedule(0.0, lambda: resource.acquire(lambda: waited.append(sim.now)))
    sim.schedule(10.0, resource.release)
    sim.run()
    assert waited == [10.0]
    assert resource.mean_wait == pytest.approx(10.0 / 2)  # two acquisitions


def test_resource_release_of_idle_raises():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        resource.release()


def test_resource_capacity_validation():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


# ---------------------------------------------------------------------------
# Merged arrival stream


def _scripted(sim, log, handles, label, delays, cancels):
    """A callback that logs itself, cancels the oldest live follow-up when
    asked, and schedules one follow-up per delay (each with the remaining
    delays as its own follow-ups, so zero delays land on this instant)."""

    def fire():
        log.append((label, sim.now, sim.events_processed))
        if cancels and handles:
            handles.pop(0).cancel()
        for k, delay in enumerate(delays):
            handles.append(sim.schedule(
                delay, _scripted(sim, log, handles, f"{label}.{k}",
                                 delays[k + 1:], not cancels)
            ))

    return fire


def _play(pending, arrivals, until, merged):
    """Run a script with arrivals pre-scheduled or merged; returns its trail."""
    sim = Simulator()
    log, handles = [], []
    for index, time in enumerate(pending):
        sim.schedule_at(time, _scripted(sim, log, handles, f"p{index}", (0.0,), False))
    calls = [
        (time, _scripted(sim, log, handles, f"a{index}", delays, cancels))
        for index, (time, delays, cancels) in enumerate(arrivals)
    ]
    if merged:
        sim.run(until, arrivals=sorted(calls, key=lambda call: call[0]))
    else:
        for time, callback in calls:
            sim.schedule_at(time, callback)
        sim.run(until)
    halfway = (list(log), sim.now, sim.events_processed)
    sim.run()
    return halfway, log, sim.now, sim.events_processed


_TIMES = st.sampled_from([0.0, 1.0, 2.5, 4.0]) | st.floats(0, 10)


@given(
    pending=st.lists(_TIMES, max_size=4),
    arrivals=st.lists(
        st.tuples(
            _TIMES,
            st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.5, 3.0]), max_size=3),
            st.booleans(),
        ),
        max_size=25,
    ),
    until=st.none() | _TIMES,
)
@settings(max_examples=200, deadline=None)
def test_merged_arrivals_match_prescheduling(pending, arrivals, until):
    assert _play(pending, arrivals, until, merged=True) == _play(
        pending, arrivals, until, merged=False
    )


def test_arrival_behind_the_clock_raises():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(arrivals=[(1.0, lambda: None)])
    fired = []
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.run(arrivals=[(2.0, lambda: fired.append(2.0)), (1.0, lambda: None)])
    assert fired == [2.0]


def test_pending_arrivals_survive_until_and_step():
    sim = Simulator()
    fired = []
    sim.run(until=1.0, arrivals=[(t, (lambda t: lambda: fired.append(t))(t))
                                 for t in (0.5, 2.0, 3.0)])
    assert fired == [0.5] and sim.now == 1.0
    with pytest.raises(SimulationError, match="already pending"):
        sim.run(arrivals=[(4.0, lambda: None)])
    assert sim.peek() == 2.0
    assert sim.step() is True and fired == [0.5, 2.0]
    sim.run()
    assert fired == [0.5, 2.0, 3.0] and sim.events_processed == 3
    assert sim.step() is False and sim.peek() is None
