"""Discrete-event simulation kernel.

A minimal, deterministic event loop: events are (time, sequence) ordered,
callbacks run at their scheduled instant, and ties break by scheduling
order.  Everything in :mod:`repro.mss` -- drives, robots, operators,
movers -- is built on this loop.

The heap holds ``(time, seq, handle)`` tuples, so heap order is decided
by C tuple comparison on the unique ``(time, seq)`` prefix and the
handle is never compared.  A trace replay hands :meth:`Simulator.run`
its requests as one time-ordered arrival stream instead of scheduling
them all up front; the loop merges that stream with the heap in exactly
the order ``schedule_at`` would have given them, so the heap holds only
the events in flight.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, Iterator, List, Optional, Tuple


class SimulationError(Exception):
    """Raised on kernel misuse (scheduling in the past, etc.)."""


class EventHandle:
    """A scheduled callback; ``schedule`` returns it so it can be cancelled."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self.cancelled = True


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = start_time
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        # The pending arrival stream, as (time, seq, callback) entries
        # sharing the seq taken when the stream was handed over, and its
        # head (None when no arrival is pending).
        self._arrivals: Iterator[Tuple[float, int, Callable[[], None]]] = iter(())
        self._arrival: Optional[Tuple[float, int, Callable[[], None]]] = None

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, clock is already at {self.now}"
            )
        event = EventHandle(time, callback)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def _next(self) -> Optional[tuple]:
        """The next pending heap entry or arrival (not removed)."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        arrival = self._arrival
        if arrival is not None and (not heap or arrival < heap[0]):
            return arrival
        return heap[0] if heap else None

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None when idle."""
        entry = self._next()
        return None if entry is None else entry[0]

    def step(self) -> bool:
        """Process one event; returns False when nothing is pending."""
        entry = self._next()
        if entry is None:
            return False
        if entry is self._arrival:
            self._take_arrival(entry[0])
            callback = entry[2]
        else:
            heapq.heappop(self._heap)
            callback = entry[2].callback
        self.now = entry[0]
        self._events_processed += 1
        callback()
        return True

    def _take_arrival(self, time: float) -> None:
        """Advance the arrival stream past its head, due at ``time``."""
        if time < self.now:
            raise SimulationError(
                f"arrival at {time} is behind the clock at {self.now}"
            )
        self._arrival = next(self._arrivals, None)

    def run(
        self,
        until: Optional[float] = None,
        arrivals: Optional[Iterable[Tuple[float, Callable[[], None]]]] = None,
    ) -> None:
        """Process events until nothing is pending (or the clock would
        pass ``until``, leaving later events pending).

        ``arrivals`` is a time-ordered stream of ``(time, callback)``
        pairs, merged into the run lazily: each fires exactly where
        ``schedule_at(time, callback)`` -- called now, in stream order --
        would have put it, i.e. after events already pending at its
        instant and before every event scheduled from here on.  An
        arrival behind the clock raises :class:`SimulationError` when the
        loop reaches it.
        """
        if arrivals is not None:
            if self._arrival is not None:
                raise SimulationError("an arrival stream is already pending")
            seq = next(self._seq)
            self._arrivals = ((time, seq, fn) for time, fn in arrivals)
            self._arrival = next(self._arrivals, None)
        heap = self._heap
        pop = heapq.heappop
        while True:
            arrival = self._arrival
            if heap:
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    pop(heap)
                    continue
                if arrival is None or entry < arrival:
                    time = entry[0]
                    if until is not None and time > until:
                        break
                    pop(heap)
                    self.now = time
                    self._events_processed += 1
                    event.callback()
                    continue
            elif arrival is None:
                return
            time = arrival[0]
            if until is not None and time > until:
                break
            self._take_arrival(time)
            self.now = time
            self._events_processed += 1
            arrival[2]()
        self.now = until

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed


class Resource:
    """A counted resource with a FIFO wait queue (drives, robots, movers).

    Acquire by callback: if a unit is free it is granted immediately
    (synchronously); otherwise the callback queues until a release.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: List[Tuple[int, Callable[[], None]]] = []
        self._wait_seq = itertools.count()
        # Statistics
        self.total_acquisitions = 0
        self.total_wait_time = 0.0
        self._wait_started: dict = {}

    @property
    def in_use(self) -> int:
        """Units currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Callbacks waiting for a unit."""
        return len(self._waiters)

    def acquire(self, callback: Callable[[], None]) -> None:
        """Request one unit; ``callback`` runs when it is granted."""
        if self._in_use < self.capacity:
            self._in_use += 1
            self.total_acquisitions += 1
            callback()
        else:
            token = next(self._wait_seq)
            self._wait_started[token] = self.sim.now
            self._waiters.append((token, callback))

    def release(self) -> None:
        """Return one unit, waking the longest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            token, callback = self._waiters.pop(0)
            started = self._wait_started.pop(token)
            self.total_wait_time += self.sim.now - started
            self.total_acquisitions += 1
            callback()
        else:
            self._in_use -= 1

    @property
    def mean_wait(self) -> float:
        """Average time spent queueing for this resource."""
        if self.total_acquisitions == 0:
            return 0.0
        return self.total_wait_time / self.total_acquisitions
