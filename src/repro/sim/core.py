"""Core discrete-event simulator: virtual clock, event queue, and events.

Time is a float in *milliseconds* throughout the reproduction (the paper
reports operation times in ms). The queue is a heap of plain
``(when, seq, callback, args)`` tuples, ordered totally on
``(when, seq)``: ``seq`` comes from one counter, so entries due at the
same instant run in the order they were scheduled, which keeps runs
deterministic.

:meth:`Simulator.schedule_series` queues a long run of callbacks, such
as a trace's arrivals, one step at a time: it reserves a block of
sequence numbers up front, and each step queues the next under its
reserved number before it runs. The heap then holds only what is due
soon, and the order is the one the individual ``schedule`` calls would
give. :meth:`Simulator.cancel` marks an entry's sequence number, and
the loop skips it when it comes up.

:class:`Event` is a one-shot, latching synchronization primitive modeled
after simpy's events: it can be triggered with a value or failed with an
exception, callbacks attached after triggering fire immediately, and
processes (see :mod:`repro.sim.process`) can ``yield`` an event to block
until it triggers.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Sequence, Set, Tuple

#: A queue entry: ``(when, seq, callback, args)``.
Entry = Tuple[float, int, Callable[..., None], Tuple[Any, ...]]

_INFINITY = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid simulator usage (e.g. scheduling in the past)."""


class Event:
    """A one-shot latching event.

    An event starts *pending*; calling :meth:`trigger` (or :meth:`fail`)
    moves it to *triggered* and invokes all attached callbacks with the
    event itself. Attaching a callback to an already-triggered event calls
    it immediately, so waiters never miss a signal (this is what makes the
    ``wait(GOT_FIRST_PKT_FROM_SW)`` steps in the paper's Figure 6 safe to
    express as plain yields).
    """

    __slots__ = ("sim", "name", "_callbacks", "_triggered", "_value", "_exception")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        """Whether the event has fired (successfully or with an error)."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully (no exception)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The value the event was triggered with.

        Raises the stored exception if the event failed, and
        :class:`SimulationError` if the event is still pending.
        """
        if not self._triggered:
            raise SimulationError("event %r has not been triggered" % (self.name,))
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The exception the event failed with, or ``None``."""
        return self._exception

    def trigger(self, value: Any = None) -> "Event":
        """Fire the event successfully with ``value``; idempotent misuse errors."""
        if self._triggered:
            raise SimulationError("event %r already triggered" % (self.name,))
        self._triggered = True
        self._value = value
        self._flush()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event with an exception; waiters will see it raised."""
        if self._triggered:
            raise SimulationError("event %r already triggered" % (self.name,))
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self._flush()
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Invoke ``callback(event)`` when the event fires (now if already fired)."""
        if self._triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _flush(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return "<Event %s %s>" % (self.name or hex(id(self)), state)


class Simulator:
    """Deterministic discrete-event simulator with a millisecond clock."""

    def __init__(self) -> None:
        self._now = 0.0
        #: Heap of ``(when, seq, callback, args)`` entries.
        self._queue: List[Entry] = []
        self._sequence = itertools.count()
        #: Sequence numbers of cancelled entries not yet popped.
        self._cancelled: Set[int] = set()
        self._event_count = 0

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far (useful for runaway detection)."""
        return self._event_count

    @property
    def pending(self) -> int:
        """Queued entries still awaiting execution, cancelled ones included.

        A series counts as one entry however many steps it has left,
        since only its next step is queued. This is a liveness probe,
        not a size: the progress reporter re-arms its next tick only
        while it is non-zero, so it can never keep the event loop alive
        on its own.
        """
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Entry:
        """Run ``callback(*args)`` after ``delay`` ms of simulated time.

        Returns the queue entry, which :meth:`cancel` accepts.
        """
        if delay < 0:
            raise SimulationError("cannot schedule %.3f ms in the past" % delay)
        entry = (self._now + delay, next(self._sequence), callback, args)
        heappush(self._queue, entry)
        return entry

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> Entry:
        """Run ``callback(*args)`` at absolute simulated time ``when``."""
        return self.schedule(when - self._now, callback, *args)

    def schedule_series(
        self,
        delays: Iterable[float],
        callback: Callable[[Any], None],
        items: Sequence[Any],
    ) -> None:
        """Run ``callback(item)`` for each item, each after its delay.

        The order and clock values are exactly those of one
        ``schedule(delay, callback, item)`` call per pair made now: a
        contiguous block of sequence numbers is reserved here, and each
        time is ``now + delay`` with ``now`` read here. Only the next
        step is queued; it queues the one after it before it runs its
        callback. ``delays`` is read lazily, one value per step, so it
        may be a generator; it must not decrease and must yield at
        least ``len(items)`` values. A series cannot be cancelled.
        """
        count = len(items)
        if not count:
            return
        delays = iter(delays)
        first = next(delays)
        if first < 0:
            raise SimulationError("cannot schedule %.3f ms in the past" % first)
        seq = next(self._sequence)
        self._sequence = itertools.count(seq + count)
        base = self._now
        queue = self._queue
        items = iter(items)
        later = iter(range(seq + 1, seq + count))

        def step() -> None:
            item = next(items)
            next_seq = next(later, None)
            if next_seq is not None:
                when = base + next(delays)
                if when < self._now:
                    raise SimulationError("series delays must not decrease")
                heappush(queue, (when, next_seq, step, ()))
            callback(item)

        heappush(queue, (base + first, seq, step, ()))

    def cancel(self, entry: Entry) -> None:
        """Keep a queued ``schedule`` entry from running.

        Cancelling an entry that has already run has no effect.
        """
        self._cancelled.add(entry[1])

    def event(self, name: str = "") -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Event:
        """An event that triggers after ``delay`` ms with ``value``."""
        evt = Event(self, name or "timeout(%g)" % delay)
        self.schedule(delay, evt.trigger, value)
        return evt

    def spawn(self, generator, name: str = ""):
        """Start a cooperative process; see :class:`repro.sim.process.Process`."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the event loop.

        Stops when the queue drains, when simulated time would pass
        ``until`` (the clock is then advanced to exactly ``until``), or
        after ``max_events`` callbacks. Returns the final clock value.
        """
        queue = self._queue
        pop = heappop
        cancelled = self._cancelled
        horizon = _INFINITY if until is None else until
        stop = -1 if max_events is None else max(1, max_events)
        executed = 0
        while queue:
            when, seq, callback, args = queue[0]
            if when > horizon:
                self._now = until
                return until
            pop(queue)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            if when < self._now:
                raise SimulationError("event queue time went backwards")
            self._now = when
            callback(*args)
            self._event_count += 1
            executed += 1
            if executed == stop:
                return self._now
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_until_triggered(self, event: Event, limit: float = 1e12) -> Any:
        """Run until ``event`` fires; return its value. Errors if it never does."""
        while not event.triggered:
            if not self._queue:
                raise SimulationError(
                    "event %r never triggered (queue drained)" % (event.name,)
                )
            if self._now > limit:
                raise SimulationError("simulation exceeded limit while waiting")
            self.run(max_events=1)
        return event.value
