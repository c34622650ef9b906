"""Eager reference event queue for the simulator's differential tests.

:class:`EagerSimulator` is the obvious design the production
:class:`~repro.sim.core.Simulator` must agree with: every callback gets
its own heap entry and cancellable handle the moment it is scheduled,
and a series is nothing but one ``schedule`` call per item, all made up
front. Same-time entries run in the order they were scheduled.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple


class EagerHandle:
    """One scheduled callback; cancelling it keeps it from running."""

    __slots__ = ("callback", "args", "cancelled")

    def __init__(self, callback: Callable[..., None], args: Tuple[Any, ...]) -> None:
        self.callback = callback
        self.args = args
        self.cancelled = False


class EagerSimulator:
    """The simulator's clock and queue contract, with nothing deferred."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self._queue: List[Tuple[float, int, EagerHandle]] = []
        self._sequence = itertools.count()

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EagerHandle:
        assert delay >= 0
        handle = EagerHandle(callback, args)
        heapq.heappush(self._queue, (self.now + delay, next(self._sequence), handle))
        return handle

    def schedule_series(
        self,
        delays: Iterable[float],
        callback: Callable[[Any], None],
        items: Sequence[Any],
    ) -> None:
        for delay, item in zip(delays, items):
            self.schedule(delay, callback, item)

    def cancel(self, handle: EagerHandle) -> None:
        handle.cancelled = True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        executed = 0
        while self._queue:
            when, _seq, handle = self._queue[0]
            if until is not None and when > until:
                self.now = until
                return self.now
            heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            assert when >= self.now
            self.now = when
            handle.callback(*handle.args)
            self.events_processed += 1
            executed += 1
            if max_events is not None and executed >= max_events:
                return self.now
        if until is not None and until > self.now:
            self.now = until
        return self.now
