"""Windowed get→put pipelining for state transfer (§5.1.3, §8.3).

Every parallelized transfer streams through here. Chunks reach the
controller in *frames* — multi-chunk frames when a
:class:`~repro.net.channel.BatchConfig` is installed, one-chunk frames
when it is not — and :class:`WindowedPutPipeline` forwards each frame to
the destination as a single ``put`` RPC the moment it clears the
controller inbox. With batching the config's ``pipeline_window`` bounds
how many frames are in flight, so the source keeps streaming while
earlier frames are still being applied; without it the window is
unbounded, which is the paper's per-chunk put of §5.1.3.

On a put failure the pipeline stops issuing queued frames, lets the
in-flight ones settle, and fails its :meth:`drained` event with the
first error so the operation's normal abort recovery runs (queued
frames were already exported from the source; the recovery path
restores them from the operation's export log).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.sim.core import Event, Simulator


class WindowedPutPipeline:
    """Forward chunk frames via ``putter`` with bounded in-flight window.

    ``window=None`` leaves the window unbounded: every frame is put as
    soon as it is submitted.
    """

    def __init__(
        self,
        sim: Simulator,
        putter: Callable[[List[Any]], Event],
        window: Optional[int],
        on_frame_done: Optional[Callable[[List[Any]], None]] = None,
    ) -> None:
        self.sim = sim
        self.putter = putter
        self.window = math.inf if window is None else window
        #: Called with each frame once its put completed successfully
        #: (hook for early release: flows in an applied frame can be
        #: rerouted before the whole transfer finishes).
        self.on_frame_done = on_frame_done
        self._in_flight = 0
        self._waiting: Deque[List[Any]] = deque()
        self._failure: Optional[BaseException] = None
        self._drained_evt: Optional[Event] = None
        self.frames_submitted = 0
        self.frames_completed = 0

    def submit(self, frame: List[Any]) -> None:
        """Queue one chunk frame for a windowed put."""
        if not frame:
            return
        self.frames_submitted += 1
        if self._failure is not None:
            return  # transfer already failing; recovery will restore
        if self._in_flight < self.window:
            self._issue(frame)
        else:
            self._waiting.append(frame)

    def _issue(self, frame: List[Any]) -> None:
        self._in_flight += 1
        evt = self.putter(frame)
        evt.add_callback(lambda e, f=frame: self._on_put_done(f, e))

    def _on_put_done(self, frame: List[Any], evt: Event) -> None:
        self._in_flight -= 1
        if evt.ok:
            self.frames_completed += 1
            if self.on_frame_done is not None:
                self.on_frame_done(frame)
        elif self._failure is None:
            self._failure = evt.exception
            self._waiting.clear()
        if self._waiting and self._in_flight < self.window:
            self._issue(self._waiting.popleft())
        self._check_drained()

    def drained(self) -> Event:
        """Event firing once every submitted frame has been put.

        Fails with the first put error if any frame failed. Call after
        the final :meth:`submit` — frames submitted later do not extend
        an already-triggered wait.
        """
        evt = self.sim.event("put-pipeline-drained")
        self._drained_evt = evt
        self._check_drained()
        return evt

    def _check_drained(self) -> None:
        evt = self._drained_evt
        if evt is None or evt.triggered:
            return
        if self._in_flight == 0 and not self._waiting:
            if self._failure is not None:
                evt.fail(self._failure)
            else:
                evt.trigger(self.frames_completed)
