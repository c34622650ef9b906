"""The ``copy`` operation (§5.2.1).

Clones state from one instance to another using the southbound get/put
calls. No forwarding state changes and no events: the source keeps
processing traffic and updating its own copy, so copy alone gives no
consistency — applications achieve *eventual* consistency by re-invoking
copy (on a timer, or from ``notify`` callbacks), and the NF's
``put*`` handlers merge the incoming chunks with local state.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.flowspace.filter import Filter
from repro.nf.base import NFCrash
from repro.nf.southbound import SouthboundError
from repro.nf.state import Scope, StateChunk
from repro.controller.operation import Operation
from repro.controller.pipeline import WindowedPutPipeline
from repro.controller.reports import OperationReport
from repro.sim.process import AllOf


class CopyOperation(Operation):
    """One in-flight ``copy``; ``done`` fires with the OperationReport."""

    kind = "copy"

    def __init__(
        self,
        shard,
        src,
        dst,
        flt: Filter,
        scopes: Tuple[Scope, ...],
        parallel: bool = True,
        compress: bool = False,
    ) -> None:
        self.shard = shard
        self.controller = controller = shard.controller
        self.sim = controller.sim
        self.src = src
        self.dst = dst
        self.flt = flt
        self.scopes = scopes
        self.parallel = parallel
        self.compress = compress
        self.report = OperationReport(
            kind="copy",
            guarantee="",
            filter_repr=repr(flt),
            src=src.name,
            dst=dst.name,
        )
        self.done = self.sim.event("copy-done")
        self._abort_requested = None
        #: Chunks whose put at the destination has completed; on abort
        #: this becomes ``report.partial_chunks`` so callers know what
        #: already landed (and must be reconciled or purged) instead of
        #: the delivered state silently lingering with no record.
        self._chunks_delivered = 0
        self.obs = controller.obs
        self.trace = self.obs.operation(
            self.sim,
            self.report,
            "copy",
            filter=repr(flt),
            flowspace=flt,
            src=src.name,
            dst=dst.name,
            scopes=",".join(s.value for s in scopes),
            **shard.labels,
        )
        # Causally bound stubs (pass-throughs while tracing is off):
        # every get/put RPC below inherits this copy's trace_id.
        self.src = self.trace.bind(self.src)
        self.dst = self.trace.bind(self.dst)
        self._sb_stats_at_start = self._sb_stats()
        self.process = self.sim.spawn(self._run(), name="copy-op")

    def _sb_stats(self):
        return {
            key: self.src.stats[key] + self.dst.stats[key]
            for key in ("retries", "timeouts")
        }

    def _finalize_reliability(self) -> None:
        now = self._sb_stats()
        self.report.retries = now["retries"] - self._sb_stats_at_start["retries"]
        self.report.timeouts = (
            now["timeouts"] - self._sb_stats_at_start["timeouts"]
        )

    def _track_put(self, put_event, chunk_count: int):
        """Count chunks whose destination put actually completed."""
        def on_done(evt):
            if evt.ok:
                self._chunks_delivered += chunk_count
        put_event.add_callback(on_done)
        return put_event

    def _scope_calls(self, scope: Scope):
        if scope is Scope.PERFLOW:
            return self.src.get_perflow, self.dst.put_perflow
        if scope is Scope.MULTIFLOW:
            return self.src.get_multiflow, self.dst.put_multiflow

        def get_allflows(flt, stream=None, lock_per_chunk=False,
                         lock_silent=False, compress=False,
                         stream_frame=None):
            return self.src.get_allflows(stream=stream, compress=compress,
                                         stream_frame=stream_frame)

        return get_allflows, self.dst.put_allflows

    def _abort_target(self) -> str:
        return self.dst.name

    def _run(self):
        self.report.started_at = self.sim.now
        try:
            yield from self._run_scopes()
        except (NFCrash, SouthboundError) as crash:
            self.report.aborted = str(crash)
            self.report.partial_chunks = self._chunks_delivered
            if self._chunks_delivered:
                self.report.notes.append(
                    "%d chunks already delivered to %s before abort"
                    % (self._chunks_delivered, self.dst.name)
                )
        except Exception as exc:
            self.report.aborted = "internal error: %r" % (exc,)
            self.report.finished_at = self.sim.now
            self._finalize_reliability()
            self.trace.finish(aborted=self.report.aborted)
            self.done.fail(exc)
            raise
        self.report.finished_at = self.sim.now
        self._finalize_reliability()
        self.trace.finish(aborted=self.report.aborted)
        self.done.trigger(self.report)
        return self.report

    def _note_chunk(self, scope: Scope, chunk: StateChunk) -> None:
        self.report.add_chunk(
            scope.value, chunk.size_bytes, chunk.wire_size_bytes
        )
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.counter("ctrl.chunks.transferred").inc(1, scope=scope.value)
            metrics.counter("ctrl.chunks.wire_bytes").inc(
                chunk.wire_size_bytes, scope=scope.value
            )

    def _run_scopes(self):
        batching = self.controller.batching
        for scope in self.scopes:
            self._checkpoint()
            getter, putter = self._scope_calls(scope)
            with self.trace.phase(
                "scope.%s" % scope.value, mark="copied-%s" % scope.value
            ):
                if self.parallel and batching is not None:
                    # §8.3 fast path: multi-chunk frames, one inbox slot
                    # per frame, windowed frame puts toward the
                    # destination (see MoveOperation._transfer_state).
                    pipeline = WindowedPutPipeline(
                        self.sim,
                        lambda frame, _putter=putter: self._track_put(
                            _putter(frame), len(frame)
                        ),
                        batching.pipeline_window,
                    )

                    def handle_chunk_frame(frame, _scope=scope,
                                           _pipeline=pipeline):
                        for chunk in frame:
                            self._note_chunk(_scope, chunk)
                        _pipeline.submit(frame)

                    yield getter(
                        self.flt,
                        stream_frame=lambda frame, _h=handle_chunk_frame: (
                            self.shard.enqueue_chunks(_h, frame)
                        ),
                        compress=self.compress,
                    )
                    yield self.shard.inbox.drained()
                    yield pipeline.drained()
                    self._checkpoint()
                elif self.parallel:
                    put_events: List[Any] = []

                    def handle_chunk(chunk: StateChunk, _putter=putter,
                                     _scope=scope):
                        self._note_chunk(_scope, chunk)
                        put_events.append(self._track_put(_putter([chunk]), 1))

                    yield getter(
                        self.flt,
                        stream=lambda c: self.shard.enqueue_chunk(
                            handle_chunk, c
                        ),
                        compress=self.compress,
                    )
                    yield self.shard.inbox.drained()
                    if put_events:
                        yield AllOf(put_events)
                else:
                    chunks = yield getter(self.flt, compress=self.compress)
                    for chunk in chunks:
                        self._note_chunk(scope, chunk)
                    yield self._track_put(putter(chunks), len(chunks))
