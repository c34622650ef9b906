"""Controller-side southbound API client (§4.2–4.3).

:class:`NFClient` is how the controller talks to one NF instance. Each
call is an RPC over a pair of control channels (request and response
directions), with message sizes derived from the JSON encoding of the
payload — so moving many or bulky chunks costs proportionally more, as
in the prototype.

Method names follow the paper's API:
``get_perflow`` / ``put_perflow`` / ``del_perflow``,
``get_multiflow`` / ``put_multiflow`` / ``del_multiflow``,
``get_allflows`` / ``put_allflows``, and
``enable_events`` / ``disable_events``. Every call returns a
:class:`~repro.sim.core.Event` that triggers with the result once the
operation (including NF-side processing time) completes.

``get_*`` accept a ``stream_frame`` callback: when provided, the NF
ships each chunk to the controller the moment it is serialized instead
of returning the full result at the end — the parallelizing
optimization of §5.1.3 — and the callback receives the chunks one wire
frame at a time, as a list. With a :class:`~repro.net.channel.
BatchConfig` on the channel, chunks coalesce into multi-chunk frames
(§8.3), so the controller pays one handling cost per frame; without
one, every frame holds a single chunk. ``lock_per_chunk`` enables late
locking for the early-release optimization.

Reliable mode (``reliable=True``, switched on whenever a
:class:`~repro.faults.FaultPlan` is installed): every RPC carries a
request id, runs under a per-call timeout with capped exponential
backoff retries (:class:`RetryPolicy`), and the NF-side dispatcher
(:meth:`~repro.nf.base.NetworkFunction.rpc_deliver`) deduplicates
replayed requests so a retried ``put_perflow`` never double-applies
state. Streamed get responses additionally reconcile the chunk list in
the final response against the chunks that actually arrived and NACK
the NF to retransmit any the channel lost. A call whose retry budget is
exhausted fails its event with :class:`SouthboundTimeout`, which the
northbound operations turn into a clean abort. Without a fault plan the
classic single-send path is taken and message sizes, channel timing,
and the event timeline are exactly as before.

When observability is enabled every RPC opens an ``sb.<op>`` span at
request time and closes it when the response lands, records its
round-trip into the ``sb.rpc_ms`` histogram, and (reliable mode) its
retry count into the ``sb.retries`` histogram.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, List, Optional

from repro.flowspace.filter import Filter, FlowId
from repro.net.channel import BatchConfig, ControlChannel
from repro.nf.base import NetworkFunction
from repro.nf.events import EventAction
from repro.nf import protocol
from repro.nf.state import Scope, StateChunk, chunks_total_bytes, chunks_wire_bytes
from repro.obs import NULL_OBS
from repro.obs.span import NULL_SPAN
from repro.sim.core import Event, Simulator

#: Fallback size for small fixed messages (acks, list requests).
REQUEST_BYTES = 128
#: Per-chunk framing overhead when chunks travel in a response.
CHUNK_OVERHEAD_BYTES = 74
#: Extra request bytes for a request id on calls without a JSON body.
REQUEST_ID_BYTES = 10


class SouthboundError(Exception):
    """A southbound RPC failed for control-plane reasons.

    ``nf_name`` identifies the unreachable instance so an aborting
    operation can pick the correct recovery direction (restore to the
    source when the destination is unreachable, and vice versa).
    """

    def __init__(self, message: str, nf_name: str) -> None:
        super().__init__(message)
        self.nf_name = nf_name


class SouthboundTimeout(SouthboundError):
    """A southbound RPC exhausted its retry budget without a response."""


class RetryPolicy:
    """Per-call timeout with capped exponential backoff retries."""

    __slots__ = ("timeout_ms", "backoff", "max_timeout_ms", "max_attempts")

    def __init__(
        self,
        timeout_ms: float = 25.0,
        backoff: float = 2.0,
        max_timeout_ms: float = 400.0,
        max_attempts: int = 7,
    ) -> None:
        if timeout_ms <= 0 or backoff < 1.0 or max_attempts < 1:
            raise ValueError("invalid retry policy")
        self.timeout_ms = timeout_ms
        self.backoff = backoff
        self.max_timeout_ms = max_timeout_ms
        self.max_attempts = max_attempts

    def timeout_for(self, attempt: int) -> float:
        """Timeout for the given 0-based attempt number."""
        return min(self.timeout_ms * self.backoff ** attempt,
                   self.max_timeout_ms)


class NFClient:
    """RPC stub for one NF instance."""

    def __init__(
        self,
        sim: Simulator,
        nf: NetworkFunction,
        to_nf: Optional[ControlChannel] = None,
        from_nf: Optional[ControlChannel] = None,
        obs=None,
        reliable: bool = False,
        retry: Optional[RetryPolicy] = None,
        batch: Optional[BatchConfig] = None,
    ) -> None:
        self.sim = sim
        self.nf = nf
        self.obs = obs or NULL_OBS
        self.to_nf = to_nf or ControlChannel(
            sim, name="ctrl->%s" % nf.name, obs=self.obs
        )
        self.from_nf = from_nf or ControlChannel(
            sim, name="%s->ctrl" % nf.name, obs=self.obs
        )
        # An optional batching config installs on both channels so chunk
        # streams and acks coalesce into frames (§8.3 fast path).
        if batch is not None:
            for channel in (self.to_nf, self.from_nf):
                if channel.batching is None:
                    channel.batching = batch
        self.reliable = reliable
        self.retry = retry or RetryPolicy()
        self._request_ids = itertools.count(1)
        #: Cumulative reliability accounting; operations snapshot this to
        #: fill ``OperationReport.retries`` / ``.timeouts``.
        self.stats = {
            "attempts": 0,
            "retries": 0,
            "timeouts": 0,
            "failures": 0,
            "chunks_recovered": 0,
        }

    @property
    def name(self) -> str:
        return self.nf.name

    # --------------------------------------------------- reliability plumbing

    def _next_request_id(self) -> Optional[int]:
        return next(self._request_ids) if self.reliable else None

    @staticmethod
    def _settle(done: Event, value: Any = None) -> None:
        """Trigger ``done`` unless a duplicate response beat us to it."""
        if not done.triggered:
            done.trigger(value)

    @staticmethod
    def _settle_fail(done: Event, exc: BaseException) -> None:
        if not done.triggered:
            done.fail(exc)

    def _send_response(
        self,
        rid: Optional[int],
        done: Event,
        size: int,
        payload: Any,
        failed: bool = False,
        deliver: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """NF-side: ship one response; memoize the resend under ``rid``.

        A replayed request finds the memoized thunk via
        :meth:`~repro.nf.base.NetworkFunction.rpc_deliver` and re-sends
        the response instead of re-running the operation.
        """
        if rid is not None and self.nf.failed:
            # Fail-stop: a dead NF sends nothing; the caller's retry
            # budget expires and the operation aborts on the timeout.
            return
        if deliver is None:
            if failed:
                deliver = lambda exc: self._settle_fail(done, exc)
            else:
                deliver = lambda value: self._settle(done, value)

        def ship() -> None:
            self.from_nf.send(size, deliver, payload)

        ship()
        if rid is not None:
            self.nf.rpc_complete(rid, ship)

    def _invoke(
        self,
        op: str,
        done: Event,
        request_size: int,
        at_nf: Callable[[], None],
        rid: Optional[int],
        span: Any = NULL_SPAN,
    ) -> None:
        """Ship one request; reliable mode adds timeout/retry/dedup.

        ``span`` is the already-open ``sb.<op>`` span; retries annotate
        it with ``retry`` events so a replayed request stays inside the
        same causal span instead of minting an orphan.
        """
        if rid is None:
            self.to_nf.send(request_size, at_nf)
            return
        state = {"attempt": 0}

        def send_attempt() -> None:
            if done.triggered:
                return
            self.stats["attempts"] += 1
            self.to_nf.send(request_size, self.nf.rpc_deliver, rid, at_nf)
            self.sim.schedule(
                self.retry.timeout_for(state["attempt"]),
                check, state["attempt"],
            )

        def check(attempt: int) -> None:
            if done.triggered or state["attempt"] != attempt:
                return
            self.stats["timeouts"] += 1
            if self.obs.enabled:
                self.obs.metrics.counter("sb.timeouts").inc(
                    1, nf=self.nf.name, op=op
                )
            if attempt + 1 >= self.retry.max_attempts:
                self.stats["failures"] += 1
                self._settle_fail(done, SouthboundTimeout(
                    "%s to %s gave up after %d attempts"
                    % (op, self.nf.name, attempt + 1),
                    self.nf.name,
                ))
                return
            state["attempt"] = attempt + 1
            self.stats["retries"] += 1
            if self.obs.enabled:
                self.obs.metrics.counter("sb.retries_total").inc(
                    1, nf=self.nf.name, op=op
                )
            span.event("retry", attempt=state["attempt"])
            send_attempt()

        if self.obs.enabled:
            done.add_callback(lambda _evt: self.obs.metrics.histogram(
                "sb.retries").observe(
                    state["attempt"], nf=self.nf.name, op=op))
        send_attempt()

    def _rpc_span(self, op: str, **attrs) -> Any:
        """Open the ``sb.<op>`` span at request-issue time.

        Minted *before* the request ships so that (a) a causally bound
        caller's ``trace_id`` is inherited while the proxy's cause
        window is still open, and (b) NF-side closures can cite it as
        their ``cause_id`` when the apply/flush happens, long after the
        synchronous call returned.
        """
        if not self.obs.enabled:
            return NULL_SPAN
        return self.obs.tracer.span("sb.%s" % op, nf=self.nf.name, **attrs)

    def _nf_side_span(self, name: str, rpc_span: Any, **attrs) -> Any:
        """NF-side span causally chained to the RPC that requested it.

        The NF applies/flushes after the request crossed the channel,
        so the tracer's cause window is long closed — the causal link
        is stamped explicitly from the RPC span instead.
        """
        if not self.obs.enabled or rpc_span.span_id is None:
            return NULL_SPAN
        trace_id = rpc_span.attrs.get("trace_id")
        if trace_id is not None:
            attrs["trace_id"] = trace_id
        attrs["cause_id"] = rpc_span.span_id
        return self.obs.tracer.span(name, nf=self.nf.name, **attrs)

    def _finish_rpc(self, op: str, done: Event, span: Any) -> Event:
        """Close the RPC span when the response lands, plus metrics."""
        if not self.obs.enabled:
            return done
        start = self.sim.now
        metrics = self.obs.metrics

        def close(event: Event) -> None:
            metrics.counter("sb.rpcs").inc(1, nf=self.nf.name, op=op)
            metrics.histogram("sb.rpc_ms").observe(
                self.sim.now - start, nf=self.nf.name, op=op
            )
            if not event.ok:
                span.set(error=repr(event.exception))
                span.status = "error"
            span.finish()

        done.add_callback(close)
        return done

    # ------------------------------------------------------------------- get

    def _get(
        self,
        scope: Scope,
        flt: Filter,
        lock_per_chunk: bool,
        lock_silent: bool = False,
        compress: bool = False,
        raw_stream: Optional[Callable[[StateChunk], None]] = None,
        stream_frame: Optional[Callable[[List[StateChunk]], None]] = None,
    ) -> Event:
        """``raw_stream`` receives chunks NF-side, with no channel hop:
        the caller ships them itself (peer-to-peer transfer, paper
        footnote 10). ``stream_frame`` receives controller-side chunk
        *lists*, one per wire frame: multi-chunk frames when the channel
        batches, one-chunk frames when it does not. The two are
        mutually exclusive."""
        done = self.sim.event("get-%s@%s" % (scope.value, self.nf.name))
        rid = self._next_request_id()
        streamed = stream_frame is not None
        span = self._rpc_span(
            "get.%s" % scope.value,
            filter=str(flt),
            streamed=streamed or raw_stream is not None,
        )
        #: Streamed chunks that actually landed controller-side; lost or
        #: duplicated chunk messages are reconciled against this.
        received_ids: set = set()

        def stream_recv(chunk: StateChunk) -> None:
            if id(chunk) in received_ids:
                return  # duplicated or already-recovered chunk
            received_ids.add(id(chunk))
            stream_frame([chunk])

        def frame_recv(chunks: List[StateChunk]) -> None:
            # One coalesced frame of chunks. A replayed frame has
            # already been deduplicated whole at the channel layer; this
            # per-chunk filter additionally drops chunks recovered via a
            # NACK round that raced a late original.
            fresh = [c for c in chunks if id(c) not in received_ids]
            for chunk in fresh:
                received_ids.add(id(chunk))
            if fresh:
                stream_frame(fresh)

        def stream_back(chunk: StateChunk) -> None:
            # NF-side shipping. With batching active, chunks join the
            # channel's pending frame and are handed to frame_recv a
            # whole frame at a time; otherwise queue_send is a plain
            # send and stream_recv gets each chunk as its own frame.
            self.from_nf.queue_send(
                chunk.wire_size_bytes + CHUNK_OVERHEAD_BYTES,
                stream_recv, chunk, coalesce=frame_recv,
            )

        def close_ok(chunks: List[StateChunk]) -> None:
            # Controller-side: the final response names every chunk, so
            # any streamed chunk (or whole dropped frame) the channel
            # ate is detected here and NACKed back to the NF for
            # retransmission before the call completes — the caller
            # then sees exactly-once chunks. Recovery re-ships through
            # stream_back, so retransmissions re-frame at the same
            # granularity as the original stream.
            if done.triggered:
                return
            missing = [c for c in chunks if id(c) not in received_ids]
            if not missing:
                done.trigger(chunks)
                return
            self.stats["chunks_recovered"] += len(missing)
            if self.obs.enabled:
                self.obs.metrics.counter("sb.chunks_recovered").inc(
                    len(missing), nf=self.nf.name
                )

            def retransmit() -> None:
                for chunk in missing:
                    stream_back(chunk)
                # A plain send flushes the pending recovery frame first
                # (ordering barrier), so close_ok always trails the
                # retransmitted chunks.
                self.from_nf.send(REQUEST_BYTES, close_ok, chunks)

            self.to_nf.send(REQUEST_BYTES, retransmit)

        def respond(event: Event) -> None:
            if not event.ok:
                self._send_response(rid, done, REQUEST_BYTES,
                                    event.exception, failed=True)
                return
            chunks: List[StateChunk] = event.value
            if streamed and rid is not None:
                self._send_response(rid, done, REQUEST_BYTES, chunks,
                                    deliver=close_ok)
            elif streamed or raw_stream is not None:
                # Chunks already streamed; just close the call.
                self._send_response(rid, done, REQUEST_BYTES, chunks)
            else:
                size = chunks_wire_bytes(chunks) + REQUEST_BYTES
                self._send_response(rid, done, size, chunks)

        def at_nf() -> None:
            if raw_stream is not None:
                nf_stream = raw_stream
            elif streamed:
                nf_stream = stream_back
            else:
                nf_stream = None
            proc = self.nf.sb_get(
                scope,
                flt,
                stream=nf_stream,
                lock_per_chunk=lock_per_chunk,
                lock_silent=lock_silent,
                compress=compress,
            )
            proc.done.add_callback(respond)

        request = protocol.get_request(
            "get%s" % scope.value.capitalize(),
            flt,
            request_id=rid,
            lock_per_chunk=lock_per_chunk,
            compress=compress,
            stream=streamed or raw_stream is not None,
        )
        self._invoke("get.%s" % scope.value, done,
                     protocol.message_size(request), at_nf, rid, span)
        return self._finish_rpc("get.%s" % scope.value, done, span)

    def get_perflow(
        self,
        flt: Filter,
        lock_per_chunk: bool = False,
        lock_silent: bool = False,
        compress: bool = False,
        raw_stream: Optional[Callable[[StateChunk], None]] = None,
        stream_frame: Optional[Callable[[List[StateChunk]], None]] = None,
    ) -> Event:
        """``getPerflow(filter)``; triggers with ``List[StateChunk]``."""
        return self._get(Scope.PERFLOW, flt, lock_per_chunk,
                         lock_silent, compress, raw_stream, stream_frame)

    def get_multiflow(
        self,
        flt: Filter,
        lock_per_chunk: bool = False,
        lock_silent: bool = False,
        compress: bool = False,
        raw_stream: Optional[Callable[[StateChunk], None]] = None,
        stream_frame: Optional[Callable[[List[StateChunk]], None]] = None,
    ) -> Event:
        """``getMultiflow(filter)``; triggers with ``List[StateChunk]``."""
        return self._get(Scope.MULTIFLOW, flt, lock_per_chunk,
                         lock_silent, compress, raw_stream, stream_frame)

    def get_allflows(
        self,
        compress: bool = False,
        raw_stream: Optional[Callable[[StateChunk], None]] = None,
        stream_frame: Optional[Callable[[List[StateChunk]], None]] = None,
    ) -> Event:
        """``getAllflows()``; triggers with ``List[StateChunk]``."""
        return self._get(Scope.ALLFLOWS, Filter.wildcard(), False,
                         False, compress, raw_stream, stream_frame)

    def list_flowids(self, scope: Scope, flt: Filter) -> Event:
        """Enumerate flowids of matching state without exporting it.

        Not part of the paper's API; a lightweight helper used by the
        reroute-only baseline (which needs to pin existing flows) and by
        diagnostics. Cost: one request/response of control-message size.
        """
        done = self.sim.event("list@%s" % self.nf.name)
        rid = self._next_request_id()
        span = self._rpc_span("list.%s" % scope.value)

        def at_nf() -> None:
            keys = self.nf.state_keys(scope, flt)
            flowids = [key for key in keys if isinstance(key, FlowId)]
            self._send_response(
                rid, done, REQUEST_BYTES + 16 * len(flowids), flowids
            )

        size = REQUEST_BYTES + (REQUEST_ID_BYTES if rid is not None else 0)
        self._invoke("list.%s" % scope.value, done, size, at_nf, rid, span)
        return self._finish_rpc("list.%s" % scope.value, done, span)

    # ------------------------------------------------------------------- put

    def _put(self, chunks: Iterable[StateChunk], op: str = "put") -> Event:
        chunk_list = list(chunks)
        done = self.sim.event("put@%s" % self.nf.name)
        rid = self._next_request_id()
        span = self._rpc_span(op, chunks=len(chunk_list))

        def at_nf() -> None:
            apply_span = self._nf_side_span(
                "nf.apply", span, chunks=len(chunk_list)
            )

            def respond(event: Event) -> None:
                if not event.ok:
                    if apply_span.span_id is not None:
                        apply_span.set(error=repr(event.exception))
                        apply_span.status = "error"
                    apply_span.finish()
                    self._send_response(rid, done, REQUEST_BYTES,
                                        event.exception, failed=True)
                    return
                apply_span.finish()
                self._send_response(rid, done, REQUEST_BYTES, event.value)

            proc = self.nf.sb_put(chunk_list)
            proc.done.add_callback(respond)

        header = protocol.put_request("put", len(chunk_list), request_id=rid)
        size = chunks_wire_bytes(chunk_list) + protocol.message_size(header)
        self._invoke(op, done, size, at_nf, rid, span)
        return self._finish_rpc(op, done, span)

    def put_perflow(self, chunks: Iterable[StateChunk]) -> Event:
        """``putPerflow(multimap<flowid,chunk>)``; triggers when merged."""
        return self._put(chunks, "put.perflow")

    def put_multiflow(self, chunks: Iterable[StateChunk]) -> Event:
        """``putMultiflow(...)``; triggers when merged."""
        return self._put(chunks, "put.multiflow")

    def put_allflows(self, chunks: Iterable[StateChunk]) -> Event:
        """``putAllflows(list<chunk>)``; triggers when merged."""
        return self._put(chunks, "put.allflows")

    # ----------------------------------------------------------------- delete

    def _delete(self, scope: Scope, flowids: Iterable[FlowId]) -> Event:
        ids = list(flowids)
        done = self.sim.event("del@%s" % self.nf.name)
        rid = self._next_request_id()
        span = self._rpc_span("del.%s" % scope.value, flowids=len(ids))

        def respond(event: Event) -> None:
            if not event.ok:
                self._send_response(rid, done, REQUEST_BYTES,
                                    event.exception, failed=True)
                return
            self._send_response(rid, done, REQUEST_BYTES, event.value)

        def at_nf() -> None:
            proc = self.nf.sb_delete(scope, ids)
            proc.done.add_callback(respond)

        request = protocol.delete_request(
            "del%s" % scope.value.capitalize(), ids, request_id=rid
        )
        self._invoke("del.%s" % scope.value, done,
                     protocol.message_size(request), at_nf, rid, span)
        return self._finish_rpc("del.%s" % scope.value, done, span)

    def del_perflow(self, flowids: Iterable[FlowId]) -> Event:
        """``delPerflow(list<flowid>)``."""
        return self._delete(Scope.PERFLOW, flowids)

    def del_multiflow(self, flowids: Iterable[FlowId]) -> Event:
        """``delMultiflow(list<flowid>)``."""
        return self._delete(Scope.MULTIFLOW, flowids)

    # ----------------------------------------------------------------- events

    def enable_events(
        self, flt: Filter, action: EventAction, silent: bool = False
    ) -> Event:
        """``enableEvents(filter, action)``; triggers when the rule is live."""
        done = self.sim.event("enableEvents@%s" % self.nf.name)
        rid = self._next_request_id()
        span = self._rpc_span("enableEvents", action=action.value)

        def at_nf() -> None:
            self.nf.sb_enable_events(flt, action, silent=silent)
            self._send_response(rid, done, REQUEST_BYTES, None)

        request = protocol.events_request(
            "enableEvents", flt, action.value, request_id=rid
        )
        self._invoke("enableEvents", done,
                     protocol.message_size(request), at_nf, rid, span)
        return self._finish_rpc("enableEvents", done, span)

    def drain_barrier(self) -> Event:
        """Fires once the NF's input queue has fully drained.

        The response is sent from the NF's idle notification, *after*
        any events queued packets raised — and it travels the same FIFO
        NF→controller channel, so when this fires every straggler event
        is already at the controller. The offloaded move issues this
        before releasing the switch-local rings, which is what keeps
        controller-buffered stragglers ahead of ring packets in the
        destination's processing order.
        """
        done = self.sim.event("drainBarrier@%s" % self.nf.name)
        rid = self._next_request_id()
        span = self._rpc_span("drainBarrier")

        def at_nf() -> None:
            self.nf.on_idle(
                lambda: self._send_response(rid, done, REQUEST_BYTES, None)
            )

        size = REQUEST_BYTES + (REQUEST_ID_BYTES if rid is not None else 0)
        self._invoke("drainBarrier", done, size, at_nf, rid, span)
        return self._finish_rpc("drainBarrier", done, span)

    def disable_events(self, flt: Filter) -> Event:
        """``disableEvents(filter)``; triggers when the rule is removed."""
        done = self.sim.event("disableEvents@%s" % self.nf.name)
        rid = self._next_request_id()
        span = self._rpc_span("disableEvents")

        def at_nf() -> None:
            flush_span = self._nf_side_span("nf.flush", span)
            if flush_span.span_id is not None:
                before = self.nf.buffered_packet_count()
            self.nf.sb_disable_events(flt)
            if flush_span.span_id is not None:
                flush_span.set(
                    released=before - self.nf.buffered_packet_count()
                )
            flush_span.finish()
            self._send_response(rid, done, REQUEST_BYTES, None)

        request = protocol.events_request("disableEvents", flt,
                                          request_id=rid)
        self._invoke("disableEvents", done,
                     protocol.message_size(request), at_nf, rid, span)
        return self._finish_rpc("disableEvents", done, span)

    def disable_events_covered(self, flt: Filter) -> Event:
        """Disable every rule whose filter falls under ``flt``.

        One control message that cleans up both a whole-filter rule and
        any per-flow rules late locking created (§5.1.3).
        """
        done = self.sim.event("disableEventsCovered@%s" % self.nf.name)
        rid = self._next_request_id()
        span = self._rpc_span("disableEventsCovered")

        def at_nf() -> None:
            flush_span = self._nf_side_span("nf.flush", span)
            if flush_span.span_id is not None:
                before = self.nf.buffered_packet_count()
            self.nf.sb_disable_events_covered(flt)
            if flush_span.span_id is not None:
                flush_span.set(
                    released=before - self.nf.buffered_packet_count()
                )
            flush_span.finish()
            self._send_response(rid, done, REQUEST_BYTES, None)

        size = REQUEST_BYTES + (REQUEST_ID_BYTES if rid is not None else 0)
        self._invoke("disableEventsCovered", done, size, at_nf, rid, span)
        return self._finish_rpc("disableEventsCovered", done, span)
