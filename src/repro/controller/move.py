"""The ``move`` operation (§5.1), including Figure 6's algorithm.

Three guarantee levels:

* :attr:`Guarantee.NONE` — get/del/put then a route update. Packets
  reaching the source during the window are dropped (the Split/Merge
  behaviour the paper inherits for its no-guarantee mode); Figure 11(a)
  counts these drops.
* :attr:`Guarantee.LOSS_FREE` — ``enableEvents(filter, drop)`` on the
  source first; dropped packets travel to the controller inside events,
  are buffered there until ``putPerflow`` completes, and are then
  re-injected towards the destination via packet-out (§5.1.1).
* :attr:`Guarantee.ORDER_PRESERVING` — the full Figure 6 pseudo-code:
  the loss-free steps, then buffering at the destination plus the
  two-phase forwarding update (forward to {src, ctrl} at low priority,
  observe the last packet, overlay a high-priority rule to dst, wait for
  the destination to process that last packet, then release the
  destination's buffer).

Two optimizations (§5.1.3), composable with any guarantee:

* **parallelizing (PL)** — the source streams each chunk as soon as it
  is serialized and the controller puts each arriving frame right away
  (one chunk per frame, unless batching coalesces several; see
  :mod:`repro.controller.pipeline`);
* **early release (ER)** — late locking (events enabled per flow just
  before its chunk is serialized) plus per-flow release of buffered
  events as soon as that flow's put returns. Only valid for a
  single-scope move, as in the paper.

Two further extensions the paper sketches are implemented as options:
``compress=True`` ships chunks zlib-compressed (§8.3 measured 38 %
smaller transfers), and ``peer_to_peer=True`` streams chunks directly
from the source NF to the destination NF over an NF–NF channel instead
of relaying them through the controller (footnote 10), bypassing the
controller's serialized inbox entirely.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.flowspace.filter import Filter, FlowId
from repro.net.flowtable import HIGH_PRIORITY, MID_PRIORITY
from repro.net.packet import Packet
from repro.net.switch import CONTROLLER_PORT
from repro.nf.base import NFCrash
from repro.nf.events import DO_NOT_BUFFER, EventAction, PacketEvent
from repro.nf.southbound import SouthboundError
from repro.nf.state import Scope, StateChunk
from repro.controller.operation import Operation, scope_calls
from repro.controller.pipeline import WindowedPutPipeline
from repro.controller.reports import OperationReport
from repro.sim.process import AllOf, AnyOf


class Guarantee(enum.Enum):
    """Move-safety properties an application can request."""

    NONE = "none"
    LOSS_FREE = "loss-free"
    ORDER_PRESERVING = "loss-free order-preserving"
    #: The technical report's stronger variant: does not assume the
    #: sw→srcInst path delivers in order. All matching traffic is
    #: sequenced through the controller for the duration of the move.
    ORDER_PRESERVING_STRONG = "loss-free order-preserving (strong)"

    @classmethod
    def parse(cls, value: Any) -> "Guarantee":
        if isinstance(value, Guarantee):
            return value
        text = str(value).strip().lower()
        aliases = {
            "none": cls.NONE,
            "ng": cls.NONE,
            "loss-free": cls.LOSS_FREE,
            "lossfree": cls.LOSS_FREE,
            "lf": cls.LOSS_FREE,
            "order-preserving": cls.ORDER_PRESERVING,
            "loss-free order-preserving": cls.ORDER_PRESERVING,
            "lf+op": cls.ORDER_PRESERVING,
            "op": cls.ORDER_PRESERVING,
            "op-strong": cls.ORDER_PRESERVING_STRONG,
            "loss-free order-preserving (strong)": cls.ORDER_PRESERVING_STRONG,
        }
        try:
            return aliases[text]
        except KeyError:
            raise ValueError("unknown guarantee %r" % (value,))


class MoveOperation(Operation):
    """One in-flight ``move``; ``done`` fires with the OperationReport."""

    kind = "move"

    def __init__(
        self,
        shard,
        src,
        dst,
        flt: Filter,
        scopes: Tuple[Scope, ...],
        guarantee: Guarantee,
        parallel: bool = True,
        early_release: bool = False,
        compress: bool = False,
        peer_to_peer: bool = False,
        drain_grace_ms: float = 30.0,
        first_packet_timeout_ms: float = 40.0,
        counter_poll_ms: float = 8.0,
        route_actions: Optional[Callable[[str], List[str]]] = None,
        trace_attrs: Optional[Dict[str, str]] = None,
    ) -> None:
        if early_release and not parallel:
            raise ValueError("early release requires the parallelizing optimization")
        if early_release and len(scopes) > 1:
            raise ValueError(
                "early release applies to a move of per-flow or multi-flow "
                "state, but not both (§5.1.3)"
            )
        if peer_to_peer and not parallel:
            raise ValueError("peer-to-peer transfer implies chunk streaming")
        self.shard = shard
        self.controller = controller = shard.controller
        self.sim = controller.sim
        self.src = src
        self.dst = dst
        self.flt = flt
        self.scopes = scopes
        self.guarantee = guarantee
        self.parallel = parallel
        self.early_release = early_release
        self.compress = compress
        self.peer_to_peer = peer_to_peer
        self.drain_grace_ms = drain_grace_ms
        self.first_packet_timeout_ms = first_packet_timeout_ms
        self.counter_poll_ms = counter_poll_ms
        self.dst_port = controller.port_of(dst.name)
        self.src_port = controller.port_of(src.name)
        #: Data-plane offload: buffer the window at the switch in an
        #: XFSM instead of eventing every packet to the controller.
        #: Only the LF / LF+OP fast paths offload — NONE has nothing to
        #: buffer and the strong variant *requires* the controller as
        #: the serialization point. ``controller.offload`` is False by
        #: default, keeping the classic timeline byte-identical.
        self.offload = controller.offload and (
            guarantee in (Guarantee.LOSS_FREE, Guarantee.ORDER_PRESERVING)
        )
        #: True once the machine is installed (drives abort cleanup).
        self._xfsm_installed = False
        #: How a forwarding target becomes a rule action list. The
        #: default (identity) keeps classic moves byte-identical; a
        #: chain-aware move supplies the full per-hop action list so
        #: rerouting one hop never starves the chain's other hops.
        self._route: Callable[[str], List[str]] = (
            route_actions if route_actions is not None
            else (lambda port: [port])
        )

        self.report = OperationReport(
            kind="move",
            guarantee=guarantee,
            filter_repr=repr(flt),
            src=src.name,
            dst=dst.name,
        )
        self.done = self.sim.event("move-done")
        self._abort_requested = None
        #: Observability bundle shared with the owning controller; phase
        #: marks in :attr:`report` are derived from phase-span closes.
        self.obs = controller.obs
        operation_attrs = dict(shard.labels)
        if trace_attrs:
            # Chain-scoped attributes (chain_id / hop) ride every hop
            # move's trace so the chain auditor can stitch the per-hop
            # causal slices back into one end-to-end story.
            operation_attrs.update(trace_attrs)
        self.trace = self.obs.operation(
            self.sim,
            self.report,
            "move",
            guarantee=guarantee.value,
            filter=repr(flt),
            flowspace=flt,
            src=src.name,
            dst=dst.name,
            scopes=",".join(s.value for s in scopes),
            **operation_attrs,
        )
        if self.trace.root.span_id is not None:
            self.trace.root.set(op_id=self.trace.root.span_id)
        #: Causally bound stubs: southbound RPCs and switch commands
        #: issued through these inherit this operation's ``trace_id``
        #: (plain pass-throughs while tracing is disabled).
        self.src = self.trace.bind(self.src)
        self.dst = self.trace.bind(self.dst)
        self.switch = self.trace.bind(controller.switch_client)

        # Event-buffering machinery (loss-free / order-preserving).
        # One globally ordered buffer, as in Figure 6: flushing must not
        # reorder packets across flows (cross-flow order matters for
        # moves that include multi-flow state, §5.1.2).
        self._buffering = False
        self._event_buffer: List[Packet] = []
        self._released_filters: List[Filter] = []
        self._src_evented_uids: set = set()
        self._dst_processed_uids: set = set()
        self._await_src: Optional[Tuple[int, Any]] = None
        self._await_dst: Optional[Tuple[int, Any]] = None
        # Two-phase update state.
        self._first_packet_event = self.sim.event("got-first-pkt-from-sw")
        self._last_packet: Optional[Packet] = None
        self._packet_in_count = 0
        # Chunks exported so far, for restore-on-abort.
        self._exported_chunks: List[StateChunk] = []
        # Accounting snapshots.
        self._src_drops_at_start = 0
        self._dst_buffered_at_start = 0
        self._interest_handles: List[int] = []
        #: Reliability accounting baseline (client stats are cumulative
        #: and shared; concurrent operations on the same clients may
        #: attribute each other's retries).
        self._sb_stats_at_start = self._sb_stats()

        self.process = self.sim.spawn(self._run(), name="move-op")

    # ------------------------------------------------------------------ driver

    def _abort_target(self) -> str:
        # An aborted move unwinds exactly like a destination failure:
        # exported chunks restore to the source, events are disabled,
        # and buffered packets flush back to the source port.
        return self.dst.name

    def _run(self):
        self.report.started_at = self.sim.now
        self._src_drops_at_start = self.src.nf.packets_dropped_silent
        self._dst_buffered_at_start = len(self.dst.nf.buffered_log)
        try:
            self._checkpoint()
            if self.guarantee is Guarantee.NONE:
                yield from self._run_no_guarantee()
            elif self.guarantee is Guarantee.ORDER_PRESERVING_STRONG:
                yield from self._run_strong_order_preserving()
            elif self.offload:
                yield from self._run_offloaded(
                    order_preserving=self.guarantee is Guarantee.ORDER_PRESERVING
                )
            else:
                yield from self._run_loss_free(
                    order_preserving=self.guarantee is Guarantee.ORDER_PRESERVING
                )
            self.report.finished_at = self.sim.now
            yield from self._cleanup()
        except (NFCrash, SouthboundError) as crash:
            # An instance died (or became unreachable past the retry
            # budget) mid-operation: surface the abort instead of
            # wedging. Buffered events are flushed towards whichever
            # instance still works so packets are not stranded.
            self.report.aborted = str(crash)
            self.report.finished_at = self.sim.now
            self._buffering = False
            src_down = self.src.nf.failed or (
                isinstance(crash, SouthboundError)
                and crash.nf_name == self.src.name
            )
            dst_down = self.dst.nf.failed or (
                isinstance(crash, SouthboundError)
                and crash.nf_name == self.dst.name
            )
            try:
                if not dst_down:
                    self._flush_queues(
                        mark=not self.offload
                        and self.guarantee is not Guarantee.LOSS_FREE
                    )
                    if self._xfsm_installed:
                        # Crash mid-offload: hand the switch rings to
                        # the destination and retire the machine — the
                        # same packets the classic path would have
                        # flushed from the controller's buffer.
                        yield from self._retire_xfsm(self.dst_port)
                elif not src_down:
                    # Destination died: restore the already-exported (and
                    # deleted) state to the source, stop intercepting
                    # there, and hand the buffered packets back to it.
                    if self._exported_chunks:
                        restores: Dict[Scope, List[StateChunk]] = {}
                        for chunk in self._exported_chunks:
                            restores.setdefault(chunk.scope, []).append(chunk)
                        for scope, chunks in restores.items():
                            if scope is Scope.PERFLOW:
                                yield self.src.put_perflow(chunks)
                            elif scope is Scope.MULTIFLOW:
                                yield self.src.put_multiflow(chunks)
                            else:
                                yield self.src.put_allflows(chunks)
                        self.report.notes.append(
                            "restored %d chunks to %s"
                            % (len(self._exported_chunks), self.src.name)
                        )
                        if not self.dst.nf.failed:
                            # Unreachable-but-alive destination: chunks
                            # it already imported now coexist with the
                            # restored copies; record them so the caller
                            # can reconcile once it is reachable again.
                            self.report.notes.append(
                                "%s may hold stale copies" % self.dst.name
                            )
                    yield self.src.disable_events_covered(self.flt)
                    self._flush_queues(mark=False, port=self.src_port)
                    if self._xfsm_installed:
                        # Destination died mid-offload: the restored
                        # source keeps serving, so the rings flush back
                        # to it and the machine comes out.
                        yield from self._retire_xfsm(self.src_port)
                if not src_down:
                    yield self.src.disable_events_covered(self.flt)
            except (NFCrash, SouthboundError) as recovery_exc:
                # Best-effort recovery: the surviving side vanished too.
                self.report.notes.append(
                    "abort recovery incomplete: %s" % recovery_exc
                )
        except Exception as exc:
            # Anything else is an internal error: fail loudly so callers
            # never hang on a move that died (the done event carries the
            # exception).
            self.report.aborted = "internal error: %r" % (exc,)
            self.report.finished_at = self.sim.now
            for handle in self._interest_handles:
                self.controller.remove_interest(handle)
            self.done.fail(exc)
            raise
        finally:
            for handle in self._interest_handles:
                self.controller.remove_interest(handle)
            self._finalize_reliability()
            self.trace.finish(aborted=self.report.aborted)
        self.done.trigger(self.report)
        return self.report

    def _retire_xfsm(self, port: str):
        """Flush the switch-local rings to ``port``; remove the machine."""
        yield self.switch.release_state_machine(self.flt, port)
        yield self.switch.remove_state_machine(self.flt)
        self._xfsm_installed = False

    def _sb_stats(self) -> Dict[str, int]:
        return {
            key: self.src.stats[key] + self.dst.stats[key]
            for key in ("retries", "timeouts")
        }

    def _finalize_reliability(self) -> None:
        """Fill the report's retry/timeout counts from client deltas."""
        now = self._sb_stats()
        self.report.retries = now["retries"] - self._sb_stats_at_start["retries"]
        self.report.timeouts = (
            now["timeouts"] - self._sb_stats_at_start["timeouts"]
        )

    # -------------------------------------------------------------- NG variant

    def _run_no_guarantee(self):
        # Drop (without events) at the source for the operation window.
        with self.trace.phase("lock", mark="locked"):
            yield self.src.enable_events(self.flt, EventAction.DROP, silent=True)
        with self.trace.phase("state-transfer", mark=None) as ph:
            yield from self._transfer_state(lock_per_chunk=False, parent=ph.span)
        with self.trace.phase("reroute", mark="rerouted"):
            yield self.switch.install(
                self.flt, self._route(self.dst_port), MID_PRIORITY
            )

    # -------------------------------------------------- LF / LF+OP (Figure 6)

    def _capture_and_transfer(self):
        """Figure 6's opening steps, shared by the LF paths.

        shouldBufferEvents <- true and route the source's events to this
        operation; ``srcInst.enableEvents(filter, DROP)`` (per flow via
        late locking inside the get when early release is on); then
        get/del/put.
        """
        self._buffering = True
        self._interest_handles.append(
            self.controller.add_event_interest(
                self.src.name, self.flt, self._on_src_event
            )
        )
        if not self.early_release:
            with self.trace.phase("events-enabled"):
                yield self.src.enable_events(self.flt, EventAction.DROP)
        with self.trace.phase("state-transfer", mark="state-transferred") as ph:
            yield from self._transfer_state(
                lock_per_chunk=self.early_release, parent=ph.span
            )

    def _run_loss_free(self, order_preserving: bool):
        yield from self._capture_and_transfer()

        # Flush events buffered at the controller; later ones forward
        # immediately. In the OP variant forwarded packets carry
        # "do-not-buffer" so dstInst processes them despite its BUFFER rule.
        with self.trace.phase(
            "event-flush", mark=None if order_preserving else "events-flushed"
        ) as flush_ph:
            flush_ph.span.set(buffered=len(self._event_buffer))
            self._flush_queues(mark=order_preserving)
            self._buffering = False
            if not order_preserving:
                # Ensure flushed event packets have actually left the
                # switch (rate-capped packet-out path) before switching
                # traffic over.
                yield self.switch.packet_out_barrier()

        if not order_preserving:
            with self.trace.phase("reroute", mark="rerouted"):
                yield self.switch.install(
                    self.flt, self._route(self.dst_port), MID_PRIORITY
                )
            return

        # dstInst.enableEvents(filter, BUFFER)
        self._interest_handles.append(
            self.controller.add_event_interest(
                self.dst.name, self.flt, self._on_dst_event
            )
        )
        with self.trace.phase("dst-buffering"):
            yield self.dst.enable_events(self.flt, EventAction.BUFFER)

        with self.trace.phase("forwarding-update", mark=None) as fwd:
            # Phase 1: sw.install(filter, {srcInst, ctrl}, LOW_PRIORITY).
            self._interest_handles.append(
                self.controller.add_packet_interest(self.flt, self._on_packet_in)
            )
            with self.trace.phase(
                "phase1-install", mark="phase1-installed", parent=fwd.span
            ):
                yield self.switch.install(
                    self.flt,
                    self._route(self.src_port) + [CONTROLLER_PORT],
                    MID_PRIORITY,
                )

            # wait(GOT_FIRST_PKT_FROM_SW) — with a timeout so a silent flow
            # space cannot wedge the operation (the paper assumes traffic).
            with self.trace.phase(
                "await-first-packet", mark=None, parent=fwd.span
            ):
                yield AnyOf(
                    [
                        self._first_packet_event,
                        self.sim.timeout(self.first_packet_timeout_ms),
                    ]
                )

            # Phase 2: sw.install(filter, dstInst, HIGH_PRIORITY).
            with self.trace.phase(
                "phase2-install", mark="phase2-installed", parent=fwd.span
            ):
                yield self.switch.install(
                    self.flt, self._route(self.dst_port), HIGH_PRIORITY
                )

            with self.trace.phase(
                "await-last-packet", mark=None, parent=fwd.span
            ) as await_ph:
                # Footnote 9: confirm via rule counters that the stored
                # packet is really the last one forwarded to srcInst.
                yield from self._await_rule_counters(await_ph.span)
                # The last packet srcInst will see: the last one phase 1
                # copied to us or, when the switch sent none that way,
                # the last one the old route left queued at srcInst (a
                # backlogged source can hold some long after phase 2).
                last = (self._last_packet if self._packet_in_count > 0
                        else self.src.nf.last_queued(self.flt))
                if last is not None:
                    last_uid = last.uid
                    # wait for srcInst's event for the last packet (it is
                    # then forwarded to dstInst by _on_src_event, marked
                    # do-not-buffer).
                    if last_uid not in self._src_evented_uids:
                        yield from self._await_src_event(
                            last_uid, "await-src-last")
                    yield from self._await_dst_processed(
                        last_uid, "await-dst-last")

        # dstInst.disableEvents(filter): release the destination buffer.
        with self.trace.phase("dst-release", mark="dst-released"):
            yield self.dst.disable_events(self.flt)

    # ------------------------------------------- offloaded LF / LF+OP (XFSM)

    def _run_offloaded(self, order_preserving: bool):
        """The move fast path: buffer the window at the switch, not here.

        One ``install_state_machine`` message parks every in-window
        packet in switch-local rings; one ``release`` message flushes
        them — in arrival order — straight to the destination port. The
        per-packet NF→controller event round trip and the packet-out
        storm both disappear, and so does Figure 6's two-phase
        forwarding update: the machine already guarantees the
        destination sees the window in switch arrival order, for the
        loss-free and order-preserving guarantees alike.

        The controller's classic event buffer still catches stragglers —
        packets that passed the flow table before the machine activated
        (in flight to the source, or queued in it). They are earlier in
        switch order than anything the machine holds, and they flush on
        the same channel *before* the release message, so global order
        survives.
        """
        from repro.net.xfsm import BufferUntilRelease

        with self.trace.phase("xfsm-install", mark="xfsm-installed"):
            yield self.switch.install_state_machine(
                self.flt, BufferUntilRelease(trace_id=self.trace.trace_id)
            )
        self._xfsm_installed = True
        # Stragglers surface as classic DROP events.
        yield from self._capture_and_transfer()

        # Reroute BEFORE releasing: when the machine's flush drains and
        # it steps to REDIRECT, fall-through arrivals hit this rule.
        with self.trace.phase("reroute", mark="rerouted"):
            reroute_done = self.switch.install(
                self.flt, self._route(self.dst_port), MID_PRIORITY
            )
            if order_preserving:
                # Wait for the source's queue to drain: its idle response
                # trails every straggler event on the FIFO NF channel, so
                # after this yield the controller buffer holds ALL
                # packets that are earlier in switch order than the
                # rings. (Loss-free moves skip this — a late straggler
                # still gets forwarded, just possibly out of order.)
                yield self.src.drain_barrier()
            yield reroute_done

        with self.trace.phase("sw-release", mark="released") as rel_ph:
            # Controller-buffered stragglers first (they precede the
            # rings in switch order); the release is a plain send behind
            # them on the same channel, so the switch emits them before
            # it flushes.
            self._flush_queues(mark=False)
            self._buffering = False
            flushed = yield self.switch.release_state_machine(
                self.flt, self.dst_port
            )
            rel_ph.span.set(flushed=flushed)
            self.report.packets_buffered_at_switch = flushed

    # ------------------------------------- strong OP (technical report, §5.1.2)

    def _run_strong_order_preserving(self):
        """Order preservation without trusting the sw→srcInst path.

        The paper's Figure 6 relies on in-order delivery between the
        switch and the source; its technical report sketches a stronger
        variant. Here the controller becomes the serialization point:

        1. redirect all matching traffic to the controller (consistent
           update: nothing is lost, and every packet the switch handles
           after the redirect reaches the controller in switch order);
        2. drop-with-events at the source so stragglers already in
           flight on the (possibly reordering) sw→src path surface as
           events — they are all *earlier* in switch order than any
           controller packet-in, so replaying src events first, then
           the controller buffer, is order-correct up to the residual
           ambiguity *within* the straggler set, which one flow-mod
           window (not a whole move) of in-order delivery resolves;
        3. transfer the state; replay src-event packets, then buffered
           packet-ins, all marked do-not-buffer, towards the
           destination (which buffers its direct arrivals);
        4. switch traffic to the destination, confirm via rule counters
           that the controller has seen every redirected packet, wait
           for the destination to process the last replayed one, and
           release its buffer.
        """
        self._buffering = True
        self._ctrl_buffer: List[Packet] = []
        self._interest_handles.append(
            self.controller.add_event_interest(
                self.src.name, self.flt, self._on_src_event
            )
        )
        self._interest_handles.append(
            self.controller.add_event_interest(
                self.dst.name, self.flt, self._on_dst_event
            )
        )
        self._interest_handles.append(
            self.controller.add_packet_interest(
                self.flt, self._on_strong_packet_in
            )
        )
        # 1. Redirect the flow space through the controller.
        with self.trace.phase("redirect", mark="redirected"):
            yield self.switch.install(
                self.flt, self._route(CONTROLLER_PORT), MID_PRIORITY
            )
        # 2. Surface in-flight stragglers as events.
        with self.trace.phase("events-enabled"):
            yield self.src.enable_events(self.flt, EventAction.DROP)

        # 3. Transfer state (same pipeline as the LF path).
        with self.trace.phase("state-transfer", mark="state-transferred") as ph:
            yield from self._transfer_state(
                lock_per_chunk=self.early_release, parent=ph.span
            )

        with self.trace.phase("dst-buffering", mark=None):
            yield self.dst.enable_events(self.flt, EventAction.BUFFER)

        # Replay: src-event stragglers first (earlier in switch order),
        # then the controller's redirect buffer, marked do-not-buffer.
        with self.trace.phase("event-flush", mark=None) as flush_ph:
            flush_ph.span.set(
                buffered=len(self._event_buffer),
                redirected=len(self._ctrl_buffer),
            )
            self._flush_queues(mark=True)      # src events
            ctrl_buffered, self._ctrl_buffer = self._ctrl_buffer, []
            self._note_released(ctrl_buffered, "redirect")
            for packet in ctrl_buffered:
                self._forward_to_dst(packet, True)
            self._buffering = False            # later arrivals: immediate

        # 4. Hand the flow space to the destination.
        with self.trace.phase("reroute", mark="rerouted"):
            yield self.switch.install(
                self.flt, self._route(self.dst_port), HIGH_PRIORITY
            )
        with self.trace.phase("await-last-packet", mark=None) as await_ph:
            # Confirm the controller saw every redirected packet.
            yield from self._await_rule_counters(await_ph.span)
            if self._last_packet is not None:
                yield from self._await_dst_processed(
                    self._last_packet.uid, "await-dst-last-strong")
        with self.trace.phase("dst-release", mark="dst-released"):
            yield self.dst.disable_events(self.flt)

    def _await_rule_counters(self, span):
        """Poll the MID rule's counters until every packet it matched
        has reached this operation as a packet-in."""
        while True:
            packets, _bytes = (
                yield self.switch.read_counters(self.flt, MID_PRIORITY)
            )
            if packets == self._packet_in_count:
                break
            yield self.counter_poll_ms
        span.set(packet_ins=self._packet_in_count)

    def _await_dst_processed(self, uid: int, name: str):
        """wait(DST_PROCESSED_LAST_PKT) for packet ``uid``."""
        if uid not in self._dst_processed_uids:
            waiter = self.sim.event(name)
            self._await_dst = (uid, waiter)
            yield waiter

    def _on_strong_packet_in(self, packet: Packet) -> None:
        self._packet_in_count += 1
        self._last_packet = packet
        self.report.packets_in_events += 1
        self.report.affected_uids.add(packet.uid)
        if self._buffering:
            if self.obs.enabled:
                self.obs.metrics.counter(
                    "ctrl.move.buffered_packets_captured"
                ).inc(1)
                self._record_packet("ctrl.buffer", packet, "redirect")
            self._ctrl_buffer.append(packet)
        else:
            self._forward_to_dst(packet, True)

    # --------------------------------------------------------- state transfer

    def _note_chunk(self, scope: Scope, chunk: StateChunk) -> None:
        """Account one exported chunk (report + transfer metrics)."""
        self.report.add_chunk(
            scope.value, chunk.size_bytes, chunk.wire_size_bytes
        )
        self._exported_chunks.append(chunk)
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.counter("ctrl.chunks.transferred").inc(1, scope=scope.value)
            metrics.counter("ctrl.chunks.wire_bytes").inc(
                chunk.wire_size_bytes, scope=scope.value
            )

    def _transfer_state(self, lock_per_chunk: bool, parent=None):
        silent_lock = self.guarantee is Guarantee.NONE
        batching = self.controller.batching
        for scope in self.scopes:
            self._checkpoint()
            getter, putter, deleter = scope_calls(self.src, self.dst, scope)
            exported_before = len(self._exported_chunks)
            with self.trace.phase(
                "transfer.%s" % scope.value, mark=None, parent=parent
            ) as scope_ph:
                if self.peer_to_peer:
                    yield from self._transfer_scope_peer(
                        scope, getter, deleter, lock_per_chunk, silent_lock
                    )
                elif self.parallel:
                    # §5.1.3 / §8.3: chunks stream in frames (one chunk
                    # each without batching), every frame takes one
                    # inbox slot and goes to the destination as one
                    # windowed put while the source keeps streaming.
                    pipeline = WindowedPutPipeline(
                        self.sim, putter,
                        None if batching is None else batching.pipeline_window,
                        on_frame_done=(
                            self._release_frame if self.early_release else None
                        ),
                    )

                    def handle_chunk_frame(frame, _scope=scope,
                                           _pipeline=pipeline):
                        for chunk in frame:
                            self._note_chunk(_scope, chunk)
                        _pipeline.submit(frame)

                    chunks = yield getter(
                        self.flt,
                        stream_frame=lambda frame, _h=handle_chunk_frame: (
                            self.shard.enqueue_chunks(_h, frame)
                        ),
                        lock_per_chunk=lock_per_chunk,
                        lock_silent=silent_lock,
                        compress=self.compress,
                    )
                    if deleter is not None and chunks:
                        yield deleter([c.flowid for c in chunks if c.flowid])
                    yield self.shard.inbox.drained()
                    # A scope that exported no chunk has no put to await.
                    if pipeline.frames_submitted:
                        yield pipeline.drained()
                    self._checkpoint()
                else:
                    chunks = yield getter(self.flt, compress=self.compress)
                    for chunk in chunks:
                        self._note_chunk(scope, chunk)
                    if deleter is not None and chunks:
                        yield deleter([c.flowid for c in chunks if c.flowid])
                    yield putter(chunks)
                scope_ph.span.set(
                    chunks=len(self._exported_chunks) - exported_before
                )

    def _transfer_scope_peer(
        self, scope, getter, deleter, lock_per_chunk, silent_lock
    ):
        """Footnote-10 mode: chunks flow src→dst directly.

        The source's get streams each serialized chunk over a dedicated
        NF–NF channel; the destination imports it locally (no controller
        relay, no inbox queueing). Early release is signalled back to
        the controller over the destination's event channel.
        """
        from repro.net.channel import ControlChannel

        peer = ControlChannel(
            self.sim,
            name="%s->%s" % (self.src.name, self.dst.name),
            latency_ms=self.controller.nf_channel_latency_ms,
            bandwidth_bytes_per_ms=self.controller.nf_channel_bandwidth,
            obs=self.obs,
        )
        self.controller._attach_faults(peer)
        put_events: List[Any] = []
        delivered_ids: set = set()

        def deliver(chunk: StateChunk) -> None:
            if id(chunk) in delivered_ids:
                return  # duplicated on the wire; already imported
            delivered_ids.add(id(chunk))
            put_process = self.dst.nf.sb_put([chunk])
            put_events.append(put_process.done)
            if self.early_release:
                def notify_release(_evt, c=chunk):
                    # dst tells the controller the chunk landed.
                    self.dst.from_nf.send(
                        64, self._release_flow, c.flowid
                    )
                put_process.done.add_callback(notify_release)

        def ship(chunk: StateChunk) -> None:
            self._note_chunk(scope, chunk)
            peer.send(chunk.wire_size_bytes + 74, deliver, chunk)

        chunks = yield getter(
            self.flt,
            raw_stream=ship,
            lock_per_chunk=lock_per_chunk,
            lock_silent=silent_lock,
            compress=self.compress,
        )
        if deleter is not None and chunks:
            yield deleter([c.flowid for c in chunks if c.flowid])
        # The peer channel has no RPC layer; chunks it dropped must be
        # re-shipped from the source's authoritative list (the loop only
        # runs when something is actually missing, so fault-free moves
        # take the classic timeline).
        reship_rounds = 0
        while True:
            missing = [c for c in chunks if id(c) not in delivered_ids]
            if not missing:
                break
            reship_rounds += 1
            if reship_rounds > 10:
                raise SouthboundError(
                    "peer transfer to %s lost %d chunks past the re-ship "
                    "budget" % (self.dst.name, len(missing)),
                    self.dst.name,
                )
            if self.dst.nf.failed:
                raise NFCrash(
                    "%s is down: %s"
                    % (self.dst.name, self.dst.nf.failure_reason)
                )
            self.report.notes.append(
                "re-shipped %d peer chunks (round %d)"
                % (len(missing), reship_rounds)
            )
            for chunk in missing:
                peer.send(chunk.wire_size_bytes + 74, deliver, chunk)
            yield 25.0 * reship_rounds
        if put_events:
            yield AllOf(put_events)

    # --------------------------------------------------------- event plumbing

    def _on_src_event(self, event: PacketEvent) -> None:
        packet = event.packet
        self.report.packets_in_events += 1
        self.report.affected_uids.add(packet.uid)
        self._src_evented_uids.add(packet.uid)
        if self._await_src is not None and self._await_src[0] == packet.uid:
            waiter = self._await_src[1]
            self._await_src = None
            waiter.trigger()
        mark = self.guarantee in (
            Guarantee.ORDER_PRESERVING, Guarantee.ORDER_PRESERVING_STRONG
        )
        if self._buffering:
            if self.early_release and any(
                f.matches_packet(packet) for f in self._released_filters
            ):
                self._forward_to_dst(packet, mark)
            else:
                if self.obs.enabled:
                    self.obs.metrics.counter(
                        "ctrl.move.buffered_packets_captured"
                    ).inc(1)
                    self._record_packet("ctrl.buffer", packet, "events")
                self._event_buffer.append(packet)
        else:
            self._forward_to_dst(packet, mark)

    def _await_src_event(self, uid: int, name: str):
        """Wait until srcInst's event for packet ``uid`` reaches this
        operation; a source that fails meanwhile aborts it instead."""
        nf = self.src.nf
        waiter = self.sim.event(name)
        self._await_src = (uid, waiter)
        nf.add_failure_listener(
            lambda _nf: waiter.triggered or waiter.trigger())
        yield waiter
        if nf.failed:
            raise NFCrash("%s is down: %s" % (nf.name, nf.failure_reason))

    def _on_dst_event(self, event: PacketEvent) -> None:
        uid = event.packet.uid
        self._dst_processed_uids.add(uid)
        if self._await_dst is not None and self._await_dst[0] == uid:
            waiter = self._await_dst[1]
            self._await_dst = None
            waiter.trigger()

    def _on_packet_in(self, packet: Packet) -> None:
        self._packet_in_count += 1
        self._last_packet = packet
        if not self._first_packet_event.triggered:
            self._first_packet_event.trigger()

    def _forward_to_dst(self, packet: Packet, mark: bool) -> None:
        if mark:
            packet.mark(DO_NOT_BUFFER)
        self.switch.packet_out(packet, self.dst_port)

    def _record_packet(self, name: str, packet: Packet, where: str) -> None:
        """Buffered/released packet record, tagged with the trace id."""
        self.obs.tracer.record(
            name,
            trace_id=self.trace.trace_id,
            where=where,
            uid=packet.uid,
            flow=packet.flow_key(),
        )

    def _note_released(self, packets: List[Packet], where: str) -> None:
        """Count and record buffered packets leaving for the destination."""
        if packets and self.obs.enabled:
            self.obs.metrics.counter(
                "ctrl.move.buffered_packets_released"
            ).inc(len(packets))
            for packet in packets:
                self._record_packet("ctrl.release", packet, where)

    def _release_frame(self, frame: List[StateChunk]) -> None:
        """Early release for every flow in an applied frame."""
        for chunk in frame:
            self._release_flow(chunk.flowid)

    def _release_flow(self, flowid: Optional[FlowId]) -> None:
        """Early release: flush and unblock the flows a chunk covers.

        For a per-flow chunk this is exactly one flow; for a multi-flow
        chunk (e.g. a host counter) every buffered flow it covers is
        released. Matching packets leave the buffer in their original
        (global) order.
        """
        if flowid is None:
            return
        release_filter = Filter(flowid.fields, symmetric=True)
        self._released_filters.append(release_filter)
        mark = not self.offload and self.guarantee in (
            Guarantee.ORDER_PRESERVING, Guarantee.ORDER_PRESERVING_STRONG
        )
        kept: List[Packet] = []
        flushed: List[Packet] = []
        for packet in self._event_buffer:
            if release_filter.matches_packet(packet):
                self._forward_to_dst(packet, mark)
                flushed.append(packet)
            else:
                kept.append(packet)
        self._event_buffer = kept
        self._note_released(flushed, "early")
        if self._xfsm_installed:
            # Early release composes per flow: one release message flushes
            # this flow's switch-local ring to the destination (behind any
            # straggler packet-outs issued just above — the release is an
            # ordering barrier on the same channel).
            self.switch.release_state_machine(release_filter, self.dst_port)

    def _flush_queues(self, mark: bool, port: Optional[str] = None) -> None:
        target = self.dst_port if port is None else port
        buffered, self._event_buffer = self._event_buffer, []
        self._note_released(buffered, "flush")
        for packet in buffered:
            if mark:
                packet.mark(DO_NOT_BUFFER)
            self.switch.packet_out(packet, target)

    # ----------------------------------------------------------------- cleanup

    def _await_source_events(self):
        """Keep the source interest until the source's events are handled.

        The source raised an event for each packet its DROP rule caught
        before ``disableEvents`` took effect, and the response trails
        those events on the FIFO NF channel. A backlogged inbox may
        still hold some of them when the response arrives; this
        operation's interest must outlive the last one, or the
        controller finds no claimant and the packet is lost. The inbox
        hands events over in order, so the last one's arrival covers the
        rest. Nothing waits when no such event is queued.
        """
        last = None
        for kind, payload, _handler in self.shard.inbox.queued():
            if (kind == "event" and payload.nf_name == self.src.name
                    and self.flt.matches_packet(payload.packet)):
                last = payload.packet
        if last is not None:
            yield from self._await_src_event(last.uid, "await-src-events")

    def _cleanup(self):
        with self.trace.phase("cleanup", mark=None):
            yield self.drain_grace_ms
            if not self.offload and self.guarantee in (
                Guarantee.ORDER_PRESERVING, Guarantee.ORDER_PRESERVING_STRONG
            ):
                # The phase-1 {src, ctrl} rule is shadowed by the HIGH rule;
                # retire it so later operations start from a clean table.
                # (Under offload the MID rule IS the live reroute — it
                # stays; there is no HIGH rule above it.)
                yield self.switch.remove(self.flt, MID_PRIORITY)
            if self._xfsm_installed:
                # Retire the (now fully drained) machine; matching
                # packets fall through to the MID reroute rule.
                yield self.switch.remove_state_machine(self.flt)
                self._xfsm_installed = False
            # Remove the source's event rules (global and late-locked per-flow).
            yield self.src.disable_events_covered(self.flt)
            yield from self._await_source_events()
            # Flush anything that trickled in during the grace period.
            self._flush_queues(
                mark=not self.offload
                and self.guarantee is Guarantee.ORDER_PRESERVING
            )
            self.report.packets_dropped = (
                self.src.nf.packets_dropped_silent - self._src_drops_at_start
            )
            buffered = self.dst.nf.buffered_log[self._dst_buffered_at_start :]
            self.report.packets_buffered_at_dst = len(buffered)
            for _time, uid in buffered:
                self.report.affected_uids.add(uid)
