"""The OpenNF controller.

Encapsulates distributed state control (§3): it owns the southbound
clients for every registered NF, the switch client, and the dispatch of
NF events and switch packet-ins to whichever northbound operation is
interested in them. The northbound API (§5) is exposed as methods:

* :meth:`move` — transfer state *and* input for a set of flows, with a
  choice of guarantee (none / loss-free / loss-free+order-preserving)
  and the parallelizing / early-release optimizations;
* :meth:`copy` — clone state between instances (eventual consistency is
  built by re-copying, §5.2.1);
* :meth:`share` — keep state strongly or strictly consistent across
  instances by serializing updates through the controller (§5.2.2);
* :meth:`notify` — subscribe a control application to state-update hints.

Inbound messages — NF events, switch packet-ins, and streamed state
chunks — all pass through one serialized inbox costing ``msg_proc_ms``
each, modeling the prototype's single-threaded message handling: §8.3's
profile found controller "threads are busy reading from sockets most of
the time", and this queue is why heavy event traffic stretches
operations and why Figure 13's per-move time grows with concurrency.

``shards=N`` removes that wall the way distributed SDN controllers do:
flow-space *ownership* is partitioned across N :class:`Shard` objects,
each with its own inbox and admission table, so operations over
different shards proceed in parallel. Everything else — registration,
the interest lists, the switch client, the northbound API — exists once
and is shared by every shard. With one shard nothing is routed: every
message enters the one inbox, which is the classic single controller.
The shard map and the cross-shard ownership handshake live in
:mod:`repro.controller.sharding`.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.flowspace.filter import Filter
from repro.net.channel import BatchConfig, ControlChannel
from repro.net.packet import Packet
from repro.net.switch import Switch
from repro.nf.base import NetworkFunction
from repro.nf.events import EVENT_ACK_BYTES, EventAction, PacketEvent
from repro.nf.southbound import NFClient
from repro.nf.state import normalize_scope
from repro.controller.chain import ChainOperation
from repro.controller.copy import CopyOperation
from repro.controller.forwarding import SwitchClient
from repro.controller.move import Guarantee, MoveOperation
from repro.controller.operation import DeferredOperation, Operation
from repro.controller.pump import ChunkPump
from repro.controller.share import ShareOperation
from repro.obs import NULL_OBS
from repro.sim.core import Simulator

_interest_ids = itertools.count(1)


class _Interest:
    __slots__ = ("handle", "nf_name", "filter", "callback")

    def __init__(self, nf_name: Optional[str], flt: Optional[Filter], callback):
        self.handle = next(_interest_ids)
        self.nf_name = nf_name
        self.filter = flt
        self.callback = callback

    def matches_event(self, event: PacketEvent) -> bool:
        if self.nf_name is not None and self.nf_name != event.nf_name:
            return False
        return self.filter is None or self.filter.matches_packet(event.packet)

    def matches_packet(self, packet: Packet) -> bool:
        return self.filter is None or self.filter.matches_packet(packet)


class Shard:
    """What one shard of the controller owns: inbox, admission, labels.

    Operations run on a shard: their streamed chunks pass through its
    inbox, and their filters sit in its admission table until they
    finish.
    """

    def __init__(self, controller: "OpenNFController", shard_id: int,
                 labels: Dict[str, str]) -> None:
        self.controller = controller
        self.sim = controller.sim
        self.shard_id = shard_id
        #: ``{"shard": "<id>"}`` when there are several shards, else
        #: empty; added to this shard's operation traces and metrics.
        self.labels = labels
        #: Serialized inbound-message handling loop (events, packet-ins,
        #: streamed chunks), msg_proc_ms per message.
        self.inbox = ChunkPump(controller.sim, controller.msg_proc_ms,
                               controller._handle_inbox_item)
        #: Admission table of in-flight operation filters (moves, copies,
        #: AND shares): two simultaneous operations over overlapping flow
        #: space would race on rules and state; the later one is deferred
        #: until the earlier finishes. (handle -> (filter, done event))
        self.admission: Dict[int, Tuple[Filter, Any]] = {}
        self._operation_handle_counter = 0
        self.events_received = 0
        self.packet_ins_received = 0
        # Pre-bound inbound-path telemetry (lazily rebuilt: bundles can
        # be swapped). kind -> bound ctrl.inbox counter handle.
        self._obs_cache_for = None
        self._m_inbox: Dict[str, Any] = {}
        self._ts_events = None
        self._ts_ops = None

    def inbox_metric(self, kind: str):
        """Bound ``ctrl.inbox`` counter handle for one message kind.

        First use per bundle also wires the shard-labelled time-series:
        the inbox-depth gauge onto the pump's depth probe, the events/s
        rate series, and the ops-in-flight gauge series.
        """
        obs = self.controller.obs
        if self._obs_cache_for is not obs:
            self._m_inbox = {}
            self._obs_cache_for = obs
            hub = getattr(obs, "timeseries", None)
            self._ts_events = None
            self._ts_ops = None
            self.inbox.on_depth = None
            if hub is not None:
                labels = self.labels
                self._ts_events = hub.series("ctrl.events", **labels)
                self._ts_ops = hub.series(
                    "ctrl.ops_in_flight", kind="gauge", **labels
                )
                depth_series = hub.series(
                    "ctrl.inbox.depth", kind="gauge", **labels
                )
                sim = self.sim

                def probe(depth, _series=depth_series, _sim=sim):
                    _series.record(_sim.now, float(depth))

                self.inbox.on_depth = probe
        handle = self._m_inbox.get(kind)
        if handle is None:
            handle = self._m_inbox[kind] = obs.metrics.counter(
                "ctrl.inbox"
            ).bind(kind=kind, **self.labels)
        return handle

    def _record_ops_in_flight(self) -> None:
        """Fold the admission-table size into the ops-in-flight gauge."""
        if self.controller.obs.enabled:
            self.inbox_metric("event")  # ensure series are wired
            ts = self._ts_ops
            if ts is not None:
                ts.record(self.sim.now, float(len(self.admission)))

    def conflicting(self, flt: Filter, before: Optional[int] = None
                    ) -> List[Any]:
        """Done-events of in-flight operations overlapping ``flt``.

        ``before`` bounds the scan to handles admitted earlier than the
        given one — a deferred operation re-checking conflicts at launch
        must only wait on *older* entries (its own reservation, and
        reservations of operations queued behind it, would otherwise
        deadlock the FIFO chain).
        """
        return [
            done for handle, (active_filter, done)
            in self.admission.items()
            if (before is None or handle < before)
            and active_filter.intersects(flt)
        ]

    def reserve(self, flt: Filter, done) -> int:
        """Hold ``flt`` in the admission table until ``done`` triggers.

        Used both for live operations and for deferred ones: reserving
        the deferred filter at submission time is what makes deferral
        FIFO — a later overlapping operation defers behind the
        reservation instead of leapfrogging it.
        """
        self._operation_handle_counter += 1
        handle = self._operation_handle_counter
        self.admission[handle] = (flt, done)
        self._record_ops_in_flight()

        def _release(_evt, _handle=handle):
            self.admission.pop(_handle, None)
            self._record_ops_in_flight()

        done.add_callback(_release)
        return handle

    def enqueue_chunks(
        self, handler: Callable[[List[Any]], None], chunks: List[Any]
    ) -> None:
        """Route one streamed chunk frame through the inbox as ONE item.

        A frame of N chunks (N > 1 only under §8.3 batching) costs one
        ``msg_proc_ms`` handling slot instead of N, and ``handler``
        receives the whole list at once.
        """
        chunks = list(chunks)
        if not chunks:
            return
        if self.controller.obs.enabled:
            self.inbox_metric("chunk-frame").inc(1)
        self.inbox.push(("chunk", chunks, handler), weight=len(chunks))


class OpenNFController:
    """Northbound API provider and event/packet-in dispatcher.

    ``shards`` sets how many :class:`Shard` objects split the inbound
    message handling and admission; ``handoff_latency_ms`` is the
    inter-shard round trip of a cross-shard ownership handoff.
    """

    def __init__(
        self,
        sim: Simulator,
        switch: Optional[Switch] = None,
        msg_proc_ms: float = 0.15,
        nf_channel_latency_ms: float = 1.0,
        sw_channel_latency_ms: float = 0.6,
        nf_channel_bandwidth_bytes_per_ms: float = 125_000.0,
        obs=None,
        faults=None,
        retry=None,
        batching: Optional[BatchConfig] = None,
        offload: bool = False,
        shards: int = 1,
        handoff_latency_ms: float = 5.0,
    ) -> None:
        # Imported here: repro.controller.sharding imports this module.
        from repro.controller.sharding import ShardMap

        self.sim = sim
        self.obs = obs or NULL_OBS
        #: Data-plane offload (switch-local XFSM buffering): when True,
        #: loss-free and order-preserving moves install a
        #: buffer-until-release machine at the switch instead of
        #: buffering per-packet events at the controller. ``False``
        #: keeps the classic event path byte-identical.
        self.offload = bool(offload)
        #: Optional :class:`repro.net.channel.BatchConfig`. Installing
        #: one turns on the §8.3 fast path everywhere: queued sends
        #: coalesce into frames, chunk streams ship multi-chunk frames
        #: paying one inbox slot each, and move/copy bound their
        #: in-flight frame puts by its ``pipeline_window``. ``None``
        #: keeps the classic per-message path.
        self.batching = batching
        self.msg_proc_ms = msg_proc_ms
        self.nf_channel_latency_ms = nf_channel_latency_ms
        self.sw_channel_latency_ms = sw_channel_latency_ms
        self.nf_channel_bandwidth = nf_channel_bandwidth_bytes_per_ms
        #: Optional :class:`repro.faults.FaultPlan`. Installing one turns
        #: on the reliability machinery end to end: southbound retries
        #: with request ids, sequenced/acked NF events, and channel-level
        #: fault injection. ``None`` (default) is the classic fast path —
        #: no request ids, no acks, byte-identical message timeline.
        self.faults = faults
        self.retry = retry
        self.reliable = faults is not None
        #: Per-NF in-order reassembly for sequenced events:
        #: nf_name -> {"next": seq, "pending": {seq: event}}.
        self._event_reorder: Dict[str, Dict[str, Any]] = {}
        #: How long a sequence gap may stall delivery before the missing
        #: event is presumed abandoned by the NF and skipped (keeps one
        #: permanently lost event from wedging the inbox forever).
        self.event_gap_timeout_ms = 200.0
        self.events_duplicate_dropped = 0
        self.events_gap_skipped = 0
        #: NF events that reached dispatch with no interest to claim
        #: them and no default handler (each one is a dropped packet
        #: for a DROP event).
        self.events_unclaimed = 0
        self.clients: Dict[str, NFClient] = {}
        self.nf_ports: Dict[str, str] = {}
        #: Incrementally maintained inverse of :attr:`nf_ports`, so
        #: per-packet port resolution is O(1) instead of a linear scan.
        self._port_to_nf: Dict[str, str] = {}
        self.switch: Optional[Switch] = None
        self.switch_client: Optional[SwitchClient] = None
        if switch is not None:
            self.attach_switch(switch)
        self._event_interests: List[_Interest] = []
        self._packet_interests: List[_Interest] = []
        #: Fallback handler for events no operation claimed (used by apps).
        self.default_event_handler: Optional[Callable[[PacketEvent], None]] = None
        #: Total operations (any kind) deferred by admission control.
        self.operations_queued_for_conflict = 0
        #: Moves specifically (kept for the pre-unification callers).
        self.moves_queued_for_conflict = 0
        self.shard_map = ShardMap(shards)
        self.n_shards = shards
        #: One control-channel round trip between shards: the cost of
        #: the ownership-transfer message exchange in a cross-shard
        #: handshake (the drain barrier is extra, and workload-driven).
        self.handoff_latency_ms = handoff_latency_ms
        self.replicas: List[Shard] = [
            Shard(self, index, {"shard": str(index)} if shards > 1 else {})
            for index in range(shards)
        ]
        #: Operation-lifetime routing claims: (filter, shard) in
        #: submission order; oldest matching claim routes a message.
        self._claims: List[Tuple[Filter, int]] = []
        #: Persistent ownership overrides left by completed handoffs;
        #: newest wins.
        self._ownership: List[Tuple[Filter, int]] = []
        self.cross_shard_operations = 0
        self.handoffs_completed = 0

    # -------------------------------------------------------------------- wiring

    @property
    def events_received(self) -> int:
        """NF events accepted into any shard's inbox."""
        return sum(shard.events_received for shard in self.replicas)

    @property
    def packet_ins_received(self) -> int:
        """Switch packet-ins accepted into any shard's inbox."""
        return sum(shard.packet_ins_received for shard in self.replicas)

    def _attach_faults(self, channel: ControlChannel) -> None:
        """Install the fault plan's injector for this channel, if any."""
        if self.faults is not None and channel.faults is None:
            channel.faults = self.faults.injector_for(channel.name)

    def _attach_batching(self, channel: ControlChannel) -> None:
        """Install the batching config on this channel, if any."""
        if self.batching is not None and channel.batching is None:
            channel.batching = self.batching

    def attach_switch(self, switch: Switch) -> None:
        """Connect the controller to its SDN switch."""
        self.switch = switch
        self.switch_client = SwitchClient(
            self.sim,
            switch,
            to_switch=ControlChannel(
                self.sim, name="ctrl->sw",
                latency_ms=self.sw_channel_latency_ms, obs=self.obs,
            ),
            from_switch=ControlChannel(
                self.sim, name="sw->ctrl",
                latency_ms=self.sw_channel_latency_ms, obs=self.obs,
            ),
            obs=self.obs,
            reliable=self.reliable,
            retry=self.retry,
        )
        self._attach_faults(self.switch_client.to_switch)
        self._attach_faults(self.switch_client.from_switch)
        self._attach_batching(self.switch_client.to_switch)
        self._attach_batching(self.switch_client.from_switch)
        switch.set_packet_in_handler(self.handle_packet_in)

    def register_nf(self, nf: NetworkFunction, port: Optional[str] = None) -> NFClient:
        """Create the southbound client for ``nf`` and wire its event path.

        ``port`` names the switch port that reaches this instance (needed
        for rule installs and packet-outs targeting it). Two live NFs
        cannot claim the same port: the second registration raises
        instead of silently shadowing the first in packet-in resolution.
        Re-registering the *same* name (a restarted instance) is allowed
        and resets its event-sequencing state, so the replacement's
        events (seq restarting at 1) are not dropped as duplicates.
        """
        nf_port = port if port is not None else nf.name
        holder = self._port_to_nf.get(nf_port)
        if holder is not None and holder != nf.name:
            raise ValueError(
                "port %r already claimed by NF %r (registering %r)"
                % (nf_port, holder, nf.name)
            )
        if nf.name in self.clients:
            # A replacement instance under the same name: drop the old
            # port binding and start its event stream from a clean slate.
            self._port_to_nf.pop(self.nf_ports.get(nf.name), None)
            self._reset_event_reorder(nf.name)
        client = NFClient(
            self.sim,
            nf,
            to_nf=ControlChannel(
                self.sim,
                name="ctrl->%s" % nf.name,
                latency_ms=self.nf_channel_latency_ms,
                bandwidth_bytes_per_ms=self.nf_channel_bandwidth,
                obs=self.obs,
            ),
            from_nf=ControlChannel(
                self.sim,
                name="%s->ctrl" % nf.name,
                latency_ms=self.nf_channel_latency_ms,
                bandwidth_bytes_per_ms=self.nf_channel_bandwidth,
                obs=self.obs,
            ),
            obs=self.obs,
            reliable=self.reliable,
            retry=self.retry,
            batch=self.batching,
        )
        self._attach_faults(client.to_nf)
        self._attach_faults(client.from_nf)
        self._attach_batching(client.to_nf)
        self._attach_batching(client.from_nf)
        nf.connect_controller(client.from_nf, self.handle_nf_event)
        if self.reliable:
            # Events get sequence numbers, controller acks, and NF-side
            # retransmission; this controller reassembles them in order.
            nf.reliable_events = True
        if self.faults is not None:
            for spec in self.faults.crashes_for(nf.name):
                if spec.at_ms is not None:
                    self.sim.schedule(
                        max(0.0, spec.at_ms - self.sim.now),
                        self._crash_nf, nf, spec.reason,
                    )
                else:
                    nf.crash_on_nth_rpc(spec.on_nth_rpc, spec.reason)
        # A fail-stopped instance is gone for good: retire its event
        # reorder buffer so a replacement registered under the same name
        # starts sequencing from scratch (see the restart bug above).
        nf.add_failure_listener(self._on_nf_failed)
        self.clients[nf.name] = client
        self.nf_ports[nf.name] = nf_port
        self._port_to_nf[nf_port] = nf.name
        return client

    def deregister_nf(self, name: str) -> None:
        """Forget a retired instance: client, port binding, event state."""
        self.clients.pop(name, None)
        port = self.nf_ports.pop(name, None)
        if port is not None and self._port_to_nf.get(port) == name:
            del self._port_to_nf[port]
        self._reset_event_reorder(name)

    def _on_nf_failed(self, nf: NetworkFunction) -> None:
        self._reset_event_reorder(nf.name)

    def _reset_event_reorder(self, name: str) -> None:
        """Drop per-NF sequencing state; release any buffered stragglers.

        Events already buffered out of order were genuinely raised by the
        (now dead or replaced) instance — deliver them in sequence order
        rather than losing them with the buffer.
        """
        state = self._event_reorder.pop(name, None)
        if state is None:
            return
        for seq in sorted(state["pending"]):
            self._deliver_event(state["pending"][seq])

    @staticmethod
    def _crash_nf(nf: NetworkFunction, reason: str) -> None:
        if not nf.failed:
            nf.fail(reason)

    def client(self, nf: Any) -> NFClient:
        """Resolve an NF instance, client, or name to its client."""
        if isinstance(nf, NFClient):
            return nf
        name = nf.name if isinstance(nf, NetworkFunction) else nf
        return self.clients[name]

    def port_of(self, nf: Any) -> str:
        """Switch port that reaches the given NF."""
        name = nf if isinstance(nf, str) else nf.name
        return self.nf_ports[name]

    def instance_at_port(self, port: str) -> Optional[str]:
        """Inverse of :meth:`port_of`: which NF sits behind ``port``."""
        return self._port_to_nf.get(port)

    # ------------------------------------------------------------------ dispatch

    def add_event_interest(
        self, nf_name: Optional[str], flt: Optional[Filter], callback
    ) -> int:
        """Route matching NF events to ``callback``; newest interest wins."""
        interest = _Interest(nf_name, flt, callback)
        self._event_interests.append(interest)
        return interest.handle

    def add_packet_interest(self, flt: Optional[Filter], callback) -> int:
        """Route matching switch packet-ins to ``callback``."""
        interest = _Interest(None, flt, callback)
        self._packet_interests.append(interest)
        return interest.handle

    def remove_interest(self, handle: int) -> None:
        self._event_interests = [
            i for i in self._event_interests if i.handle != handle
        ]
        self._packet_interests = [
            i for i in self._packet_interests if i.handle != handle
        ]

    def handle_nf_event(self, event: PacketEvent) -> None:
        """Entry point for events arriving from NFs (already past the channel)."""
        if event.seq is not None:
            self._handle_sequenced_event(event)
            return
        self._deliver_event(event)

    def _deliver_event(self, event: PacketEvent) -> None:
        # The shard *owning the flow* dispatches the event: its
        # operations are the ones waiting for it.
        shard = self._shard_for(event.packet)
        shard.events_received += 1
        if self.obs.enabled:
            shard.inbox_metric("event").inc(1)
            ts = shard._ts_events
            if ts is not None:
                ts.record(self.sim.now, 1.0)
        shard.inbox.push(("event", event, None))

    def _handle_sequenced_event(self, event: PacketEvent) -> None:
        """Reliable event channel: ack, dedupe, and release in seq order.

        Retransmitted events may arrive duplicated or out of order;
        releasing strictly by sequence number means a retransmission
        cannot overtake its successors, so order preservation holds even
        on a lossy control channel.
        """
        client = self.clients.get(event.nf_name)
        if client is not None:
            # Ack every arrival (a duplicate means our previous ack was
            # lost); the NF stops retransmitting once one lands. Acks
            # coalesce into batch frames when the fast path is on.
            client.to_nf.queue_send(
                EVENT_ACK_BYTES, client.nf.event_ack, event.seq
            )
        state = self._event_reorder.setdefault(
            event.nf_name, {"next": 1, "pending": {}}
        )
        if event.seq < state["next"] or event.seq in state["pending"]:
            self.events_duplicate_dropped += 1
            if self.obs.enabled:
                self.obs.metrics.counter("ctrl.events.duplicates").inc(
                    1, nf=event.nf_name, **self._home_labels(event.nf_name)
                )
            return
        state["pending"][event.seq] = event
        self._release_in_order(state)
        if state["pending"]:
            # A predecessor is missing; if the NF abandoned it the gap
            # would stall delivery forever, so arm a skip timer.
            self.sim.schedule(
                self.event_gap_timeout_ms,
                self._check_event_gap, event.nf_name, state["next"],
            )

    def _release_in_order(self, state: Dict[str, Any]) -> None:
        while state["next"] in state["pending"]:
            self._deliver_event(state["pending"].pop(state["next"]))
            state["next"] += 1

    def _check_event_gap(self, nf_name: str, expected_next: int) -> None:
        state = self._event_reorder.get(nf_name)
        if (state is None or state["next"] != expected_next
                or not state["pending"]):
            return  # the gap filled (or emptied) while we waited
        # The missing event outlived the NF's retransmit budget: skip to
        # the oldest buffered successor rather than wedging the inbox.
        self.events_gap_skipped += 1
        if self.obs.enabled:
            self.obs.metrics.counter("ctrl.events.gap_skipped").inc(
                1, nf=nf_name, **self._home_labels(nf_name)
            )
        state["next"] = min(state["pending"])
        self._release_in_order(state)
        if state["pending"]:
            self.sim.schedule(
                self.event_gap_timeout_ms,
                self._check_event_gap, nf_name, state["next"],
            )

    def _dispatch_event(self, event: PacketEvent) -> None:
        for interest in reversed(self._event_interests):
            if interest.matches_event(event):
                interest.callback(event)
                return
        if self.default_event_handler is not None:
            self.default_event_handler(event)
        else:
            self.events_unclaimed += 1

    def handle_packet_in(self, packet: Packet) -> None:
        """Entry point for packet-ins from the switch."""
        shard = self._shard_for(packet)
        shard.packet_ins_received += 1
        if self.obs.enabled:
            shard.inbox_metric("packet-in").inc(1)
        shard.inbox.push(("packet-in", packet, None))

    def inbox_drained(self):
        """Fires once every shard has handled what it had queued so far."""
        combined = self.sim.event("inbox-drained")
        remaining = [len(self.replicas)]

        def one_drained(_evt) -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                combined.trigger()

        for shard in self.replicas:
            shard.inbox.drained().add_callback(one_drained)
        return combined

    def _handle_inbox_item(self, item) -> None:
        kind, payload, handler = item
        if kind == "event":
            self._dispatch_event(payload)
        elif kind == "packet-in":
            self._dispatch_packet_in(payload)
        else:
            handler(payload)

    def _dispatch_packet_in(self, packet: Packet) -> None:
        for interest in reversed(self._packet_interests):
            if interest.matches_packet(packet):
                interest.callback(packet)
                return

    # ------------------------------------------------------------------- routing

    def _shard_for(self, packet: Packet) -> Shard:
        """The shard whose inbox serializes a message about ``packet``."""
        if self.n_shards == 1:
            return self.replicas[0]
        return self.replicas[self._route(packet)]

    def _route(self, packet: Packet) -> int:
        for flt, shard in self._claims:  # oldest claim wins
            if flt.matches_packet(packet):
                return shard
        for flt, shard in reversed(self._ownership):  # newest handoff wins
            if flt.matches_packet(packet):
                return shard
        return self.shard_map.shard_for_key(packet.key)

    def _owner_shard(self, flt: Filter) -> int:
        """Which shard owns (most of) ``flt``'s flow space right now."""
        for owned, shard in reversed(self._ownership):
            if owned.intersects(flt):
                return shard
        return self.shard_map.shard_for_filter(flt)

    def _home_labels(self, nf_name: str) -> Dict[str, str]:
        """Labels of the shard an NF's southbound connection homes on."""
        return self.replicas[self.shard_map.shard_for_name(nf_name)].labels

    # ----------------------------------------------------------------- admission

    def _submit(self, kind: str, flt: Filter,
                start: Callable[[Shard], Operation], guarantee: Any = None):
        """Start ``start(home)`` now, or defer it behind conflicting flow space.

        The operation runs on ``home``, the shard owning ``flt``. One
        admission step covers move, copy, share, AND chain operations:
        an in-flight operation on ``home`` whose filter intersects
        ``flt`` defers the newcomer behind it (FIFO); one on another
        shard makes it a
        :class:`~repro.controller.sharding.CrossShardOperation`, which
        also hands ownership of the flow space to ``home`` before it
        starts. Callers always receive the same
        :class:`~repro.controller.operation.Operation` handle surface.
        """
        if self.n_shards == 1:
            home = self.replicas[0]
        else:
            home = self.replicas[self._owner_shard(flt)]
        prior_owners = []
        conflicts: List[Any] = []
        for shard in self.replicas:
            if shard is not home:
                foreign = shard.conflicting(flt)
                if foreign:
                    prior_owners.append(shard)
                    conflicts.extend(foreign)
        conflicts.extend(home.conflicting(flt))
        if not conflicts:
            operation = start(home)
            home.reserve(flt, operation.done)
        else:
            self.operations_queued_for_conflict += 1
            if kind == "move":
                self.moves_queued_for_conflict += 1
            cross = {"cross_shard": "true"} if prior_owners else {}
            if self.obs.enabled:
                self.obs.metrics.counter("ctrl.admission.deferred").inc(
                    1, kind=kind, **cross, **home.labels
                )
            if prior_owners:
                from repro.controller.sharding import CrossShardOperation

                self.cross_shard_operations += 1
                operation = CrossShardOperation(
                    home, kind, flt, conflicts, start,
                    guarantee=guarantee, prior_owners=prior_owners,
                )
            else:
                operation = DeferredOperation(home, kind, flt, conflicts,
                                              start, guarantee=guarantee)
        if self.n_shards > 1:
            self._claim(flt, home.shard_id, operation.done)
        return operation

    def _claim(self, flt: Filter, shard: int, done) -> None:
        """Route ``flt``'s messages to ``shard`` until ``done`` triggers."""
        entry = (flt, shard)
        self._claims.append(entry)
        done.add_callback(lambda _evt: self._claims.remove(entry))

    # ---------------------------------------------------------------- northbound

    def move(
        self,
        src: Any,
        dst: Any,
        flt: Filter,
        scope: Any = "per",
        guarantee: Any = "loss-free",
        parallel: bool = True,
        early_release: bool = False,
        compress: bool = False,
        peer_to_peer: bool = False,
        drain_grace_ms: float = 30.0,
    ) -> Operation:
        """``move(srcInst, dstInst, filter, scope, properties)`` (§5.1).

        ``guarantee`` accepts a :class:`~repro.controller.move.Guarantee`
        member or any of its string spellings. Returns an
        :class:`~repro.controller.operation.Operation` handle (a live
        :class:`~repro.controller.move.MoveOperation`, or a
        :class:`~repro.controller.operation.DeferredOperation` when the
        flow space conflicts with an in-flight operation); its ``done``
        event triggers with the operation report.
        """
        parsed = Guarantee.parse(guarantee)

        def start(shard: Shard) -> MoveOperation:
            return MoveOperation(
                shard,
                src=self.client(src),
                dst=self.client(dst),
                flt=flt,
                scopes=normalize_scope(scope),
                guarantee=parsed,
                parallel=parallel,
                early_release=early_release,
                compress=compress,
                peer_to_peer=peer_to_peer,
                drain_grace_ms=drain_grace_ms,
            )

        return self._submit("move", flt, start, guarantee=parsed)

    def copy(self, src: Any, dst: Any, flt: Filter, scope: Any = "multi",
             parallel: bool = True, compress: bool = False) -> Operation:
        """``copy(srcInst, dstInst, filter, scope)`` (§5.2.1)."""

        def start(shard: Shard) -> CopyOperation:
            return CopyOperation(
                shard,
                src=self.client(src),
                dst=self.client(dst),
                flt=flt,
                scopes=normalize_scope(scope),
                parallel=parallel,
                compress=compress,
            )

        return self._submit("copy", flt, start)

    def share(
        self,
        instances: List[Any],
        flt: Filter,
        scope: Any = "multi",
        consistency: str = "strong",
        group_by: str = "host",
    ) -> Operation:
        """``share(list<inst>, filter, scope, consistency)`` (§5.2.2)."""

        def start(shard: Shard) -> ShareOperation:
            return ShareOperation(
                shard,
                instances=[self.client(i) for i in instances],
                flt=flt,
                scopes=normalize_scope(scope),
                consistency=consistency,
                group_by=group_by,
            )

        return self._submit("share", flt, start, guarantee=consistency)

    def move_chain(
        self,
        chain: Any,
        flt: Optional[Filter] = None,
        dst_map: Optional[Dict[str, str]] = None,
        guarantee: Any = "loss-free",
        scope: Any = "per",
        parallel: bool = True,
        drain_grace_ms: float = 30.0,
        hop_guarantees: Optional[Dict[str, Any]] = None,
    ) -> Operation:
        """``move_chain(chain, filter, dst_map, guarantee)``: chain-wide move.

        Migrates every hop named in ``dst_map`` (hop name → destination
        instance) tail-to-head under one composite
        :class:`~repro.controller.chain.ChainOperation` handle, so no
        packet ever crosses a half-migrated chain. ``hop_guarantees``
        optionally overrides the guarantee per hop (by hop name). The
        composite and every hop move inside it run on the shard owning
        the chain filter.
        """
        return self._submit_chain(
            chain, flt, dst_map or {}, guarantee, scope=scope,
            parallel=parallel, drain_grace_ms=drain_grace_ms,
            hop_guarantees=hop_guarantees,
        )

    def scale_chain(
        self,
        chain: Any,
        hop: str,
        new_instance: str,
        flt: Optional[Filter] = None,
        guarantee: Any = "loss-free",
        scope: Any = "per",
        parallel: bool = True,
        drain_grace_ms: float = 30.0,
    ) -> Operation:
        """Split ``flt`` of one hop's flow space onto ``new_instance``.

        A single-hop chain operation in scale mode: state matching
        ``flt`` (a sub-space of the chain filter) moves from the hop's
        active instance to ``new_instance``, which joins the hop's
        instance set; the sub-filter keeps routing to the new instance
        afterwards (recorded as a chain override).
        """
        return self._submit_chain(
            chain, flt, {hop: new_instance}, guarantee, scope=scope,
            parallel=parallel, drain_grace_ms=drain_grace_ms, mode="scale",
        )

    def _submit_chain(self, chain, flt, dst_map, guarantee, **options):
        """Admit a :class:`~repro.controller.chain.ChainOperation`.

        The per-hop moves inside the chain bypass admission — the
        chain's own reservation already covers the filter.
        """
        parsed = Guarantee.parse(guarantee)
        use_flt = flt if flt is not None else chain.flt

        def start(shard: Shard) -> ChainOperation:
            return ChainOperation(shard, chain=chain, flt=use_flt,
                                  dst_map=dict(dst_map), guarantee=parsed,
                                  **options)

        return self._submit("chain", use_flt, start, guarantee=parsed)

    def notify(
        self,
        flt: Filter,
        inst: Any,
        enable: bool,
        callback: Optional[Callable[[PacketEvent], None]] = None,
    ):
        """``notify(filter, inst, enable, callback)`` (§5.2.1).

        With ``enable=True``, asks ``inst`` to raise (and process) events
        for packets matching ``flt`` and routes them to ``callback``.
        Returns the interest handle (None when disabling).
        """
        client = self.client(inst)
        if enable:
            if callback is None:
                raise ValueError("notify(enable=True) requires a callback")
            handle = self.add_event_interest(client.name, flt, callback)
            client.enable_events(flt, EventAction.PROCESS)
            return handle
        client.disable_events(flt)
        return None
