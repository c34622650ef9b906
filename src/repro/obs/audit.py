"""Streaming guarantee auditors (online verification of §5's properties).

The paper's guarantees — loss-freedom, order preservation, state
conservation across move/copy, strong-share serialization — are only as
good as their enforcement. The offline property checks in
:mod:`repro.harness.properties` verify them post-hoc from ground-truth
logs; the auditors here verify them *while the run executes*, from the
same span/record stream the exporters see, so a live deployment (or a
replayed ``.trace.jsonl``) surfaces a violated guarantee the moment it
happens.

Design:

* Every auditor is an incremental state machine fed one span payload or
  point record at a time (plain dicts — the exact JSON the exporters
  write, so offline replay exercises the identical code path).
* Memory is O(1) per in-flight packet/flow: a packet enters an
  auditor's pending table when it is captured (dropped-with-event,
  buffered NF-side, or buffered at the controller) and leaves it on its
  exactly-once processing; per-flow order state is one uid.
* A failed check emits a :class:`Violation` naming the operation
  (trace id), the flow, and the offending span ids — enough to pull the
  exact causal slice out of a trace or flight-recorder bundle.
* Auditors never touch the simulator: no scheduling, no clocks beyond
  the timestamps already in the stream. An audited run's timeline is
  bit-identical to an observed-only run.

Operations are discovered from the stream itself: ``op.start`` records
(emitted when an :class:`~repro.obs.operation.OperationTrace` opens)
open an entry in the :class:`OpRegistry`; the operation's root span —
recognizable because its ``trace_id`` attribute equals its own
``span_id`` — closes it. Packet-level facts between those two points
are attributed to the innermost open operation involving that NF.
"""

from __future__ import annotations

import json
import warnings
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.flowspace.filter import Filter, FlowId
from repro.flowspace.fivetuple import FlowKey

#: Operation kinds whose window intercepts live packets (and must
#: therefore be loss-free, modulo the baseline's deliberate defect).
PACKET_OPS = ("move", "splitmerge-migrate", "share", "chain")
#: Operation kinds that relocate state chunks.
STATE_OPS = ("move", "copy", "splitmerge-migrate")


class Violation:
    """One failed guarantee check, with enough context to debug it."""

    __slots__ = (
        "check", "time_ms", "trace_id", "op_kind", "nf", "flow",
        "detail", "span_ids",
    )

    def __init__(
        self,
        check: str,
        time_ms: float,
        trace_id: Optional[int],
        op_kind: Optional[str],
        nf: Optional[str] = None,
        flow: Optional[str] = None,
        detail: str = "",
        span_ids: Optional[List[int]] = None,
    ) -> None:
        self.check = check
        self.time_ms = time_ms
        self.trace_id = trace_id
        self.op_kind = op_kind
        self.nf = nf
        self.flow = flow
        self.detail = detail
        self.span_ids = span_ids or []

    def to_dict(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "time_ms": self.time_ms,
            "trace_id": self.trace_id,
            "op_kind": self.op_kind,
            "nf": self.nf,
            "flow": self.flow,
            "detail": self.detail,
            "span_ids": list(self.span_ids),
        }

    def render(self) -> str:
        where = " @%s" % self.nf if self.nf else ""
        flow = " flow=%s" % self.flow if self.flow else ""
        spans = (
            " spans=%s" % ",".join(str(s) for s in self.span_ids)
            if self.span_ids else ""
        )
        return "[%8.3f ms] %s op=%s(#%s)%s%s: %s%s" % (
            self.time_ms, self.check.upper(), self.op_kind,
            self.trace_id, where, flow, self.detail, spans,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Violation %s>" % self.render()


class _Op:
    """Registry entry for one operation seen on the stream."""

    __slots__ = (
        "trace_id", "kind", "guarantee", "nfs", "src", "dst", "filter",
        "open", "aborted", "started_ms", "closed_ms",
    )

    def __init__(self, record: Dict[str, Any]) -> None:
        self.trace_id = record.get("trace_id")
        self.kind = record.get("kind", "?")
        self.guarantee = record.get("guarantee", "") or record.get(
            "consistency", ""
        )
        self.src = record.get("src")
        self.dst = record.get("dst")
        names: Set[str] = set()
        for field in ("src", "dst"):
            value = record.get(field)
            if value:
                names.add(value)
        instances = record.get("instances")
        if instances:
            names.update(n for n in str(instances).split(",") if n)
        self.nfs = names
        flowspace = record.get("flowspace")
        #: The operation's filter (None for streams that predate it).
        self.filter: Optional[Filter] = (
            Filter.from_dict(flowspace) if flowspace else None
        )
        self.open = True
        self.aborted: Optional[str] = None
        self.started_ms = record.get("time_ms", 0.0)
        self.closed_ms: Optional[float] = None

    @property
    def order_preserving(self) -> bool:
        return "order-preserving" in (self.guarantee or "")

    def owns_flow(self, flow: str) -> bool:
        """Whether the flow named ``flow`` lies in this op's flow space
        (in either direction)."""
        if self.filter is None:
            return False
        try:
            key = FlowKey.from_name(flow)
        except (TypeError, ValueError):
            return False
        return self.filter.matches_key(key) or self.filter.matches_key(
            FlowKey(key.dst, key.dport, key.src, key.sport, key.proto))

    def owns_flowid(self, flowid: Dict[str, Any]) -> bool:
        """Whether the state chunk of ``flowid`` (as data) lies in this
        op's flow space."""
        return self.filter is not None and self.filter.matches_flowid(
            FlowId.from_dict(flowid))


def _innermost(ops: List[_Op], owns) -> Optional[_Op]:
    """The most recently started of ``ops``; when several qualify, the
    most recent one for which ``owns(op)`` holds, if any does."""
    if len(ops) > 1:
        for op in reversed(ops):
            if owns(op):
                return op
    return ops[-1] if ops else None


class OpRegistry:
    """Tracks operations discovered from the stream.

    ``op.start`` records open entries; the root span (its ``trace_id``
    attribute equals its own ``span_id``) closes them. Auditors query
    by trace id or by involved NF.
    """

    def __init__(self) -> None:
        self.ops: Dict[int, _Op] = {}
        self._close_hooks: List[Callable[[_Op], None]] = []

    def on_close(self, hook: Callable[[_Op], None]) -> None:
        self._close_hooks.append(hook)

    def observe_record(self, record: Dict[str, Any]) -> None:
        if record.get("name") == "op.start":
            op = _Op(record)
            if op.trace_id is not None:
                self.ops[op.trace_id] = op

    def observe_span(self, span: Dict[str, Any]) -> Optional[_Op]:
        """Close the matching op if ``span`` is an operation root."""
        attrs = span.get("attrs") or {}
        if attrs.get("trace_id") != span.get("span_id"):
            return None
        op = self.ops.get(span.get("span_id"))
        if op is None or not op.open:
            return None
        op.open = False
        op.aborted = attrs.get("aborted")
        op.closed_ms = span.get("end_ms")
        for hook in self._close_hooks:
            hook(op)
        return op

    def get(self, trace_id: Any) -> Optional[_Op]:
        return self.ops.get(trace_id)

    def open_op_for_nf(self, nf: Optional[str], kinds=None,
                       flow: Optional[str] = None) -> Optional[_Op]:
        """Innermost (most recently started) open op involving ``nf``.

        Several operations can involve one instance at once — two moves
        leaving it for different destinations. Given the ``flow`` a
        record is about, the innermost op whose flow space contains it
        wins, so each packet is charged to the move that owns it.
        """
        ops = [
            op for op in self.ops.values()
            if op.open
            and (kinds is None or op.kind in kinds)
            and (nf is None or not op.nfs or nf in op.nfs)
        ]
        if flow is None:
            return ops[-1] if ops else None
        return _innermost(ops, lambda op: op.owns_flow(flow))


class _Auditor:
    """Base class: every hook is optional."""

    def on_span(self, span: Dict[str, Any]) -> None:
        pass

    def on_record(self, record: Dict[str, Any]) -> None:
        pass

    def on_op_close(self, op: _Op) -> None:
        pass

    def finalize(self) -> None:
        pass


class LossFreeAuditor(_Auditor):
    """Every packet captured during an operation is processed exactly once.

    State machine per packet uid:

    * ``nf.drop`` span with ``silent=True`` → immediate violation (the
      Split/Merge defect: the packet is gone and nothing recorded it);
    * ``nf.drop`` span with ``silent=False``, ``nf.buffer`` record,
      ``ctrl.buffer`` record, or ``sw.buffer`` record (offloaded move:
      parked in a switch-local XFSM ring) → *pending* (the packet is
      parked somewhere and owed a processing);
    * ``sw.drop`` record (XFSM ring overflow) → immediate violation;
    * ``nf.process`` record for a pending uid → *done*;
    * ``nf.process`` for a done uid → duplicate violation;
    * still pending at :meth:`finalize` → loss violation.
    """

    def __init__(self, registry: OpRegistry, emit) -> None:
        self.registry = registry
        self.emit = emit
        #: uid -> (op, flow, span_ids) for packets owed a processing.
        self.pending: Dict[int, Tuple[Optional[_Op], Optional[str], List[int]]] = {}
        #: uid -> op for packets already processed once after capture.
        self.done: Dict[int, Optional[_Op]] = {}

    def _capture(self, uid, op, flow, span_id=None) -> None:
        entry = self.pending.get(uid)
        if entry is None:
            self.pending[uid] = (
                op, flow, [] if span_id is None else [span_id]
            )
        elif span_id is not None:
            entry[2].append(span_id)

    def on_span(self, span: Dict[str, Any]) -> None:
        if span.get("name") != "nf.drop":
            return
        attrs = span.get("attrs") or {}
        nf = attrs.get("nf")
        op = self.registry.open_op_for_nf(nf, PACKET_OPS, attrs.get("flow"))
        if op is None:
            return  # a drop outside any operation window is not ours
        if attrs.get("silent"):
            self.emit(Violation(
                "loss-free",
                span.get("end_ms") or span.get("start_ms") or 0.0,
                op.trace_id,
                op.kind,
                nf=nf,
                flow=attrs.get("flow"),
                detail="packet uid=%s dropped with no record"
                       % attrs.get("uid"),
                span_ids=[span.get("span_id")],
            ))
        else:
            self._capture(attrs.get("uid"), op, attrs.get("flow"),
                          span.get("span_id"))

    def on_record(self, record: Dict[str, Any]) -> None:
        name = record.get("name")
        if name == "nf.buffer":
            op = self.registry.open_op_for_nf(record.get("nf"), PACKET_OPS,
                                              record.get("flow"))
            if op is not None:
                self._capture(record.get("uid"), op, record.get("flow"))
        elif name == "ctrl.buffer":
            op = self.registry.get(record.get("trace_id"))
            self._capture(record.get("uid"), op, record.get("flow"))
        elif name == "sw.buffer":
            # Data-plane offload: the packet parked in a switch-local
            # XFSM ring instead of travelling to the controller. Same
            # obligation — it is owed exactly one processing at the
            # operation's destination.
            op = self.registry.get(record.get("trace_id"))
            self._capture(record.get("uid"), op, record.get("flow"))
        elif name == "sw.drop":
            # An XFSM ring overflowed: the packet is gone and nothing
            # will ever repay it. Immediate loss violation.
            op = self.registry.get(record.get("trace_id"))
            self.emit(Violation(
                "loss-free",
                record.get("time_ms", 0.0),
                op.trace_id if op else record.get("trace_id"),
                op.kind if op else None,
                nf=record.get("sw"),
                flow=record.get("flow"),
                detail="packet uid=%s dropped by switch state machine "
                       "(ring overflow)" % record.get("uid"),
            ))
        elif name == "nf.process":
            uid = record.get("uid")
            nf = record.get("nf")
            entry = self.pending.get(uid)
            if entry is not None:
                # Only the capturing operation's own instances can repay
                # the owed processing: on a multicast chain data path the
                # same uid is (by design) processed once per hop, and a
                # sibling hop's processing is neither the release nor a
                # duplicate.
                if not self._involves(entry[0], nf):
                    return
                self.pending.pop(uid, None)
                self.done[uid] = entry[0]
                return
            if uid in self.done:
                op = self.done.get(uid)
                if not self._involves(op, nf):
                    return
                self.emit(Violation(
                    "loss-free",
                    record.get("time_ms", 0.0),
                    op.trace_id if op else None,
                    op.kind if op else None,
                    nf=nf,
                    flow=record.get("flow"),
                    detail="packet uid=%s processed more than once" % uid,
                ))

    @staticmethod
    def _involves(op: Optional[_Op], nf: Optional[str]) -> bool:
        """Whether ``nf`` belongs to ``op`` (permissive when unknown)."""
        if op is None or not op.nfs or nf is None:
            return True
        return nf in op.nfs

    def finalize(self) -> None:
        for uid, (op, flow, span_ids) in sorted(self.pending.items()):
            self.emit(Violation(
                "loss-free",
                op.closed_ms or op.started_ms if op else 0.0,
                op.trace_id if op else None,
                op.kind if op else None,
                flow=flow,
                detail="packet uid=%s captured but never processed" % uid,
                span_ids=span_ids,
            ))
        self.pending.clear()


class OrderAuditor(_Auditor):
    """Per-flow processing order at the destination respects uid order.

    Only operations that *promise* order preservation are held to it
    (loss-free moves may legally reorder across the flush; the baseline
    never promised anything about order). While such an operation is
    open, the destination NF's ``nf.process`` stream must be
    uid-monotonic within each flow — uids are minted in injection
    order, so per-flow uid order is arrival order.
    """

    def __init__(self, registry: OpRegistry, emit) -> None:
        self.registry = registry
        self.emit = emit
        registry.on_close(self.on_op_close)
        #: (dst_nf) -> op for open order-preserving operations.
        self.watched: Dict[str, _Op] = {}
        #: (nf, flow) -> last processed uid.
        self.last_uid: Dict[Tuple[str, str], int] = {}

    def on_record(self, record: Dict[str, Any]) -> None:
        name = record.get("name")
        if name == "op.start":
            op = self.registry.get(record.get("trace_id"))
            if op is not None and op.order_preserving and op.dst:
                self.watched[op.dst] = op
            return
        if name != "nf.process":
            return
        nf = record.get("nf")
        op = self.watched.get(nf)
        if op is None:
            return
        flow = record.get("flow")
        uid = record.get("uid")
        if flow is None or uid is None:
            return
        key = (nf, flow)
        last = self.last_uid.get(key)
        if last is not None and uid < last:
            self.emit(Violation(
                "order-preserving",
                record.get("time_ms", 0.0),
                op.trace_id,
                op.kind,
                nf=nf,
                flow=flow,
                detail="uid=%s processed after uid=%s" % (uid, last),
            ))
        self.last_uid[key] = uid

    def on_op_close(self, op: _Op) -> None:
        if op.dst and self.watched.get(op.dst) is op:
            del self.watched[op.dst]
            for key in [k for k in self.last_uid if k[0] == op.dst]:
                del self.last_uid[key]


class ChainAuditor(_Auditor):
    """End-to-end guarantees for chain-wide operations.

    A chain's data path multicasts every matching packet to each hop's
    active instance, so the per-NF auditors can only vouch for one hop
    at a time. This auditor reads the ``hops`` attribute off a chain
    operation's ``op.start`` record (``hop=inst1/inst2|...`` — every
    hop with its full instance set, migration targets included) and
    checks the *chain-level* properties across the whole window:

    * **chain-loss-free** — every packet first processed during the
      window is eventually processed by exactly one instance of *every*
      hop; a missing hop is cited by name, an extra processing at a hop
      fires immediately.
    * **chain-order** — for order-preserving chains, each hop's
      processing stream stays uid-monotonic per flow (uids are minted
      in injection order).

    Packets injected before the window are excluded: uids are minted in
    injection order, so any uid not greater than the largest uid already
    processed anywhere when the operation starts predates the window —
    its sibling-hop processings may have happened before the auditor
    was watching and would read as losses. (A time-based grace window is
    not enough: a backlogged hop can first process a pre-window packet
    tens of milliseconds into the window.) Packets still in flight when
    the operation closes keep accumulating until :meth:`finalize` — run
    the simulation to quiescence first.
    """

    def __init__(self, registry: OpRegistry, emit) -> None:
        self.registry = registry
        self.emit = emit
        registry.on_close(self.on_op_close)
        #: Chain contexts, open and closed (closed ones keep counting
        #: in-flight packets until finalize).
        self.chains: List[Dict[str, Any]] = []
        #: Largest uid seen in any ``nf.process`` record so far — the
        #: pre-window/in-window dividing line at chain-op start.
        self._max_uid_processed = -1

    def on_record(self, record: Dict[str, Any]) -> None:
        name = record.get("name")
        if name == "op.start":
            self._maybe_open(record)
            return
        if name != "nf.process":
            return
        nf = record.get("nf")
        uid = record.get("uid")
        if nf is None or uid is None:
            return
        if uid > self._max_uid_processed:
            self._max_uid_processed = uid
        for ctx in self.chains:
            hop = ctx["nf_hop"].get(nf)
            if hop is None:
                continue
            self._observe_processing(ctx, record, hop, uid)

    def _maybe_open(self, record: Dict[str, Any]) -> None:
        if record.get("kind") != "chain":
            return
        hops: List[Tuple[str, Set[str]]] = []
        for part in str(record.get("hops", "")).split("|"):
            if "=" not in part:
                continue
            hop_name, instances = part.split("=", 1)
            members = {i for i in instances.split("/") if i}
            if members:
                hops.append((hop_name, members))
        if not hops:
            return
        self.chains.append({
            "trace_id": record.get("trace_id"),
            "chain": record.get("chain"),
            "uid_floor": self._max_uid_processed,
            "started_ms": record.get("time_ms", 0.0),
            "closed_ms": None,
            "open": True,
            "aborted": None,
            "order_preserving": "order-preserving"
                                in (record.get("guarantee") or ""),
            "hop_order": [hop for hop, _ in hops],
            "nf_hop": {
                inst: hop for hop, members in hops for inst in members
            },
            #: uid -> {hop: count}; None marks an excluded straddler.
            "seen": {},
            #: (hop, flow) -> last uid processed (order check).
            "last_uid": {},
        })

    def _observe_processing(
        self, ctx: Dict[str, Any], record: Dict[str, Any], hop: str, uid: int
    ) -> None:
        seen = ctx["seen"]
        time_ms = record.get("time_ms", 0.0)
        if uid not in seen:
            if not ctx["open"]:
                return  # first appeared after the window: not ours
            if uid <= ctx["uid_floor"]:
                return  # injected before the window: not ours
            seen[uid] = {}
        counts = seen[uid]
        if counts is None:
            return
        counts[hop] = counts.get(hop, 0) + 1
        if counts[hop] > 1:
            self.emit(Violation(
                "chain-loss-free",
                time_ms,
                ctx["trace_id"],
                "chain",
                nf=record.get("nf"),
                flow=record.get("flow"),
                detail="packet uid=%s processed more than once at hop %r"
                       % (uid, hop),
            ))
        if ctx["order_preserving"]:
            flow = record.get("flow")
            if flow is not None:
                key = (hop, flow)
                last = ctx["last_uid"].get(key)
                if last is not None and uid < last:
                    self.emit(Violation(
                        "chain-order",
                        time_ms,
                        ctx["trace_id"],
                        "chain",
                        nf=record.get("nf"),
                        flow=flow,
                        detail="hop %r processed uid=%s after uid=%s"
                               % (hop, uid, last),
                    ))
                ctx["last_uid"][key] = uid

    def on_op_close(self, op: _Op) -> None:
        if op.kind != "chain":
            return
        for ctx in self.chains:
            if ctx["trace_id"] == op.trace_id and ctx["open"]:
                ctx["open"] = False
                ctx["closed_ms"] = op.closed_ms
                ctx["aborted"] = op.aborted

    def finalize(self) -> None:
        for ctx in self.chains:
            if ctx["aborted"] is not None:
                # An aborted chain's contract is restoration; the
                # rollback window legitimately re-captures packets.
                continue
            for uid, counts in sorted(ctx["seen"].items()):
                if counts is None:
                    continue
                missing = [
                    hop for hop in ctx["hop_order"]
                    if counts.get(hop, 0) == 0
                ]
                for hop in missing:
                    self.emit(Violation(
                        "chain-loss-free",
                        ctx["closed_ms"] or ctx["started_ms"],
                        ctx["trace_id"],
                        "chain",
                        nf=hop,
                        detail="packet uid=%s never crossed hop %r of "
                               "chain %r" % (uid, hop, ctx["chain"]),
                    ))
        self.chains = []


class StateConservationAuditor(_Auditor):
    """Chunks exported from the source all land at the destination.

    For each open move/copy-style operation, ``nf.chunk.export``
    records at its source and ``nf.chunk.import`` records at its
    destination accumulate as (scope, key) multisets; at the
    operation's root-span close the two must balance. Aborted
    operations are exempt — their contract is restoration, not
    delivery, and the restore puts re-import at the *source*.
    """

    def __init__(self, registry: OpRegistry, emit) -> None:
        self.registry = registry
        self.emit = emit
        registry.on_close(self.on_op_close)
        #: trace_id -> {(scope, key): export_count - import_count}
        self.balance: Dict[int, Dict[Tuple[str, str], int]] = {}

    def on_record(self, record: Dict[str, Any]) -> None:
        name = record.get("name")
        if name not in ("nf.chunk.export", "nf.chunk.import"):
            return
        nf = record.get("nf")
        exporting = name == "nf.chunk.export"
        candidates = [
            op for op in self.registry.ops.values()
            if op.open and op.kind in STATE_OPS
            and (op.src if exporting else op.dst) == nf
        ]
        flowid = record.get("flowid")
        op = _innermost(candidates, lambda op: flowid is not None
                        and op.owns_flowid(flowid))
        if op is None or op.trace_id is None:
            return
        chunk_key = (record.get("scope"), record.get("key"))
        table = self.balance.setdefault(op.trace_id, {})
        table[chunk_key] = table.get(chunk_key, 0) + (1 if exporting else -1)
        if table[chunk_key] == 0:
            del table[chunk_key]

    def on_op_close(self, op: _Op) -> None:
        if op.trace_id is None or op.kind not in STATE_OPS:
            return
        table = self.balance.pop(op.trace_id, None)
        if not table or op.aborted is not None:
            return
        for (scope, key), delta in sorted(table.items()):
            side = "exported but never imported" if delta > 0 else \
                   "imported %d extra time(s)" % (-delta)
            self.emit(Violation(
                "state-conservation",
                op.closed_ms or 0.0,
                op.trace_id,
                op.kind,
                detail="chunk %s/%s %s" % (scope, key, side),
            ))


class ShareSerializationAuditor(_Auditor):
    """Strong-share updates within a group never overlap in time.

    ``share.update`` phase spans carry the group key; spans reach the
    exporter in finish order, so per group it suffices to check that
    each new span's start is not earlier than the previous span's end.
    """

    def __init__(self, registry: OpRegistry, emit) -> None:
        self.registry = registry
        self.emit = emit
        #: (trace_id, group) -> (last_end_ms, last_span_id)
        self.last: Dict[Tuple[Any, str], Tuple[float, Any]] = {}

    def on_span(self, span: Dict[str, Any]) -> None:
        if span.get("name") != "share.update":
            return
        attrs = span.get("attrs") or {}
        group = attrs.get("group")
        if group is None:
            return
        key = (attrs.get("trace_id"), group)
        start = span.get("start_ms", 0.0)
        end = span.get("end_ms", start)
        prev = self.last.get(key)
        if prev is not None and start < prev[0]:
            op = self.registry.get(attrs.get("trace_id"))
            self.emit(Violation(
                "share-serialization",
                end,
                attrs.get("trace_id"),
                op.kind if op else "share",
                nf=attrs.get("nf"),
                flow=group,
                detail="update span overlaps the previous update "
                       "(start %.3f < previous end %.3f)" % (start, prev[0]),
                span_ids=[span.get("span_id"), prev[1]],
            ))
        if prev is None or end > prev[0]:
            self.last[key] = (end, span.get("span_id"))


class AuditPipeline:
    """Fans the span/record stream out to every auditor.

    Fed by the exporter tee (live runs) or by :func:`replay_trace`
    (offline). Violations accumulate in :attr:`violations`; an optional
    ``on_violation`` hook fires per violation (the flight recorder uses
    it to capture a post-mortem bundle).
    """

    def __init__(self) -> None:
        self.registry = OpRegistry()
        self.violations: List[Violation] = []
        self.on_violation: Optional[Callable[[Violation], None]] = None
        #: Filled by :func:`replay_trace`: one message per trace entry
        #: that could not be fed to the auditors (malformed JSON line,
        #: unknown entry type). Live runs never populate it.
        self.skipped_entries: List[str] = []
        self._finalized = False
        emit = self._emit
        self.auditors: List[_Auditor] = [
            LossFreeAuditor(self.registry, emit),
            OrderAuditor(self.registry, emit),
            ChainAuditor(self.registry, emit),
            StateConservationAuditor(self.registry, emit),
            ShareSerializationAuditor(self.registry, emit),
        ]

    def _emit(self, violation: Violation) -> None:
        self.violations.append(violation)
        if self.on_violation is not None:
            self.on_violation(violation)

    # ------------------------------------------------------------- stream taps

    def on_span(self, span: Dict[str, Any]) -> None:
        for auditor in self.auditors:
            auditor.on_span(span)
        # Root-close detection runs *after* the auditors have seen the
        # span, so close hooks observe a fully-updated state.
        self.registry.observe_span(span)

    def on_record(self, record: Dict[str, Any]) -> None:
        self.registry.observe_record(record)
        for auditor in self.auditors:
            auditor.on_record(record)

    def finalize(self) -> List[Violation]:
        """Flag packets still owed a processing; idempotent."""
        if not self._finalized:
            self._finalized = True
            for auditor in self.auditors:
                auditor.finalize()
        return self.violations

    def violations_for(self, trace_id) -> List[Violation]:
        return [v for v in self.violations if v.trace_id == trace_id]


def load_trace_entries(path: str) -> Tuple[List[Tuple[float, str, dict]], List[str]]:
    """Parse a ``.trace.jsonl`` into time-sorted (time, kind, payload) entries.

    Robust against real-world trace files: a truncated/partial JSONL
    line (a run killed mid-write) or an entry of an unknown kind is
    *skipped with a warning*, never a crash — the remaining entries are
    still auditable. Returns ``(entries, skipped)`` where ``skipped``
    holds one human-readable message per unusable line. An empty file
    yields ``([], [])``.
    """
    entries: List[Tuple[float, str, dict]] = []
    skipped: List[str] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                skipped.append(
                    "%s:%d: malformed JSONL line (truncated write?)"
                    % (path, lineno)
                )
                continue
            if not isinstance(entry, dict):
                skipped.append(
                    "%s:%d: entry is not an object" % (path, lineno)
                )
                continue
            kind = entry.pop("type", None)
            if kind == "span":
                entries.append((entry.get("end_ms") or 0.0, "span", entry))
            elif kind == "record":
                entries.append((entry.get("time_ms") or 0.0, "record", entry))
            else:
                skipped.append(
                    "%s:%d: unknown entry kind %r (expected span/record)"
                    % (path, lineno, kind)
                )
    if skipped:
        warnings.warn(
            "trace %s: skipped %d unusable entr%s (first: %s)"
            % (path, len(skipped), "y" if len(skipped) == 1 else "ies",
               skipped[0]),
            stacklevel=2,
        )
    entries.sort(key=lambda item: item[0])
    return entries, skipped


def replay_trace(path: str) -> AuditPipeline:
    """Run the auditors over a ``.trace.jsonl`` file post-hoc.

    The live tee delivers spans at finish time and records at emission
    time, so the merged stream is monotone in that timestamp. Dumps are
    not always interleaved that way (``repro trace --json`` writes all
    spans, then all records), so replay stable-sorts entries by their
    delivery time first — a no-op for an already-interleaved stream —
    and then reuses the streaming code path unchanged. Unusable lines
    (truncated JSONL, unknown entry kinds) are skipped with a warning
    and listed on the returned pipeline's ``skipped_entries``.
    """
    entries, skipped = load_trace_entries(path)
    pipeline = AuditPipeline()
    pipeline.skipped_entries = skipped
    for _time, kind, entry in entries:
        if kind == "span":
            pipeline.on_span(entry)
        else:
            pipeline.on_record(entry)
    pipeline.finalize()
    return pipeline
