"""Sharding the controller: flow-space ownership across shards.

Every message the controller handles — NF events, switch packet-ins,
streamed state chunks — funnels through a serialized inbox costing
``msg_proc_ms`` each, which is exactly the wall §8.3's profile measured
and Figure 13 quantifies: per-move time grows with the number of
concurrent operations because they all share one handling loop.
``OpenNFController(shards=N)`` removes that wall the way distributed SDN
controllers do (the NomClient/NomServer split): it partitions flow-space
*ownership* across N shards, each with its own inbox and admission
table, so operations over different shards proceed fully in parallel.
This module holds the two sharding-specific pieces; the controller
class itself is the same for every shard count.

Architecture
------------

* **Shard map** (:class:`ShardMap`): a deterministic hash partition of
  flow space. Exact-match filters fold their direction-normalized
  5-tuple key; CIDR-prefix filters bucket by network prefix so adjacent
  subnets land on different shards; everything else (true wildcards)
  defaults to shard 0. Both orientations of a flow always map to the
  same shard.

* **Shared view**: registration state (clients, ports) and the
  event/packet interest lists exist once on the controller, so a write
  is immediately visible to every shard (the idealization of a NIB).
  Per-shard state — the inbox, the admission table, labels and inbound
  counters — is the parallelism.

* **Routing**: each northbound operation installs a *claim*
  (filter → owning shard) for its lifetime; NF events and packet-ins
  are routed to the claim's shard first (oldest claim wins, so an
  in-flight operation keeps its flow's messages on its own inbox),
  then to any persistent ownership override left by a completed
  handoff (newest wins), then by the shard map. With one shard nothing
  is routed.

* **Cross-shard handshake** (:class:`CrossShardOperation`): an
  operation whose filter intersects flow space another shard is
  currently operating on cannot just start — the two shards would
  race on rules and state. Instead the controller reserves the filter
  in EVERY shard's admission table (so nothing new intersecting starts
  anywhere), waits for the conflicting operations to finish, then
  performs an ownership transfer: one control-channel round trip
  (``handoff_latency_ms``) plus a drain barrier on the prior owners'
  inboxes (any in-flight message for the flow space is handled before
  the new owner proceeds). Only then does the operation start on its
  home shard, and the controller records the ownership override so
  subsequent traffic routes there.

Failure semantics of a mid-handoff crash are discussed in
``docs/internals.md``; the short version is that the reservation +
drain protocol makes the transfer all-or-nothing from the flow space's
point of view: until the drain barrier passes, the prior owner still
owns every message, and an abort during the wait resolves the handle
through the normal deferred-abort path without ever starting.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from repro.flowspace.filter import Filter
from repro.flowspace.ip import parse_prefix
from repro.flowspace.fivetuple import FlowKey
from repro.controller.controller import OpenNFController
from repro.controller.operation import DeferredOperation, Operation

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _fold(*values: int) -> int:
    """FNV-1a over the bytes of a sequence of non-negative ints.

    Deterministic across runs and Python versions (no salted hash()),
    so shard placement — and therefore every sharded timeline — is
    reproducible.
    """
    digest = _FNV_OFFSET
    for value in values:
        value = int(value)
        while True:
            digest = ((digest ^ (value & 0xFF)) * _FNV_PRIME) & _MASK64
            value >>= 8
            if not value:
                break
    return digest


class ShardMap:
    """Deterministic flow-space → shard partition function."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard, got %d" % n_shards)
        self.n_shards = n_shards

    def shard_for_name(self, name: str) -> int:
        """Home shard for an NF instance (by name): holds its southbound
        channel and per-NF event sequencing state."""
        return _fold(*name.encode("utf-8")) % self.n_shards

    def shard_for_key(self, key: FlowKey) -> int:
        """Shard for a flow direction's :class:`FlowKey`.

        The endpoints are direction-normalized first, so an oriented
        filter, its reverse, and the symmetric filter for the same
        connection all land on one shard.
        """
        return _fold(key.proto, *key.canonical_endpoints()) % self.n_shards

    def shard_for_filter(self, flt: Filter) -> int:
        """Owning shard for a filter's flow space.

        Exact filters hash their 5-tuple. Prefix filters bucket by the
        network bits (``network >> host_bits``), so *adjacent* subnets
        — the common way traffic is split across NF instances — cycle
        round-robin across shards instead of hashing to one. Filters
        with no IP constraint (true wildcards) go to shard 0.
        """
        key = flt.flow_key()
        if key is not None:
            return self.shard_for_key(key)
        for field in ("nw_src", "nw_dst"):
            value = flt.fields.get(field)
            if value is None:
                continue
            try:
                network, mask = parse_prefix(value)
            except (AttributeError, TypeError, ValueError):
                continue
            prefix_len = bin(mask & 0xFFFFFFFF).count("1")
            if prefix_len == 0:
                continue
            return (network >> (32 - prefix_len)) % self.n_shards
        return 0

    def shard_for_headers(self, headers) -> int:
        """Shard for one packet's header dict (both directions of a
        connection route identically)."""
        key = FlowKey.from_headers(headers)
        if key is None:
            return 0
        return self.shard_for_key(key)


class CrossShardOperation(DeferredOperation):
    """An operation whose flow space spans shards: handshake, then run.

    Presents the standard deferred handle (``kind == "deferred"``) and
    reserves its filter in **every** shard's admission table at
    submission, so no shard admits an intersecting operation while
    the handshake is pending — and later operations queue FIFO behind
    it exactly as they would behind a same-shard deferral. Once all
    pre-existing conflicts finish, ownership of the flow space moves to
    the home shard (latency + prior-owner inbox drains); only then does
    the real operation start.
    """

    def __init__(
        self,
        home,
        kind: str,
        flt: Filter,
        conflicts: List[Any],
        start: Callable[[Any], Operation],
        guarantee: Any = None,
        prior_owners: Tuple[Any, ...] = (),
    ) -> None:
        self._prior_owners = tuple(prior_owners)
        self._handoff_done = False
        super().__init__(home, kind, flt, conflicts, start,
                         guarantee=guarantee)
        # Reserve everywhere else too (home is reserved by the parent
        # constructor): the whole controller treats this flow space as
        # busy.
        for shard in home.controller.replicas:
            if shard is not home:
                shard.reserve(flt, self.done)

    def _begin(self) -> None:
        if self._handoff_done:
            DeferredOperation._begin(self)
            return
        self._transfer_ownership()

    def _transfer_ownership(self) -> None:
        """Run the handoff protocol, then let the operation start.

        Models the two-controller exchange: one inter-shard round trip
        to agree on the transfer, then a drain barrier on each prior
        owner's inbox so every message already accepted for the flow
        space is handled under the old owner before the new owner
        touches it.
        """
        home = self.shard
        controller = home.controller
        if controller.obs.enabled:
            controller.obs.metrics.counter("ctrl.shard.handoff").inc(
                1, shard=str(home.shard_id)
            )

        def after_round_trip() -> None:
            pending = [shard.inbox.drained() for shard in self._prior_owners]
            remaining = {"count": len(pending)}

            def one_drained(_evt) -> None:
                remaining["count"] -= 1
                if remaining["count"] <= 0:
                    finish()

            if not pending:
                finish()
                return
            for evt in pending:
                evt.add_callback(one_drained)

        def finish() -> None:
            controller.handoffs_completed += 1
            controller._ownership.append((self.flt, home.shard_id))
            self._complete_handoff()

        self.sim.schedule(controller.handoff_latency_ms, after_round_trip)

    def _complete_handoff(self) -> None:
        self._handoff_done = True
        if self.done.triggered:  # aborted while the handoff was in flight
            return
        DeferredOperation._begin(self)


#: The sharded control plane is the controller with ``shards > 1``.
ShardedControlPlane = OpenNFController
