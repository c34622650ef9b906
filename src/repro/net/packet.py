"""The packet model.

Packets carry a transport five-tuple, TCP flags, a sequence offset, and an
application payload (a string; its length stands in for the wire size
together with a fixed header overhead). Every packet has a unique ``uid``
assigned at creation: the loss-freedom and order-preservation properties
from §5.1 of the paper are stated — and tested — in terms of these uids.

Marks (:meth:`Packet.mark`) carry OpenNF's out-of-band annotations: the
controller tags packets it re-injects with ``"do-not-buffer"``
(order-preserving move, §5.1.2) or ``"do-not-drop"`` (share, §5.2.2).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, Iterable, Optional, Set

from repro.flowspace.fivetuple import FiveTuple

HEADER_OVERHEAD_BYTES = 54  # Ethernet + IPv4 + TCP headers

_uid_counter = itertools.count(1)


def reset_uid_counter() -> None:
    """Restart packet uid assignment (used by tests for determinism)."""
    global _uid_counter
    _uid_counter = itertools.count(1)


class Packet:
    """A single packet traversing the simulated network.

    ``key`` is its five-tuple's FlowKey, which every layer identifies
    the flow by. ``extras`` (extra header fields) and the marks stay
    ``None`` until first set.
    """

    __slots__ = (
        "uid",
        "five_tuple",
        "key",
        "tcp_flags",
        "seq",
        "payload",
        "_marks",
        "created_at",
        "extras",
    )

    def __init__(
        self,
        five_tuple: FiveTuple,
        tcp_flags: Iterable[str] = (),
        seq: int = 0,
        payload: str = "",
        created_at: float = 0.0,
        extra_headers: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.uid = next(_uid_counter)
        self.five_tuple = five_tuple
        self.key = five_tuple.key
        self.tcp_flags: FrozenSet[str] = frozenset(tcp_flags)
        self.seq = seq
        self.payload = payload
        self._marks: Optional[Set[str]] = None
        self.created_at = created_at
        self.extras: Optional[Dict[str, Any]] = extra_headers or None

    @property
    def size_bytes(self) -> int:
        """Approximate wire size: headers plus payload length."""
        return HEADER_OVERHEAD_BYTES + len(self.payload)

    @property
    def extra_headers(self) -> Dict[str, Any]:
        """Extra header fields beyond the 5-tuple and flags (mutable)."""
        extras = self.extras
        if extras is None:
            extras = self.extras = {}
        return extras

    def flow_key(self) -> str:
        """Canonical (direction-insensitive) flow name for this packet.

        Both directions of a connection map to the same name, matching
        the symmetric per-flow grouping the §5.1 properties are stated
        over; auditors and trace records use it to name flows. Cached
        on the flow direction's FlowKey.
        """
        key = self.key
        name = key.name
        if name is None:
            c = self.five_tuple.canonical()
            name = key.name = "%s:%s-%s:%s/%s" % (
                c.src_ip, c.src_port, c.dst_ip, c.dst_port, c.proto
            )
        return name

    def sampled_flow(self, gate) -> Optional[str]:
        """The flow name, or None when the sampling ``gate`` drops the
        flow. The verdict is cached on the key, tagged with its gate."""
        if gate is None:
            return self.flow_key()
        verdict = self.key.gate
        if verdict is None or verdict[0] is not gate:
            name = self.flow_key()
            verdict = self.key.gate = (gate, name if gate(name) else None)
        return verdict[1]

    def headers(self) -> Dict[str, Any]:
        """Header-field dict for filter matching."""
        fields = self.five_tuple.headers()
        if self.tcp_flags:
            fields["tcp_flags"] = self.tcp_flags
        if self.extras:
            fields.update(self.extras)
        return fields

    def mark(self, name: str) -> "Packet":
        """Attach an out-of-band annotation (e.g. ``"do-not-buffer"``)."""
        if self._marks is None:
            self._marks = set()
        self._marks.add(name)
        return self

    def has_mark(self, name: str) -> bool:
        """Whether the annotation ``name`` is attached."""
        marks = self._marks
        return marks is not None and name in marks

    def is_syn(self) -> bool:
        """A pure SYN (no ACK): the start of a new connection."""
        return "SYN" in self.tcp_flags and "ACK" not in self.tcp_flags

    def is_fin_or_rst(self) -> bool:
        """Whether this packet terminates its connection."""
        return bool(self.tcp_flags & {"FIN", "RST"})

    def __repr__(self) -> str:
        flags = "+".join(sorted(self.tcp_flags)) or "-"
        return "<pkt #%d %s %s seq=%d len=%d>" % (
            self.uid,
            self.five_tuple,
            flags,
            self.seq,
            len(self.payload),
        )
