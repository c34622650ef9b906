"""Flow identity: the transport five-tuple and its FlowKey.

A :class:`FiveTuple` computes its :class:`FlowKey` — the tuple's integer
identity — once, when it is built. The traffic generator builds one
tuple per flow direction, so every packet of a direction shares one key,
and every layer that asks "which flow is this?" probes with it: the
OpenState notion of one key extractor per table.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.flowspace.ip import ip_to_int

TCP = 6
UDP = 17
ICMP = 1

_PROTO_NAMES = {TCP: "tcp", UDP: "udp", ICMP: "icmp"}


class FlowKey:
    """The integer identity of one flow direction.

    ``oriented`` packs the tuple into one int; ``symmetric`` packs it
    with the endpoints direction-normalized (smaller ``(ip, port)``
    first) and its low bit set, shared by both directions. ``flowid``,
    ``name`` and ``gate`` cache the interned FlowId, the flow name and
    the trace sampler's verdict. A key lives as long as its tuple.
    """

    __slots__ = ("src", "sport", "dst", "dport", "proto", "oriented",
                 "symmetric", "_hash", "flowid", "name", "gate")

    def __init__(self, src: int, sport: int, dst: int, dport: int,
                 proto: int) -> None:
        if (sport > 0xFFFF or dport > 0xFFFF or proto > 0xFF
                or sport < 0 or dport < 0 or proto < 0):
            raise ValueError("5-tuple field out of range: %r"
                             % ((src, sport, dst, dport, proto),))
        self.src = src
        self.sport = sport
        self.dst = dst
        self.dport = dport
        self.proto = proto
        left = (src << 16) | sport  # ordered like (ip, port) tuples
        right = (dst << 16) | dport
        head = proto << 96
        self.oriented = oriented = (head | left << 48 | right) << 1
        if left <= right:
            self.symmetric = oriented | 1
        else:
            self.symmetric = (head | right << 48 | left) << 1 | 1
        self._hash = hash(oriented)
        self.flowid = None
        self.name: Optional[str] = None
        self.gate = None

    @property
    def is_canonical(self) -> bool:
        """Whether this direction is the direction-normalized one."""
        return self.oriented | 1 == self.symmetric

    def canonical_endpoints(self) -> Tuple[int, int, int, int]:
        """``(ip, port, ip, port)`` with the smaller endpoint first."""
        if self.is_canonical:
            return (self.src, self.sport, self.dst, self.dport)
        return (self.dst, self.dport, self.src, self.sport)

    @classmethod
    def from_headers(cls, headers: Mapping[str, Any]) -> Optional["FlowKey"]:
        """The key of a fully-specified 5-tuple header dict, else None."""
        numbers = (headers.get("tp_src"), headers.get("tp_dst"),
                   headers.get("nw_proto"))
        if not all(isinstance(value, int) for value in numbers):
            return None
        try:
            return cls(ip_to_int(headers["nw_src"]), numbers[0],
                       ip_to_int(headers["nw_dst"]), numbers[1], numbers[2])
        except (AttributeError, KeyError, TypeError, ValueError):
            return None

    @classmethod
    def from_name(cls, name: str) -> "FlowKey":
        """Parse a flow name (``"ip:port-ip:port/proto"``) back to a key."""
        endpoints, proto = name.rsplit("/", 1)
        src, dst = (part.rsplit(":", 1) for part in endpoints.split("-", 1))
        return cls(ip_to_int(src[0]), int(src[1]), ip_to_int(dst[0]),
                   int(dst[1]), int(proto))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FlowKey) and self.oriented == other.oriented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "FlowKey(%d:%d->%d:%d/%d)" % (
            self.src, self.sport, self.dst, self.dport, self.proto)


class FiveTuple:
    """An immutable ``(src_ip, src_port, dst_ip, dst_port, proto)`` tuple.

    NFs key per-flow state by the *bidirectional* flow, so
    :meth:`canonical` returns a direction-independent form (the endpoint
    with the smaller ``(ip_int, port)`` first). Construction computes
    the tuple's :class:`FlowKey` (``key``) once and, for a non-canonical
    tuple, its canonical twin, which :meth:`reversed` returns: both
    directions of a connection share one canonical tuple. Tuples are
    values, equal when their keys are.
    """

    __slots__ = ("src_ip", "src_port", "dst_ip", "dst_port", "proto", "key",
                 "_canonical")

    def __init__(
        self,
        src_ip: str,
        src_port: int,
        dst_ip: str,
        dst_port: int,
        proto: int = TCP,
        _canonical: Optional["FiveTuple"] = None,
    ) -> None:
        self.src_ip = src_ip
        self.src_port = src_port
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.proto = proto
        self.key = FlowKey(ip_to_int(src_ip), src_port, ip_to_int(dst_ip),
                           dst_port, proto)
        if _canonical is None and not self.key.is_canonical:
            _canonical = FiveTuple(dst_ip, dst_port, src_ip, src_port, proto)
        #: The canonical twin (None when this tuple is canonical).
        self._canonical = _canonical

    def reversed(self) -> "FiveTuple":
        """The same flow seen from the opposite direction."""
        return self._canonical or FiveTuple(
            self.dst_ip, self.dst_port, self.src_ip, self.src_port,
            self.proto, _canonical=self)

    def canonical(self) -> "FiveTuple":
        """Direction-normalized form shared by both directions of the flow."""
        return self._canonical or self

    def headers(self) -> Dict[str, Union[str, int]]:
        """Header-field dict in the OpenFlow-ish naming the filters use."""
        return {
            "nw_src": self.src_ip,
            "nw_dst": self.dst_ip,
            "nw_proto": self.proto,
            "tp_src": self.src_port,
            "tp_dst": self.dst_port,
        }

    @property
    def proto_name(self) -> str:
        """Human-readable protocol name ("tcp", "udp", "icmp", or number)."""
        return _PROTO_NAMES.get(self.proto, str(self.proto))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FiveTuple:
            return NotImplemented
        return self.key.oriented == other.key.oriented

    def __hash__(self) -> int:
        return self.key._hash

    def __repr__(self) -> str:
        return "FiveTuple(src_ip=%r, src_port=%r, dst_ip=%r, dst_port=%r, " \
            "proto=%r)" % (self.src_ip, self.src_port, self.dst_ip,
                           self.dst_port, self.proto)

    def __str__(self) -> str:
        return "%s:%d->%s:%d/%s" % (
            self.src_ip,
            self.src_port,
            self.dst_ip,
            self.dst_port,
            self.proto_name,
        )
