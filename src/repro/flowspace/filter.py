"""Filters and flow ids: OpenFlow-style header predicates.

A :class:`Filter` is a dictionary of header-field constraints
(§4.2 of the paper): unspecified fields are wildcards, ``nw_src`` /
``nw_dst`` values may be CIDR prefixes, ``tcp_flags`` names flags that
must be set, and everything else matches exactly. A :class:`FlowId` is
the same shape but *describes* the flow (or flow aggregate, e.g. a host)
a chunk of state pertains to; it is hashable so it can key the
``multimap<flowid, chunk>`` results of the southbound API.

Directionality: OpenFlow rules are directional, but per-flow NF state is
bidirectional (a TCP connection). A filter constructed with
``symmetric=True`` matches a packet (or flowid) in either orientation —
this models the rule *pair* (one per direction) the paper's prototype
installs, as one unit.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.flowspace.ip import (
    ip_in_prefix,
    parse_prefix,
    prefix_covers,
    prefixes_overlap,
)
from repro.flowspace.fivetuple import FlowKey

_IP_FIELDS = ("nw_src", "nw_dst")
_SWAP = {"nw_src": "nw_dst", "nw_dst": "nw_src", "tp_src": "tp_dst", "tp_dst": "tp_src"}

#: Exactly these fields must be constrained for a filter to be exact-match.
EXACT_FIELDS = frozenset(("nw_src", "nw_dst", "nw_proto", "tp_src", "tp_dst"))

_FULL_MASK = 0xFFFFFFFF

_UNSET = object()  # "not computed yet"; None is a valid result

#: Plan slot per field (see Filter._compile).
_PLAN_SLOTS = {"nw_src": 0, "nw_dst": 2, "nw_proto": 4, "tp_src": 5,
               "tp_dst": 6, "tcp_flags": 7}
_ANY = object()
_NO_FLAGS: FrozenSet[str] = frozenset()


def packet_match_keys(headers: Mapping[str, Any]):
    """The ``(oriented, symmetric)`` buckets a header dict can hit, or
    ``(None, None)`` for a partial 5-tuple. Packets carry their key."""
    key = FlowKey.from_headers(headers)
    return (None, None) if key is None else (key.oriented, key.symmetric)


def _plan_matches(plan, src, sport, dst, dport, proto, flags) -> bool:
    """One orientation of a compiled plan."""
    (src_net, src_mask, dst_net, dst_mask, want_proto, want_sport,
     want_dport, want_flags) = plan
    return (
        (src_mask is None or src & src_mask == src_net)
        and (dst_mask is None or dst & dst_mask == dst_net)
        and (want_proto is _ANY or want_proto == proto)
        and (want_sport is _ANY or want_sport == sport)
        and (want_dport is _ANY or want_dport == dport)
        and (want_flags is None or (bool(flags) and want_flags <= flags))
    )


def _flags_as_set(value: Any) -> FrozenSet[str]:
    if isinstance(value, str):
        return frozenset({value})
    return frozenset(value)


def _field_matches(field: str, constraint: Any, value: Any) -> bool:
    """Whether one header ``value`` satisfies one filter ``constraint``."""
    if value is None:
        return False
    if field in _IP_FIELDS:
        return ip_in_prefix(value, constraint)
    if field == "tcp_flags":
        return _flags_as_set(constraint) <= _flags_as_set(value)
    return constraint == value


def _swap_headers(headers: Mapping[str, Any]) -> Dict[str, Any]:
    return {_SWAP.get(field, field): value for field, value in headers.items()}


class Filter:
    """An immutable header predicate with wildcard semantics.

    An exact filter has a :class:`FlowKey` that hash indexes bucket it
    by; others match a packet's key through a compiled plan.
    """

    __slots__ = ("fields", "symmetric", "_hash", "_flow_key", "_plan")

    def __init__(
        self, fields: Optional[Mapping[str, Any]] = None, symmetric: bool = False
    ) -> None:
        self.fields: Dict[str, Any] = dict(fields or {})
        self.symmetric = symmetric
        self._hash: Optional[int] = None
        self._flow_key: Any = _UNSET
        self._plan: Any = _UNSET

    # -- construction helpers -------------------------------------------------

    @classmethod
    def wildcard(cls) -> "Filter":
        """The match-everything filter."""
        return cls({})

    @classmethod
    def for_flow(cls, five_tuple, symmetric: bool = True) -> "Filter":
        """An exact-match filter for one flow (both directions by default)."""
        flt = cls(five_tuple.headers(), symmetric=symmetric)
        flt._flow_key = five_tuple.key
        return flt

    def with_fields(self, **extra: Any) -> "Filter":
        """A copy of this filter with additional/overridden constraints."""
        merged = dict(self.fields)
        merged.update(extra)
        return Filter(merged, symmetric=self.symmetric)

    # -- packet matching ------------------------------------------------------

    def matches_headers(self, headers: Mapping[str, Any]) -> bool:
        """Whether a packet's header dict satisfies every constraint."""
        if self._matches_oriented(headers):
            return True
        if self.symmetric:
            return self._matches_oriented(_swap_headers(headers))
        return False

    def matches_packet(self, packet) -> bool:
        """Whether a :class:`~repro.net.packet.Packet` satisfies the filter
        (read from its key; the header dict is built only if needed)."""
        plan = self._plan
        if plan is _UNSET:
            plan = self._compile()
        if plan is True:
            return True
        if plan is None or packet.extras:
            return self.matches_headers(packet.headers())
        return self.matches_key(packet.key, packet.tcp_flags)

    def matches_key(self, key: FlowKey,
                    tcp_flags: FrozenSet[str] = _NO_FLAGS) -> bool:
        """Whether a flow direction (with ``tcp_flags``) satisfies the
        filter. A constraint on a field outside the 5-tuple and flags
        never holds for a bare key."""
        plan = self._plan
        if plan is _UNSET:
            plan = self._compile()
        if plan is True or plan is None:
            return plan is True
        return _plan_matches(plan, key.src, key.sport, key.dst, key.dport,
                             key.proto, tcp_flags) or (
            self.symmetric and _plan_matches(
                plan, key.dst, key.dport, key.src, key.sport, key.proto,
                tcp_flags))

    def _compile(self):
        """Cache the filter as ``(src_net, src_mask, dst_net, dst_mask,
        proto, tp_src, tp_dst, flags)`` over key integers; ``True`` when
        unconstrained, ``None`` when a constraint has no integer form."""
        plan: Any = [None, None, None, None, _ANY, _ANY, _ANY, None]
        try:
            for field, constraint in self.fields.items():
                slot = _PLAN_SLOTS[field]
                if slot < 4:
                    plan[slot], plan[slot + 1] = parse_prefix(constraint)
                elif slot == 7:
                    plan[7] = _flags_as_set(constraint)
                else:
                    plan[slot] = constraint
            plan = tuple(plan) if self.fields else True
        except (AttributeError, KeyError, TypeError, ValueError):
            plan = None
        self._plan = plan
        return plan

    def _matches_oriented(self, headers: Mapping[str, Any]) -> bool:
        for field, constraint in self.fields.items():
            if not _field_matches(field, constraint, headers.get(field)):
                return False
        return True

    # -- exact match ----------------------------------------------------------

    def flow_key(self) -> Optional[FlowKey]:
        """The :class:`FlowKey` of an exact filter — exactly the 5-tuple
        fields, host addresses, integer ports/proto — else ``None``."""
        key = self._flow_key
        if key is _UNSET:
            key = self._flow_key = self._parse_flow_key()
        return key

    def _parse_flow_key(self) -> Optional[FlowKey]:
        fields = self.fields
        if fields.keys() != EXACT_FIELDS:
            return None
        try:
            src, src_mask = parse_prefix(fields["nw_src"])
            dst, dst_mask = parse_prefix(fields["nw_dst"])
            numbers = (fields["tp_src"], fields["tp_dst"], fields["nw_proto"])
            if (src_mask != _FULL_MASK or dst_mask != _FULL_MASK
                    or not all(isinstance(n, int) for n in numbers)):
                return None
            return FlowKey(src, numbers[0], dst, numbers[1], numbers[2])
        except (AttributeError, TypeError, ValueError):
            return None

    def exact_key(self) -> Optional[int]:
        """An exact filter's hash bucket: its key's ``symmetric`` or
        ``oriented`` form. A packet matches it iff its key yields it."""
        key = self.flow_key()
        if key is None:
            return None
        return key.symmetric if self.symmetric else key.oriented

    # -- state (flowid) matching ----------------------------------------------

    def matches_flowid(
        self,
        flowid: "FlowId",
        relevant_fields: Optional[Iterable[str]] = None,
    ) -> bool:
        """Whether state described by ``flowid`` falls under this filter.

        Implements §4.2's rule that "only fields relevant to the state are
        matched against the filter; other fields in the filter are
        ignored": constraints outside ``relevant_fields`` are dropped
        first. If nothing remains, every flowid matches (the filter is
        vacuous for this kind of state — e.g. a ``tp_dst`` filter against
        host counters, where "only the IP fields ... will be considered").

        Otherwise the flowid (in either orientation if symmetric, and
        against the swapped filter too if the filter is symmetric) must
        *engage* at least one remaining constraint — carry at least one
        constrained field — and every field it carries must satisfy its
        constraint. Constraints on fields the flowid lacks are ignored
        (the flowid is coarser, e.g. a host counter has no ports), but a
        flowid that shares no constrained field in some orientation does
        not match through that orientation: a counter for host H matches
        an IP filter only if H itself satisfies an IP constraint.
        """
        relevant = None if relevant_fields is None else set(relevant_fields)
        constraints = {
            field: value
            for field, value in self.fields.items()
            if relevant is None or field in relevant
        }
        if not constraints:
            return True
        constraint_sets = [constraints]
        if self.symmetric:
            constraint_sets.append(_swap_headers(constraints))
        flowid_views = [flowid.fields]
        if flowid.symmetric:
            flowid_views.append(_swap_headers(flowid.fields))
        for oriented_constraints in constraint_sets:
            for fields in flowid_views:
                if self._flowid_view_matches(oriented_constraints, fields):
                    return True
        return False

    @staticmethod
    def _flowid_view_matches(
        constraints: Mapping[str, Any], fields: Mapping[str, Any]
    ) -> bool:
        engaged = False
        for field, constraint in constraints.items():
            if field not in fields:
                continue
            engaged = True
            value = fields[field]
            if field in _IP_FIELDS:
                # flowid IP values may themselves be prefixes (e.g. subnets)
                if not prefix_covers(constraint, value):
                    return False
            elif not _field_matches(field, constraint, value):
                return False
        return engaged

    # -- flow-space algebra ---------------------------------------------------

    def covers(self, other: "Filter") -> bool:
        """Whether every header set matched by ``other`` is matched by self."""
        for field, constraint in self.fields.items():
            if field not in other.fields:
                return False
            theirs = other.fields[field]
            if field in _IP_FIELDS:
                if not prefix_covers(constraint, theirs):
                    return False
            elif field == "tcp_flags":
                if not _flags_as_set(constraint) <= _flags_as_set(theirs):
                    return False
            elif constraint != theirs:
                return False
        return True

    def intersects(self, other: "Filter") -> bool:
        """Whether some header set is matched by both filters."""
        for field, constraint in self.fields.items():
            if field not in other.fields:
                continue
            theirs = other.fields[field]
            if field in _IP_FIELDS:
                if not prefixes_overlap(constraint, theirs):
                    return False
            elif field == "tcp_flags":
                continue  # "flag set" constraints are always co-satisfiable
            elif constraint != theirs:
                return False
        return True

    # -- dunder plumbing --------------------------------------------------------

    def _key(self) -> Tuple:
        return (tuple(sorted(self.fields.items(), key=lambda kv: kv[0])),
                self.symmetric)

    def __eq__(self, other: object) -> bool:
        # Dict equality ignores field order: no need to sort like _key().
        if self is other:
            return True
        return (isinstance(other, Filter)
                and self.symmetric == other.symmetric
                and self.fields == other.fields)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        tag = "~" if self.symmetric else ""
        body = ", ".join("%s=%s" % kv for kv in sorted(self.fields.items()))
        return "%s%s{%s}" % (type(self).__name__, tag, body or "*")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (used by the wire codec)."""
        flat = {
            field: sorted(value) if isinstance(value, (set, frozenset)) else value
            for field, value in self.fields.items()
        }
        return {"fields": flat, "symmetric": self.symmetric}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Filter":
        """Inverse of :meth:`to_dict`."""
        return cls(data.get("fields", {}), symmetric=bool(data.get("symmetric")))


class FlowId(Filter):
    """A description of the flow (or flow aggregate) a state chunk covers.

    Structurally identical to a filter, but used on the *state* side of the
    southbound API: per-flow chunks carry a full five-tuple flowid, a
    host-granularity counter carries just an IP, a Squid cache entry may
    carry a URL. Hashable, so usable as a multimap key.
    """

    @classmethod
    def for_flow(cls, five_tuple, symmetric: bool = True) -> "FlowId":
        """Flowid for one transport connection (bidirectional by default;
        that one is interned on the tuple's FlowKey)."""
        key = five_tuple.key
        if not symmetric or cls is not FlowId:
            return super().for_flow(five_tuple, symmetric)
        if key.flowid is None:
            key.flowid = super().for_flow(five_tuple)
        return key.flowid

    @classmethod
    def for_host(cls, ip: str, interned: Optional[Dict[str, "FlowId"]] = None
                 ) -> "FlowId":
        """Flowid for host-granularity state (matches the IP in either
        role); one per host with ``interned``, a dict the caller owns."""
        if interned is None:
            return cls({"nw_src": ip}, symmetric=True)
        flowid = interned.get(ip)
        if flowid is None:
            flowid = interned[ip] = cls({"nw_src": ip}, symmetric=True)
        return flowid
