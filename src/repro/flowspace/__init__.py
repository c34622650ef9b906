"""Flow-space algebra: five-tuples, flow keys, filters, and flow ids.

OpenNF specifies *which* state to export/import and *which* packets to
match using OpenFlow-style header filters (§4.2 of the paper): a filter is
a dictionary of header fields (``nw_src``, ``nw_dst``, ``nw_proto``,
``tp_src``, ``tp_dst``, ...); unspecified fields are wildcards, and IP
fields may carry CIDR prefixes. A *flowid* is the same shape but
describes the flow (or flow aggregate) a piece of state pertains to.
A :class:`FlowKey` is a flow direction's integer identity, computed
once when its five-tuple is built and shared by every layer that asks
which flow a packet belongs to.

This package implements that vocabulary plus the subsumption/overlap
queries the switch and controller need.
"""

from repro.flowspace.fivetuple import FiveTuple, FlowKey
from repro.flowspace.filter import Filter, FlowId, packet_match_keys
from repro.flowspace.index import FlowKeyedStore
from repro.flowspace.ip import ip_in_prefix, ip_to_int, parse_prefix

__all__ = [
    "FiveTuple",
    "Filter",
    "FlowId",
    "FlowKey",
    "FlowKeyedStore",
    "ip_in_prefix",
    "ip_to_int",
    "packet_match_keys",
    "parse_prefix",
]
