"""Linear-scan reference oracles for the data plane's hash indexes.

Production code probes hash buckets keyed by a packet's
:class:`~repro.flowspace.fivetuple.FlowKey`; these oracles answer the same
questions the slow, obvious way — one :meth:`Filter.matches_headers` /
:meth:`Filter.matches_flowid` check per rule or stored flowid, over the
packet's header dict — so the differential tests can pin every fast path
to the paper's filter semantics.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.flowspace import Filter
from repro.net.flowtable import FlowEntry, FlowTable


def linear_lookup(table, packet) -> Optional[FlowEntry]:
    """The first entry of ``table`` (in lookup order) matching ``packet``."""
    headers = packet.headers()
    for entry in table:
        if entry.filter.matches_headers(headers):
            return entry
    return None


def linear_find(table, flt: Filter,
                priority: Optional[int] = None) -> List[FlowEntry]:
    """Entries of ``table`` with exactly this filter (and priority)."""
    return [e for e in table if e.filter == flt
            and (priority is None or e.priority == priority)]


def linear_overlapping(table, flt: Filter) -> List[FlowEntry]:
    """Entries of ``table`` sharing flow space with ``flt``, in order."""
    return [e for e in table if e.filter.intersects(flt)]


class LinearFlowTable(FlowTable):
    """A :class:`~repro.net.flowtable.FlowTable` whose queries all scan.

    Install and remove keep the same sorted entry list; every lookup,
    find and overlap query ignores the hash buckets.
    """

    def _matching(self, flt: Filter,
                  priority: Optional[int]) -> List[FlowEntry]:
        return linear_find(self, flt, priority)

    def lookup(self, packet) -> Optional[FlowEntry]:
        return linear_lookup(self, packet)

    def entries_overlapping(self, flt: Filter) -> List[FlowEntry]:
        return linear_overlapping(self, flt)


def linear_match_rule(nf, packet):
    """The most recently enabled event rule of ``nf`` matching ``packet``."""
    headers = packet.headers()
    for rule in nf._rules:  # newest first
        if rule.filter.matches_headers(headers):
            return rule
    return None


def linear_keys_matching(store, flt: Filter,
                         relevant_fields: Optional[Iterable[str]] = None):
    """Every flowid in ``store`` matching ``flt``, in insertion order."""
    return [fid for fid in store if flt.matches_flowid(fid, relevant_fields)]
