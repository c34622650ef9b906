"""Priority flow table, OpenFlow-style.

Entries pair a :class:`~repro.flowspace.filter.Filter` with a priority and
an action list; lookup returns the highest-priority matching entry (most
recently installed wins ties, which is what the two-phase update in §5.1.2
relies on when it layers a HIGH_PRIORITY entry over a LOW_PRIORITY one).
Each entry keeps packet/byte counters — the paper's footnote 9 uses these
to confirm the controller has seen the last packet sent to srcInst.

The table is a :class:`~repro.flowspace.index.FilterIndex`, so rule
counts can grow with flow counts (§5.1.3's per-flow pipelined moves,
§8.4's reroute-only pinning): a lookup probes the two hash buckets of
the packet's FlowKey plus the sorted wildcard/prefix entries, and
install/remove splice sorted lists instead of re-sorting. The
linear-scan oracle the tests pin it against lives in ``tests/oracles``.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from repro.flowspace.filter import Filter
from repro.flowspace.index import FilterIndex
from repro.net.packet import Packet

LOW_PRIORITY = 10
MID_PRIORITY = 100
HIGH_PRIORITY = 1000

_entry_ids = itertools.count(1)


def _order(entry: "FlowEntry") -> Tuple[int, int]:
    """Sort key: priority desc, then newest (highest id) first among equals."""
    return (-entry.priority, -entry.entry_id)


class FlowEntry:
    """One installed rule: filter + priority + forwarding actions."""

    __slots__ = ("entry_id", "filter", "priority", "actions", "packets", "bytes",
                 "installed_at")

    def __init__(
        self,
        flt: Filter,
        priority: int,
        actions: Sequence[str],
        installed_at: float,
    ) -> None:
        self.entry_id = next(_entry_ids)
        self.filter = flt
        self.priority = priority
        self.actions: Tuple[str, ...] = tuple(actions)
        self.packets = 0
        self.bytes = 0
        self.installed_at = installed_at

    def count(self, packet: Packet) -> None:
        self.packets += 1
        self.bytes += packet.size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<FlowEntry #%d p=%d %r -> %s>" % (
            self.entry_id,
            self.priority,
            self.filter,
            "/".join(self.actions),
        )


class FlowTable(FilterIndex):
    """An ordered rule set with highest-priority-wins lookup.

    Entries are ordered by (priority desc, entry_id desc) — the order a
    linear scan resolves matches in — and iterate in that order.
    """

    def __init__(self) -> None:
        super().__init__(_order)

    def install(
        self, flt: Filter, priority: int, actions: Sequence[str], now: float
    ) -> FlowEntry:
        """Add a rule; replaces an existing rule with identical filter+priority."""
        self.remove(flt, priority)
        entry = FlowEntry(flt, priority, actions, now)
        self.add(entry)
        return entry

    def _matching(
        self, flt: Filter, priority: Optional[int]
    ) -> List[FlowEntry]:
        """Entries with exactly this filter (and priority), in table order."""
        return [
            e
            for e in self.candidates(flt)
            if e.filter == flt and (priority is None or e.priority == priority)
        ]

    def remove(self, flt: Filter, priority: Optional[int] = None) -> int:
        """Remove rules with this exact filter (and priority, if given).

        A no-op — no scan-and-rebuild, no allocation — when nothing
        matches.
        """
        doomed = self._matching(flt, priority)
        for entry in doomed:
            self.discard(entry)
        return len(doomed)

    def lookup(self, packet: Packet) -> Optional[FlowEntry]:
        """Highest-priority entry matching ``packet``, or None."""
        return self.best(packet)

    def find(self, flt: Filter, priority: Optional[int] = None) -> Optional[FlowEntry]:
        """The entry with this exact filter (and priority, if given)."""
        matches = self._matching(flt, priority)
        return matches[0] if matches else None

    def entries_overlapping(self, flt: Filter) -> List[FlowEntry]:
        """All entries whose filter shares flow space with ``flt``.

        Used by the strict-consistency share operation (§5.2.2) to find
        "all relevant forwarding entries" to redirect to the controller.
        For a fully-specified ``flt``, only the two hash buckets its
        5-tuple can collide with — plus the wildcard list — are checked;
        a coarser ``flt`` falls back to the full scan.
        """
        key = flt.flow_key()
        if key is None:
            return [e for e in self if e.filter.intersects(flt)]
        # ``intersects`` compares the *stored* field values, ignoring the
        # symmetric flag — so candidate exact entries are those sharing
        # flt's oriented tuple (oriented entries) or its canonical form
        # (symmetric entries, which the intersects check then re-verifies).
        candidates = [*self.exact.get(key.oriented, ()),
                      *self.exact.get(key.symmetric, ()), *self.wild]
        matches = [e for e in candidates if e.filter.intersects(flt)]
        matches.sort(key=_order)
        return matches
