"""Hash indexes over filters and flowids, keyed by FlowKey integers.

:class:`FilterIndex` keeps items that carry a filter (flow-table
entries, NF event rules) with exact filters bucketed by
:meth:`~repro.flowspace.filter.Filter.exact_key`: a packet's best match
costs O(1 + wildcards), not O(rules). :class:`FlowKeyedStore`, the NFs'
``FlowId -> state`` map, buckets exact flowids by their key's
``symmetric`` integer, so the southbound "keys matching this filter"
query is O(1 + partial flowids) for an exact filter. Both answer
exactly as a linear scan would; the scans are the tests' oracles.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.flowspace.filter import EXACT_FIELDS, Filter, FlowId

_MISSING = object()


def _position(items: list, key: Any, order: Callable) -> int:
    """Leftmost insertion point for ``key`` in ``items`` sorted by ``order``."""
    lo, hi = 0, len(items)
    while lo < hi:
        mid = (lo + hi) // 2
        if order(items[mid]) < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


class FilterIndex:
    """Items carrying a ``filter``, best first by ``order(item)``: the
    flow table's entries by priority, an NF's event rules newest first."""

    def __init__(self, order: Callable[[Any], Any]) -> None:
        self.order = order
        #: exact_key -> items with that exact filter, best first.
        self.exact: Dict[int, list] = {}
        #: Items with wildcard/prefix/partial filters, best first.
        self.wild: list = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Any]:
        """Every item, best first."""
        items = list(self.wild)
        for bucket in self.exact.values():
            items.extend(bucket)
        items.sort(key=self.order)
        return iter(items)

    def candidates(self, flt: Filter):
        """The items whose filter could equal ``flt``, best first."""
        key = flt.exact_key()
        return self.wild if key is None else self.exact.get(key, ())

    def add(self, item: Any) -> None:
        key = item.filter.exact_key()
        bucket = self.wild if key is None else self.exact.setdefault(key, [])
        order = self.order
        bucket.insert(_position(bucket, order(item), order), item)
        self._size += 1

    def discard(self, item: Any) -> None:
        key = item.filter.exact_key()
        bucket = self.wild if key is None else self.exact[key]
        index = _position(bucket, self.order(item), self.order)
        while bucket[index] is not item:  # defensive; order keys are unique
            index += 1
        del bucket[index]
        self._size -= 1
        if key is not None and not bucket:
            del self.exact[key]

    def best(self, packet) -> Any:
        """The best item whose filter matches ``packet``, or None: the
        key's two buckets, then the other filters while one can win."""
        order = self.order
        best = None
        if self.exact:
            key = packet.key
            for bucket_key in (key.oriented, key.symmetric):
                bucket = self.exact.get(bucket_key)
                if bucket and (best is None or order(bucket[0]) < order(best)):
                    best = bucket[0]
        limit = None if best is None else order(best)
        for item in self.wild:
            if limit is not None and order(item) > limit:
                break
            if item.filter.matches_packet(packet):
                return item
        return best


class FlowKeyedStore:
    """A ``FlowId -> value`` mapping with an exact-match key index.

    Supports the dict operations the NFs use (get/set/del/pop/in/len/
    iteration/values) plus :meth:`keys_matching`, the indexed §4.2
    filter query, all in insertion order like a plain dict.
    """

    __slots__ = ("_data", "_exact", "_partial")

    def __init__(self) -> None:
        self._data: Dict[FlowId, Any] = {}
        #: key.symmetric -> flowids of that connection (either orientation)
        self._exact: Dict[int, List[FlowId]] = {}
        #: flowids with no flow key (host/prefix/partial); linear fallback
        self._partial: List[FlowId] = []

    # -- mapping protocol -----------------------------------------------------

    def __setitem__(self, flowid: FlowId, value: Any) -> None:
        data = self._data
        size = len(data)
        data[flowid] = value
        if len(data) != size:
            self._index(flowid)

    def __getitem__(self, flowid: FlowId) -> Any:
        return self._data[flowid]

    def __delitem__(self, flowid: FlowId) -> None:
        del self._data[flowid]
        self._unindex(flowid)

    def __contains__(self, flowid: object) -> bool:
        return flowid in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[FlowId]:
        return iter(self._data)

    def get(self, flowid: FlowId, default: Any = None) -> Any:
        return self._data.get(flowid, default)

    def pop(self, flowid: FlowId, *default: Any) -> Any:
        value = self._data.pop(flowid, _MISSING)
        if value is not _MISSING:
            self._unindex(flowid)
            return value
        if default:
            return default[0]
        raise KeyError(flowid)

    def values(self):
        return self._data.values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "FlowKeyedStore(%r)" % (self._data,)

    # -- index maintenance ----------------------------------------------------

    def _index(self, flowid: FlowId) -> None:
        key = flowid.flow_key()
        if key is None:
            self._partial.append(flowid)
        else:
            self._exact.setdefault(key.symmetric, []).append(flowid)

    def _unindex(self, flowid: FlowId) -> None:
        key = flowid.flow_key()
        if key is None:
            self._partial.remove(flowid)
            return
        bucket = self._exact[key.symmetric]
        bucket.remove(flowid)
        if not bucket:
            del self._exact[key.symmetric]

    # -- filter queries -------------------------------------------------------

    def keys_matching(
        self,
        flt: Filter,
        relevant_fields: Optional[Iterable[str]] = None,
    ) -> List[FlowId]:
        """All stored flowids matching ``flt`` under §4.2 semantics.

        Equivalent to
        ``[fid for fid in store if flt.matches_flowid(fid, relevant_fields)]``
        (same members, same order). When the filter is fully specified —
        it has a flow key and the relevant-fields projection drops none
        of its constraints — candidate flowids come from the key's hash
        bucket instead of a full scan; only partial flowids are still
        matched linearly.
        """
        key = flt.flow_key()
        if key is None or not (relevant_fields is None
                               or EXACT_FIELDS.issubset(relevant_fields)):
            if not any(relevant_fields is None or field in relevant_fields
                       for field in flt.fields):
                # Vacuous filter for this state kind: everything matches.
                return list(self._data)
            return [
                fid for fid in self._data
                if flt.matches_flowid(fid, relevant_fields)
            ]
        # A full-5-tuple flowid matches an exact filter iff they name the
        # same connection and, when both are oriented, the same direction
        # (matches_flowid tries the swapped view whenever either side is
        # symmetric).
        matched: List[FlowId] = [
            fid for fid in self._exact.get(key.symmetric, ())
            if flt.symmetric or fid.symmetric
            or fid.flow_key().oriented == key.oriented
        ]
        for fid in self._partial:
            if flt.matches_flowid(fid, relevant_fields):
                matched.append(fid)
        if len(matched) > 1:
            chosen = set(matched)
            matched = [fid for fid in self._data if fid in chosen]
        return matched
