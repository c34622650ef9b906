"""Formal migration-correctness properties checked over recorded traces.

The PR-5 auditors verify the paper's §5.1 guarantees online. The
checkers here verify the stronger properties of "Correctness of Flow
Migration Across Network Function Instances" (Patowary et al.) *post
hoc*, over the same ``(time, kind, payload)`` entry stream that
:func:`repro.obs.replay_trace` consumes — so a live run and a replayed
``.trace.jsonl`` corpus file exercise identical code:

* **Isolation** — two operations over intersecting flow space are never
  both in-flight: their [``op.start``, ``op.end``] windows must not
  overlap (the unified admission table's contract, checked from the
  trace rather than trusted).
* **No phantom state** — a destination never imports a (scope, key)
  chunk that was not previously exported by the operation's source: no
  state materializes out of thin air. (Shares are held to the weaker
  set-membership form, since one origin export legitimately fans out to
  N replica imports.)
* **Completeness** — a completed, non-aborted move leaves no matching
  per-flow state behind at its source (ground truth, checked by the
  runner against the live NF instances, since a trace alone cannot
  prove absence of state).

Every failed property produces a :class:`PropertyFailure` naming the
operation and the offending keys, mirroring the auditors' Violation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.flowspace.filter import Filter, FlowId

#: Operation kinds whose chunk transfers are strictly src→dst counted.
_COUNTED_KINDS = ("move", "copy", "splitmerge-migrate")

_FILTER_RE = re.compile(r"^Filter(~?)\{(.*)\}$")


@dataclass
class PropertyFailure:
    """One failed formal property, with the context to debug it."""

    prop: str
    detail: str
    trace_id: Optional[int] = None
    op_kind: Optional[str] = None

    def render(self) -> str:
        return "[property] %s op=%s(#%s): %s" % (
            self.prop.upper(), self.op_kind, self.trace_id, self.detail
        )


def parse_filter_repr(text: Optional[str]) -> Optional[Filter]:
    """Reconstruct a :class:`Filter` from its ``repr`` in an op.start.

    Returns ``None`` for anything unparsable — a checker can then only
    skip the pairwise comparison, never crash on a foreign trace.
    """
    if not text:
        return None
    match = _FILTER_RE.match(text)
    if match is None:
        return None
    symmetric = match.group(1) == "~"
    body = match.group(2)
    if body == "*":
        return Filter({}, symmetric=symmetric)
    fields: Dict[str, Any] = {}
    for part in body.split(", "):
        if "=" not in part:
            return None
        key, value = part.split("=", 1)
        fields[key] = int(value) if value.isdigit() else value
    return Filter(fields, symmetric=symmetric)


class _TracedOp:
    """One operation reconstructed from op.start/op.end records."""

    __slots__ = (
        "trace_id", "kind", "src", "dst", "instances", "filter",
        "flowspace", "chain_id", "started_ms", "ended_ms", "aborted",
        "exports", "imports", "import_order_ok",
    )

    def __init__(self, record: dict, time_ms: float) -> None:
        self.trace_id = record.get("trace_id")
        raw_chain = record.get("chain_id")
        self.chain_id = str(raw_chain) if raw_chain is not None else None
        self.kind = record.get("kind", "?")
        self.src = record.get("src")
        self.dst = record.get("dst")
        self.instances = tuple(
            n for n in str(record.get("instances") or "").split(",") if n
        )
        self.filter = parse_filter_repr(record.get("filter"))
        flowspace = record.get("flowspace")
        #: The flow space as recorded data (None for older streams).
        self.flowspace: Optional[Filter] = (
            Filter.from_dict(flowspace) if flowspace else None
        )
        self.started_ms = time_ms
        self.ended_ms: Optional[float] = None
        self.aborted: Optional[str] = None
        #: (scope, key) -> count of exports seen so far.
        self.exports: Dict[Tuple[str, str], int] = {}
        self.imports: Dict[Tuple[str, str], int] = {}
        #: False once an import ran ahead of its exports (phantom).
        self.import_order_ok = True

    @property
    def names(self) -> Tuple[str, ...]:
        return self.instances or tuple(
            n for n in (self.src, self.dst) if n
        )

    def owns_flowid(self, flowid: Optional[Dict[str, Any]]) -> bool:
        """Whether a chunk's ``flowid`` (as data) lies in the flow space."""
        return (flowid is not None and self.flowspace is not None
                and self.flowspace.matches_flowid(FlowId.from_dict(flowid)))


def _collect_ops(entries) -> Dict[int, _TracedOp]:
    """First pass: operation windows, abort flags, and chunk ledgers."""
    ops: Dict[int, _TracedOp] = {}

    def op_for_chunk(nf: Optional[str], exporting: bool,
                     flowid: Optional[Dict[str, Any]]) -> Optional[_TracedOp]:
        """The latest open op at ``nf`` whose flow space holds the
        chunk; the latest open op at ``nf`` when none does."""
        candidates = []
        for op in ops.values():
            if op.ended_ms is not None:
                continue
            if op.kind in _COUNTED_KINDS:
                if (op.src if exporting else op.dst) == nf:
                    candidates.append(op)
            elif op.kind == "share" and nf in op.names:
                candidates.append(op)
        if len(candidates) > 1:
            for op in reversed(candidates):
                if op.owns_flowid(flowid):
                    return op
        return candidates[-1] if candidates else None

    for time_ms, kind, entry in entries:
        if kind != "record":
            continue
        name = entry.get("name")
        if name == "op.start":
            op = _TracedOp(entry, time_ms)
            if op.trace_id is not None:
                ops[op.trace_id] = op
        elif name == "op.end":
            op = ops.get(entry.get("trace_id"))
            if op is not None:
                op.ended_ms = time_ms
                op.aborted = entry.get("aborted")
        elif name in ("nf.chunk.export", "nf.chunk.import"):
            exporting = name == "nf.chunk.export"
            op = op_for_chunk(entry.get("nf"), exporting, entry.get("flowid"))
            if op is None:
                continue
            chunk_key = (entry.get("scope"), entry.get("key"))
            ledger = op.exports if exporting else op.imports
            ledger[chunk_key] = ledger.get(chunk_key, 0) + 1
            if not exporting and op.kind in _COUNTED_KINDS:
                if op.imports[chunk_key] > op.exports.get(chunk_key, 0):
                    op.import_order_ok = False
    return ops


def _same_chain(first: _TracedOp, second: _TracedOp) -> bool:
    """Is one op the other's chain parent, or both hops of one chain?

    A chain operation holds a single admission reservation that its
    constituent per-hop moves run under, so the parent's window
    legitimately spans its children's — isolation applies only across
    distinct reservations.
    """
    if first.chain_id is not None and first.chain_id == second.chain_id:
        return True
    for parent, child in ((first, second), (second, first)):
        if (
            parent.kind == "chain"
            and parent.trace_id is not None
            and child.chain_id == str(parent.trace_id)
        ):
            return True
    return False


def check_isolation(entries) -> List[PropertyFailure]:
    """No two operations over intersecting flow space overlap in time."""
    ops = sorted(
        _collect_ops(entries).values(), key=lambda op: op.started_ms
    )
    failures: List[PropertyFailure] = []
    for index, first in enumerate(ops):
        for second in ops[index + 1:]:
            if first.filter is None or second.filter is None:
                continue
            if _same_chain(first, second):
                continue
            if not first.filter.intersects(second.filter):
                continue
            first_end = first.ended_ms
            if first_end is None:
                first_end = float("inf")
            if second.started_ms < first_end and (
                second.ended_ms is None
                or first.started_ms < second.ended_ms
            ):
                failures.append(PropertyFailure(
                    prop="isolation",
                    trace_id=second.trace_id,
                    op_kind=second.kind,
                    detail=(
                        "%s(#%s) [%.3f, %s] overlaps %s(#%s) [%.3f, %s] "
                        "on intersecting flow space %r ∩ %r"
                        % (
                            second.kind, second.trace_id,
                            second.started_ms, second.ended_ms,
                            first.kind, first.trace_id,
                            first.started_ms, first.ended_ms,
                            second.filter, first.filter,
                        )
                    ),
                ))
    return failures


def check_no_phantom_state(entries) -> List[PropertyFailure]:
    """Nothing is imported that the operation's source never exported."""
    failures: List[PropertyFailure] = []
    for op in _collect_ops(entries).values():
        if op.aborted is not None:
            # An aborted operation's contract is restoration; restore
            # puts re-import at the source and are exempt (matching the
            # state-conservation auditor).
            continue
        if op.kind in _COUNTED_KINDS:
            if not op.import_order_ok:
                failures.append(PropertyFailure(
                    prop="no-phantom-state",
                    trace_id=op.trace_id,
                    op_kind=op.kind,
                    detail="an import ran ahead of any matching export",
                ))
            for chunk_key, count in sorted(op.imports.items()):
                exported = op.exports.get(chunk_key, 0)
                if count > exported:
                    failures.append(PropertyFailure(
                        prop="no-phantom-state",
                        trace_id=op.trace_id,
                        op_kind=op.kind,
                        detail=(
                            "chunk %s/%s imported %d time(s) but exported "
                            "%d" % (chunk_key[0], chunk_key[1], count,
                                    exported)
                        ),
                    ))
        elif op.kind == "share":
            exported = set(op.exports)
            for chunk_key in sorted(set(op.imports) - exported):
                failures.append(PropertyFailure(
                    prop="no-phantom-state",
                    trace_id=op.trace_id,
                    op_kind=op.kind,
                    detail=(
                        "share replicated chunk %s/%s that no instance "
                        "exported" % chunk_key
                    ),
                ))
    return failures


def check_trace_properties(entries) -> List[PropertyFailure]:
    """All trace-only formal properties over one entry stream."""
    return check_isolation(entries) + check_no_phantom_state(entries)


# ------------------------------------------------------------ entry sources


def entries_from_obs(obs) -> List[Tuple[float, str, dict]]:
    """Build the checkers' entry stream from a live run's exporter.

    Identical payloads to what :func:`repro.obs.load_trace_entries`
    yields from a ``.trace.jsonl`` dump, so checkers cannot diverge
    between live and replayed runs.
    """
    entries: List[Tuple[float, str, dict]] = []
    exporter = obs.exporter
    if exporter is None:
        return entries
    for span in exporter.spans:
        payload = span.to_dict()
        entries.append((payload.get("end_ms") or 0.0, "span", payload))
    for record in exporter.records:
        entries.append((record.get("time_ms") or 0.0, "record", record))
    entries.sort(key=lambda item: item[0])
    return entries


def write_trace_file(obs, path: str) -> int:
    """Dump a run's spans/records as a replayable ``.trace.jsonl``."""
    import json

    count = 0
    with open(path, "w") as handle:
        for time_ms, kind, payload in entries_from_obs(obs):
            handle.write(json.dumps(dict(payload, type=kind)) + "\n")
            count += 1
    return count
