"""The unified northbound operation handle.

Every northbound call — ``move``, ``copy``, ``share`` — used to return
its own concrete type, and a conflicting move returned a private
``_DeferredMove``; callers had to branch on which one they got.
:class:`Operation` is the public protocol they all implement now:

* ``done`` — a :class:`~repro.sim.core.Event` that triggers with the
  :class:`~repro.controller.reports.OperationReport` (or fails with the
  terminal exception);
* ``report`` — the report, or ``None`` until one exists;
* ``guarantee`` — the parsed :class:`~repro.controller.move.Guarantee`
  for moves (a consistency string for shares, ``None`` for copies);
* ``filter`` — the flow-space :class:`~repro.flowspace.filter.Filter`
  the operation covers;
* ``abort()`` — request cooperative cancellation; returns ``done``.

:class:`DeferredOperation` is the public replacement for
``_DeferredMove``: any operation whose filter overlaps an in-flight
operation's flow space is admitted into the same table and handed back
deferred, with the identical handle surface, so callers never need to
know whether their operation started immediately.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.flowspace.filter import Filter
from repro.nf.southbound import SouthboundError
from repro.controller.reports import OperationReport


class OperationAborted(SouthboundError):
    """Raised inside an operation driver at an abort checkpoint.

    Subclassing :class:`SouthboundError` routes the abort through the
    operations' existing crash-recovery paths: a move aborted by its
    caller runs the same restore-to-source logic as a destination
    failure (exported chunks return to the source, events are disabled,
    buffered packets flush back), so ``abort()`` never strands state.
    """


class Operation:
    """Base class / protocol for every northbound operation handle.

    Concrete operations (:class:`~repro.controller.move.MoveOperation`,
    :class:`~repro.controller.copy.CopyOperation`,
    :class:`~repro.controller.share.ShareOperation`) set ``done``,
    ``report``, ``flt``, and ``guarantee`` in their constructors; the
    class attributes here are documentation-grade defaults so partially
    constructed or deferred handles still present the full surface.
    """

    #: "move" / "copy" / "share" / "deferred".
    kind: str = "operation"
    #: Event triggering with the OperationReport on completion.
    done: Any = None
    #: The OperationReport (None until the operation has one).
    report: Optional[OperationReport] = None
    #: Parsed guarantee (moves), consistency string (shares), or None.
    guarantee: Any = None
    #: Flow-space filter the operation covers.
    flt: Optional[Filter] = None
    #: Abort reason once requested (drivers poll via _checkpoint()).
    _abort_requested: Optional[str] = None

    @property
    def filter(self) -> Optional[Filter]:
        return self.flt

    def abort(self, reason: str = "aborted by caller"):
        """Request cooperative cancellation; returns the ``done`` event.

        The operation driver notices at its next checkpoint and unwinds
        through its abort-recovery path; the eventual report carries
        ``aborted``. Aborting an already finished operation is a no-op.
        """
        if self.done is not None and not self.done.triggered:
            if self._abort_requested is None:
                self._abort_requested = reason
        return self.done

    def _abort_target(self) -> str:
        """Which NF the abort should masquerade as losing (overridden)."""
        return ""

    def _checkpoint(self) -> None:
        """Raise :class:`OperationAborted` if an abort was requested."""
        if self._abort_requested is not None:
            raise OperationAborted(
                "aborted: %s" % self._abort_requested, self._abort_target()
            )


class DeferredOperation(Operation):
    """An admitted-but-waiting operation with the full handle surface.

    Created by a shard's admission table when a new operation's filter
    overlaps in-flight flow space. The deferred filter is itself
    *reserved* in the admission table at submission time, so any later
    operation overlapping it queues behind this one — deferral is FIFO
    per overlapping flow space, and a stream of newcomers can no longer
    starve an already-waiting operation by leapfrogging it. Once every
    conflicting operation finishes, the deferred operation re-checks
    admission (excluding its own reservation) and launches; its ``done``
    event then mirrors the live operation's, and the reservation holds
    the flow space continuously from submission through completion.
    """

    kind = "deferred"

    def __init__(
        self,
        shard,
        kind: str,
        flt: Filter,
        conflicts: List[Any],
        start: Callable[[Any], Operation],
        guarantee: Any = None,
    ) -> None:
        self.shard = shard
        self.sim = shard.sim
        self.deferred_kind = kind
        self.flt = flt
        self._start = start
        self._guarantee = guarantee
        self.operation: Optional[Operation] = None
        self._abort_requested = None
        self.done = self.sim.event("deferred-%s-done" % kind)
        # FIFO: reserve our filter NOW. The reservation is released when
        # self.done triggers — after the launched operation completes
        # (its done mirrors into ours) or on abort-while-deferred.
        self._admission_handle = shard.reserve(flt, self.done)
        self._await(conflicts)

    def _await(self, conflicts: List[Any]) -> None:
        if not conflicts:
            self.sim.schedule(0.0, self._launch)
            return
        remaining = {"count": len(conflicts)}

        def on_conflict_done(_evt) -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                self.sim.schedule(0.0, self._launch)

        for done in conflicts:
            done.add_callback(on_conflict_done)

    def _launch(self) -> None:
        if self.done.triggered:  # aborted while waiting
            return
        # Only wait on entries OLDER than our reservation: newer ones
        # are queued behind us (waiting on our done), and waiting on
        # them back would deadlock; our own reservation is newer than
        # nothing, so `before` also excludes it.
        conflicts = self.shard.conflicting(
            self.flt, before=self._admission_handle
        )
        if conflicts:
            self._await(conflicts)
            return
        self._begin()

    def _begin(self) -> None:
        """Flow space is clear: construct and run the real operation.

        No new reservation here: our standing one already covers the
        filter until self.done (mirroring the live operation's done)
        triggers. Overridden by the cross-shard handshake to interpose
        the ownership transfer.
        """
        operation = self._start(self.shard)
        self.operation = operation
        if self._abort_requested is not None:
            operation.abort(self._abort_requested)
        operation.done.add_callback(
            lambda evt: self.done.trigger(evt.value)
            if evt.ok else self.done.fail(evt.exception)
        )

    def abort(self, reason: str = "aborted by caller"):
        if self.operation is not None:
            self.operation.abort(reason)
            return self.done
        if self._abort_requested is None and not self.done.triggered:
            self._abort_requested = reason
            report = OperationReport(
                kind=self.deferred_kind,
                guarantee=self._guarantee,
                filter_repr=repr(self.flt),
                started_at=self.sim.now,
                finished_at=self.sim.now,
                aborted="aborted while deferred: %s" % reason,
            )
            self.report_override = report
            self.done.trigger(report)
        return self.done

    @property
    def report(self) -> Optional[OperationReport]:
        if self.operation is not None:
            return self.operation.report
        return getattr(self, "report_override", None)

    @property
    def guarantee(self) -> Any:
        if self.operation is not None:
            return self.operation.guarantee
        return self._guarantee
