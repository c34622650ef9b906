"""Per-layer CPU ledger: wrappers installed on ``repro`` from outside.

The traced run of a workload installs a :class:`Ledger` before the
deployment is built. The ledger replaces a fixed list of public entry
points (:data:`ENTRY_POINTS`) with timing wrappers, and wraps
``Simulator.schedule`` so that every scheduled callback runs inside a
timing frame too. A frame's key is the code object it runs: for a
``Process`` step it is the generator's code, so the NF drain loop and
the move-operation steps, which no public call reaches, are charged to
the package that defines them.

Each frame accumulates its call count and its *self* time: its own
duration minus the time of the frames nested in it. Timestamps come
from ``time.perf_counter_ns``, which costs about a quarter of
``time.process_time_ns`` per read; the simulator is one thread, so the
two clocks advance together except while the process is descheduled.

A wrapper costs time the program would not spend. :func:`calibrate`
measures that cost on no-op functions before the run, and the frames
subtract it as they go: ``self_cost_ns`` from the wrapped frame's own
self time, ``parent_cost_ns`` from the frame that called it. What the
ledger could not subtract shows in ``trace.overhead_pct``, the traced
run's CPU over the untraced run's.

The program's layers are its packages (``repro.<layer>``). Garbage
collections are timed through ``gc.callbacks`` and charged to a ``gc``
row of their own. A frame whose code lies outside ``repro`` is
unattributed.
"""

from __future__ import annotations

import gc
import importlib
import os
import sys
import time
import types
from typing import Any, Dict, List, Tuple

#: ``(module, attribute)`` pairs wrapped with a timing frame. A module
#: function is also replaced wherever another ``repro`` module imported
#: it by name (``packet_match_keys`` is used from four modules).
ENTRY_POINTS = (
    ("repro.sim.core", "Simulator.run"),
    ("repro.traffic.generator", "PacketBlueprint.build"),
    ("repro.harness.deployment", "Deployment.inject"),
    ("repro.flowspace.ip", "ip_to_int"),
    ("repro.flowspace.filter", "packet_match_keys"),
    ("repro.flowspace.filter", "Filter.matches_headers"),
    ("repro.flowspace.filter", "Filter.exact_key"),
    ("repro.flowspace.filter", "FlowId.for_flow"),
    ("repro.flowspace.filter", "FlowId.for_host"),
    ("repro.flowspace.fivetuple", "FiveTuple.canonical"),
    ("repro.flowspace.fivetuple", "FiveTuple.headers"),
    ("repro.flowspace.index", "FlowKeyedStore.get"),
    ("repro.flowspace.index", "FlowKeyedStore.__setitem__"),
    ("repro.flowspace.index", "FlowKeyedStore.pop"),
    ("repro.flowspace.index", "FlowKeyedStore.keys_matching"),
    ("repro.net.switch", "Switch.inject"),
    ("repro.net.switch", "Switch.packet_out"),
    ("repro.net.flowtable", "FlowTable.lookup"),
    ("repro.net.link", "Link.send"),
    ("repro.net.channel", "ControlChannel.send"),
    ("repro.net.channel", "ControlChannel.queue_send"),
    ("repro.net.xfsm", "XFSMInstance.on_packet"),
    ("repro.nf.base", "NetworkFunction.receive"),
    ("repro.nfs.monitor.prads", "AssetMonitor.process_packet"),
    ("repro.nfs.monitor.prads", "AssetMonitor.export_chunk"),
    ("repro.nfs.monitor.prads", "AssetMonitor.import_chunk"),
    ("repro.controller.controller", "OpenNFController.move"),
    ("repro.controller.controller", "OpenNFController.handle_nf_event"),
    ("repro.controller.controller", "OpenNFController.handle_packet_in"),
    ("repro.controller.sharding", "ShardedControlPlane.move"),
    ("repro.controller.sharding", "ShardedControlPlane.handle_nf_event"),
    ("repro.controller.sharding", "ShardedControlPlane.handle_packet_in"),
    ("repro.obs.span", "Tracer.span"),
    ("repro.obs.span", "Tracer.record"),
    ("repro.obs.span", "Span.finish"),
    ("repro.obs.audit", "AuditPipeline.on_span"),
    ("repro.obs.audit", "AuditPipeline.on_record"),
    ("repro.obs.recorder", "FlightRecorder.on_span"),
    ("repro.obs.recorder", "FlightRecorder.on_record"),
    ("repro.obs.sampling", "TraceSampler.export_span"),
    ("repro.obs.sampling", "TraceSampler.export_record"),
    ("repro.obs.timeseries", "TimeSeries.record"),
)

#: Classes whose instances the ledger keeps, to read their counters
#: after the run (switch state machines are removed when a move ends).
WATCHED = (("repro.net.xfsm", "XFSMInstance"),)

UNATTRIBUTED = "unattributed"


def _resolve(module: str, attribute: str) -> Tuple[Any, str, Any]:
    """``(owner, name, raw)``: where the attribute lives and its value."""
    owner: Any = importlib.import_module(module)
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(
        owner, name)
    return owner, name, raw


def _module_of_file(filename: str, src: str) -> str:
    """Dotted module name for a source file under ``src``, else ''."""
    path = os.path.abspath(filename)
    if not path.startswith(src + os.sep):
        return ""
    rel = os.path.splitext(os.path.relpath(path, src))[0]
    return rel.replace(os.sep, ".")


def layer_of(module: str) -> str:
    """The ``repro`` package a module belongs to (its layer)."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    if module == "gc":
        return "gc"
    return UNATTRIBUTED


class Ledger:
    """Timing frames around entry points and scheduled callbacks."""

    def __init__(self, src: str, self_cost_ns: float = 0.0,
                 parent_cost_ns: float = 0.0,
                 callback_self_cost_ns: float = 0.0,
                 callback_parent_cost_ns: float = 0.0,
                 schedule_cost_ns: float = 0.0) -> None:
        self.src = os.path.abspath(src)
        self.self_cost_ns = self_cost_ns
        self.parent_cost_ns = parent_cost_ns
        self.callback_self_cost_ns = callback_self_cost_ns
        self.callback_parent_cost_ns = callback_parent_cost_ns
        self.schedule_cost_ns = schedule_cost_ns
        #: Child-time accumulators of the open frames; the bottom entry
        #: collects time spent in frames opened outside any other frame.
        self.stack: List[float] = [0]
        #: key -> [calls, self_ns]. An entry point's key is its code
        #: object; a scheduled callback's is ``("callback", code)`` (or a
        #: builtin's name), so every closure made from one ``def`` shares
        #: a row.
        self.stats: Dict[Any, List[float]] = {}
        self.names: Dict[Any, Tuple[str, str]] = {}
        #: ``Simulator.schedule`` calls since the last reset (a one-item
        #: list, so the patched method updates it without an attribute
        #: lookup).
        self.scheduled = [0]
        #: The wrapper functions, so a wrapped entry point handed to
        #: ``schedule`` is not framed twice.
        self._frames = set()
        self.watched: Dict[str, list] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        from repro.sim.process import Process

        self._step_code = Process._step.__code__
        self._gc_row = self._row(("gc",), "gc", "gc.collect")
        self._gc_started = 0

    # ------------------------------------------------------------- frames

    def _row(self, key: Any, module: str, qualname: str) -> List[float]:
        row = self.stats.get(key)
        if row is None:
            row = self.stats[key] = [0, 0]
            self.names[key] = (module, qualname)
        return row

    def _calls(self, callbacks: bool) -> int:
        """Calls through callback frames, or through entry-point frames."""
        if callbacks:
            return sum(row[0] for key, row in self.stats.items()
                       if isinstance(key, tuple) and key[0] == "callback")
        return sum(row[0] for key, row in self.stats.items()
                   if not isinstance(key, tuple))

    def wrap(self, fn):
        """A timing frame around ``fn``, keyed by ``fn``'s code."""
        code = fn.__code__
        row = self._row(code, fn.__module__, fn.__qualname__)
        stack = self.stack
        clock = time.perf_counter_ns
        self_cost = self.self_cost_ns
        parent_cost = self.parent_cost_ns

        def frame(*args, **kwargs):
            stack.append(0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                row[0] += 1
                row[1] += elapsed - stack.pop() - self_cost
                stack[-1] += elapsed + parent_cost

        frame.__wrapped__ = fn
        frame.__name__ = fn.__name__
        frame.__qualname__ = fn.__qualname__
        self._frames.add(frame)
        return frame

    def _callback_row(self, callback, code) -> List[float]:
        """The stats row a scheduled callback is charged to."""
        if code is None:
            name = getattr(callback, "__qualname__", type(callback).__name__)
            return self._row(("callback", name),
                             getattr(callback, "__module__", "") or "", name)
        module = _module_of_file(code.co_filename, self.src)
        return self._row(("callback", code), module, code.co_qualname)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Patch every entry point and ``Simulator.schedule``."""
        from repro.sim.core import Simulator

        for module, attribute in ENTRY_POINTS:
            owner, name, raw = _resolve(module, attribute)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self.wrap(raw.__func__))
            else:
                wrapped = self.wrap(raw)
            self._patch(owner, name, wrapped)
            if not isinstance(owner, type):
                self._patch_imports(raw, wrapped)
        for module, cls_name in WATCHED:
            self._watch(getattr(importlib.import_module(module), cls_name))
        self._patch_schedule(Simulator)
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, _info) -> None:
        """Charge each garbage collection to a ``gc`` row, not to the
        frame whose allocation happened to trigger it."""
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
            return
        elapsed = time.perf_counter_ns() - self._gc_started
        self._gc_row[0] += 1
        self._gc_row[1] += elapsed
        self.stack[-1] += elapsed

    def _patch(self, owner, name: str, value) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else \
            getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, value)

    def _patch_imports(self, original, wrapped) -> None:
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro.") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapped)

    def _watch(self, cls) -> None:
        instances = self.watched.setdefault(cls.__name__, [])
        init = cls.__init__

        def watched_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        self._patch(cls, "__init__", watched_init)

    def callback_frame(self):
        """``run_frame(callback, row, *args)``: a frame around a callback."""
        stack = self.stack
        clock = time.perf_counter_ns
        self_cost = self.callback_self_cost_ns
        parent_cost = self.callback_parent_cost_ns

        def run_frame(callback, row, *args):
            stack.append(0)
            started = clock()
            try:
                callback(*args)
            finally:
                elapsed = clock() - started
                row[0] += 1
                row[1] += elapsed - stack.pop() - self_cost
                stack[-1] += elapsed + parent_cost

        return run_frame

    def _patch_schedule(self, simulator_cls) -> None:
        original = simulator_cls.schedule
        stack = self.stack
        schedule_cost = self.schedule_cost_ns
        callback_row = self._callback_row
        run_frame = self.callback_frame()
        frames = self._frames
        rows: Dict[Any, List[float]] = {}
        step_code = self._step_code
        method = types.MethodType
        scheduled = self.scheduled

        def schedule(sim, delay, callback, *args):
            scheduled[0] += 1
            stack[-1] += schedule_cost
            fn = callback.__func__ if type(callback) is method else callback
            if fn in frames:
                return original(sim, delay, callback, *args)
            code = getattr(fn, "__code__", None)
            if code is step_code:
                code = callback.__self__._generator.gi_code
            row = rows.get(code)
            if row is None:
                row = callback_row(callback, code)
                if code is not None:
                    rows[code] = row
            return original(sim, delay, run_frame, callback, row, *args)

        self._patch(simulator_cls, "schedule", schedule)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        """Zero every counter (call right before the measured loop)."""
        for row in self.stats.values():
            row[0] = 0
            row[1] = 0
        self.stack[:] = [0]
        self.scheduled[0] = 0

    # ------------------------------------------------------------- report

    def rows(self) -> List[Dict[str, Any]]:
        """One row per frame key that ran: module, name, layer, cost."""
        out = []
        for key, (calls, self_ns) in self.stats.items():
            if not calls:
                continue
            module, qualname = self.names[key]
            out.append({"module": module, "name": qualname,
                        "layer": layer_of(module), "calls": calls,
                        "self_ns": self_ns})
        out.sort(key=lambda row: -row["self_ns"])
        return out

    def overhead_ns(self) -> float:
        """The wrapper cost subtracted from the frames' self times."""
        return (self._calls(False) * (self.self_cost_ns
                                      + self.parent_cost_ns)
                + self._calls(True) * (self.callback_self_cost_ns
                                       + self.callback_parent_cost_ns)
                + self.scheduled[0] * self.schedule_cost_ns)


def _noop(*_args) -> None:
    return None


def _per_call(run, calls: int) -> float:
    clock = time.perf_counter_ns
    started = clock()
    run()
    return (clock() - started) / calls


def calibrate(src: str, calls: int = 20_000, rounds: int = 7) -> Dict:
    """Per-call wrapper costs in ns.

    A frame's ``self`` cost is what a frame around a no-op reports
    beyond the no-op's own call; its ``parent`` cost is the rest of the
    extra time its caller sees. Callback frames are measured inside a
    real event loop, against the same loop without the ledger.
    ``schedule_cost_ns`` is the extra time of the patched
    ``Simulator.schedule`` over the original.

    Each timing is taken ``rounds`` times and the fastest is kept: on a
    shared machine other load only ever adds time, and the costs are
    differences of timings taken moments apart.
    """
    from repro.sim.core import Simulator

    def call_plain() -> None:
        for _ in range(calls):
            _noop()

    def loaded(schedule) -> Simulator:
        sim = Simulator()
        for _ in range(calls):
            schedule(sim, 1.0, _noop)
        return sim

    timings: Dict[str, List[float]] = {}

    def keep(name: str, value: float) -> None:
        timings.setdefault(name, []).append(value)

    for _ in range(rounds):
        probe = Ledger(src)
        wrapped = probe.wrap(_noop)

        def call_wrapped() -> None:
            for _ in range(calls):
                wrapped()

        keep("plain", _per_call(call_plain, calls))
        keep("wrapped", _per_call(call_wrapped, calls))
        keep("wrapped_self", probe.stats[_noop.__code__][1] / calls)

        plain_sim = loaded(Simulator.schedule)
        keep("plain_schedule",
             _per_call(lambda: loaded(Simulator.schedule), calls))
        keep("plain_loop", _per_call(plain_sim.run, calls))
        probe._patch_schedule(Simulator)
        try:
            traced_sim = loaded(Simulator.schedule)
            keep("traced_schedule",
                 _per_call(lambda: loaded(Simulator.schedule), calls))
        finally:
            probe.uninstall()
        keep("traced_loop", _per_call(traced_sim.run, calls))
        keep("callback_self",
             probe.stats[("callback", _noop.__code__)][1] / calls)

    fastest = {name: min(values) for name, values in timings.items()}
    plain = fastest["plain"]
    self_cost = max(0.0, fastest["wrapped_self"] - plain)
    callback_self = max(0.0, fastest["callback_self"] - plain)
    return {
        "self_cost_ns": self_cost,
        "parent_cost_ns": max(0.0, fastest["wrapped"] - plain - self_cost),
        "callback_self_cost_ns": callback_self,
        "callback_parent_cost_ns": max(0.0, fastest["traced_loop"]
                                       - fastest["plain_loop"]
                                       - callback_self),
        "schedule_cost_ns": max(0.0, fastest["traced_schedule"]
                                - fastest["plain_schedule"]),
    }
