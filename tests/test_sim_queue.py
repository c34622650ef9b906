"""The event queue's contract, pinned against an eager reference.

The production queue keeps only the next step of a series in its heap
and marks cancelled entries in a set; the eager oracle
(:mod:`tests.oracles.eager_queue`) queues everything up front with one
handle per callback. Any mix of ``schedule``, ``schedule_series``,
``cancel`` and interrupted runs must execute the same callbacks in the
same order at the same clock values on both.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Deployment
from repro.nfs.monitor import AssetMonitor
from repro.sim import SimulationError, Simulator
from repro.traffic.replay import TraceReplayer
from repro.traffic.traces import TraceConfig, build_university_cloud_trace
from tests.oracles.eager_queue import EagerSimulator

#: Few distinct values, so equal float times (and ties) are common.
DELAYS = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 1.5])

SCHEDULE = st.tuples(st.just("schedule"), DELAYS,
                     st.one_of(st.none(), DELAYS))
SERIES = st.tuples(st.just("series"), DELAYS,
                   st.sampled_from([0.0, 0.1, 0.25, 1.0 / 3.0]),
                   st.integers(min_value=0, max_value=6))
CANCEL = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=20))
RUN_UNTIL = st.tuples(st.just("run_until"), DELAYS)
RUN_MAX = st.tuples(st.just("run_max"), st.integers(min_value=0, max_value=4))
PROGRAM = st.lists(st.one_of(SCHEDULE, SERIES, CANCEL, RUN_UNTIL, RUN_MAX),
                   max_size=40)


def ramp(start, interval, count):
    """The replay's delays, ``start + i * interval``, yielded lazily."""
    return (start + i * interval for i in range(count))


def execute(sim, program):
    """Drive ``sim`` through ``program``; the log of what ran, and when."""
    log = []
    handles = []

    def fire(label, child_delay):
        log.append((label, sim.now))
        if child_delay is not None:
            handles.append(sim.schedule(child_delay, fire, label + "'", None))

    def step(label):
        log.append((label, sim.now))

    for index, op in enumerate(program):
        kind = op[0]
        if kind == "schedule":
            handles.append(sim.schedule(op[1], fire, "s%d" % index, op[2]))
        elif kind == "series":
            count = op[3]
            sim.schedule_series(ramp(op[1], op[2], count), step,
                                ["q%d.%d" % (index, i) for i in range(count)])
        elif kind == "cancel":
            if handles:
                sim.cancel(handles[op[1] % len(handles)])
        elif kind == "run_until":
            log.append(("run_until", sim.run(until=sim.now + op[1])))
        else:
            log.append(("run_max", sim.run(max_events=op[1]),
                        sim.events_processed))
    log.append(("drained", sim.run(), sim.events_processed))
    return log


@given(PROGRAM)
def test_matches_eager_oracle(program):
    assert execute(Simulator(), program) == execute(EagerSimulator(), program)


class TestSeries:
    def test_empty_series_schedules_nothing(self, sim):
        sim.schedule_series([], print, [])
        assert sim.pending == 0
        assert sim.run() == 0.0

    def test_pending_counts_a_series_once(self, sim):
        sim.schedule_series([1.0, 2.0, 3.0], lambda _item: None, "abc")
        assert sim.pending == 1
        sim.run(max_events=1)
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_reserved_sequence_numbers_order_ties(self, sim):
        seen = []
        sim.schedule_series([0.0, 1.0], seen.append, ["a", "b"])
        sim.schedule(1.0, seen.append, "later")
        sim.schedule(0.0, lambda: sim.schedule(1.0, seen.append, "nested"))
        sim.run()
        assert seen == ["a", "b", "later", "nested"]

    def test_negative_first_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_series([-1.0], print, ["x"])

    def test_decreasing_delays_rejected(self, sim):
        sim.schedule_series([2.0, 1.0], lambda _item: None, "ab")
        with pytest.raises(SimulationError):
            sim.run()


def test_replay_queue_holds_in_flight_work_not_the_trace():
    """A 5k-packet replay never queues more than its in-flight work."""
    trace = build_university_cloud_trace(
        TraceConfig(seed=7, n_flows=725, data_packets=3))
    dep = Deployment(shards=1, batching=None, offload=False, observe=False,
                     telemetry=False)
    dep.add_nf(AssetMonitor(dep.sim, "inst1"))
    dep.set_default_route("inst1")
    replayer = TraceReplayer(dep.sim, dep.inject, trace.packets,
                             rate_pps=50_000.0).start()
    assert len(trace.packets) >= 5000
    longest = 0
    while dep.sim.pending:
        longest = max(longest, len(dep.sim._queue))
        dep.sim.run(max_events=1)
    assert len(replayer.injected) == len(trace.packets)
    # 0.25 ms of link latency at one packet per 0.02 ms is 13 deliveries
    # in flight; the NF drain, the next arrival and the replay's end add
    # a handful more.
    assert longest <= 20
