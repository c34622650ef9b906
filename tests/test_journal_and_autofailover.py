"""Tests for the control-plane journal and automatic failover."""

import pytest

from repro.apps import FastFailureRecovery
from repro.controller.journal import Journal
from repro.flowspace import Filter, FiveTuple
from repro.harness import LOCAL_NET_FILTER, build_multi_instance_deployment
from repro.nfs.ids import IntrusionDetector
from tests.conftest import make_packet


def feed(dep, count=5):
    for index in range(count):
        flow = FiveTuple("10.0.1.%d" % (index + 1), 30000 + index,
                         "203.0.113.5", 80)
        dep.inject(make_packet(flow, flags=("SYN",)))
    dep.sim.run()


class TestJournal:
    def test_records_operations_and_events(self):
        dep, (a, b) = build_multi_instance_deployment(2)
        journal = Journal.attach(dep.controller)
        feed(dep)
        op = dep.controller.move("inst1", "inst2", LOCAL_NET_FILTER,
                                 guarantee="lf")
        dep.sim.run()
        assert op.done.triggered
        kinds = {entry.kind for entry in journal.entries}
        assert "op-start" in kinds
        assert "op-done" in kinds
        starts = journal.entries_of("op-start")
        assert starts[0].detail == "move"
        done = journal.entries_of("op-done")[0]
        assert "move[loss-free]" in done.data["summary"]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_records_nf_events_with_uids(self, shards):
        dep, (a, b) = build_multi_instance_deployment(
            2, deployment_kwargs={"shards": shards})
        journal = Journal.attach(dep.controller)
        feed(dep)
        dep.controller.move("inst1", "inst2", LOCAL_NET_FILTER,
                            guarantee="lf")
        # Traffic during the move produces events.
        dep.sim.schedule(5.0, lambda: feed(dep, 3))
        dep.sim.run()
        events = journal.entries_of("nf-event")
        assert events
        assert all("uid" in entry.data for entry in events)
        # Every event any shard dispatched is in the journal.
        assert len(events) == dep.controller.events_received

    def test_records_packet_ins_from_every_shard(self):
        dep, _ = build_multi_instance_deployment(
            2, deployment_kwargs={"shards": 2})
        journal = Journal.attach(dep.controller)
        for index in range(8):
            flow = FiveTuple("10.0.2.1", 31000 + index, "203.0.113.5", 80)
            dep.controller.handle_packet_in(make_packet(flow))
        dep.sim.run()
        per_shard = [shard.packet_ins_received
                     for shard in dep.controller.replicas]
        assert all(per_shard), per_shard  # both shards dispatched some
        assert len(journal.entries_of("packet-in")) == 8

    def test_render_and_queries(self):
        dep, _ = build_multi_instance_deployment(2)
        journal = Journal.attach(dep.controller)
        feed(dep)
        dep.controller.copy("inst1", "inst2", Filter.wildcard(), "per")
        dep.sim.run()
        text = journal.render()
        assert "op-start" in text
        assert len(journal.between(0.0, dep.sim.now + 1.0)) == len(journal)

    def test_behaviour_unchanged_by_journaling(self):
        plain_dep, (pa, pb) = build_multi_instance_deployment(2)
        feed(plain_dep)
        plain = plain_dep.controller.move("inst1", "inst2",
                                          LOCAL_NET_FILTER, guarantee="lf")
        plain_dep.sim.run()

        from repro.net.packet import reset_uid_counter

        reset_uid_counter()
        journaled_dep, (ja, jb) = build_multi_instance_deployment(2)
        Journal.attach(journaled_dep.controller)
        feed(journaled_dep)
        journaled = journaled_dep.controller.move(
            "inst1", "inst2", LOCAL_NET_FILTER, guarantee="lf"
        )
        journaled_dep.sim.run()
        assert (plain.done.value.duration_ms
                == journaled.done.value.duration_ms)


class TestAutoFailover:
    def test_watch_detects_failure_and_redirects(self):
        dep, (norm, stby) = build_multi_instance_deployment(
            2, nf_factory=lambda s, n: IntrusionDetector(s, n)
        )
        app = FastFailureRecovery(dep.controller, health_poll_ms=20.0)
        app.init_standby("inst1", "inst2")
        dep.sim.run()
        feed(dep, 3)
        app.watch()  # the health loop keeps the queue alive: use run(until=...)
        # The primary dies; nobody calls recover() manually.
        def kill():
            norm.failed = True
            norm.failure_reason = "injected"
        dep.sim.schedule(50.0, kill)
        dep.sim.run(until=200.0)
        assert app.recoveries == 1
        # New traffic lands at the standby.
        flow = FiveTuple("10.0.1.9", 40000, "203.0.113.5", 80)
        dep.inject(make_packet(flow, flags=("SYN",)))
        dep.sim.run(until=300.0)
        assert stby.packets_processed >= 1
        app.stop()
        dep.sim.run(until=400.0)

    def test_recovery_fires_once(self):
        dep, (norm, stby) = build_multi_instance_deployment(
            2, nf_factory=lambda s, n: IntrusionDetector(s, n)
        )
        app = FastFailureRecovery(dep.controller, health_poll_ms=10.0)
        app.init_standby("inst1", "inst2")
        dep.sim.run()
        app.watch()
        norm.failed = True
        dep.sim.run(until=200.0)
        assert app.recoveries == 1
        app.stop()
        dep.sim.run(until=300.0)
