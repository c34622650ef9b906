"""Tests for the controller-side southbound RPC client."""

import pytest

from repro.flowspace import Filter, FiveTuple
from repro.nf import EventAction, NFClient, Scope
from repro.nfs.monitor import AssetMonitor
from repro.sim import Simulator
from tests.conftest import make_packet


@pytest.fixture
def wired(sim):
    nf = AssetMonitor(sim, "mon")
    client = NFClient(sim, nf)
    return sim, nf, client


def feed_flows(sim, nf, count=3):
    tuples = []
    for i in range(count):
        five_tuple = FiveTuple("10.0.1.%d" % (i + 1), 1000 + i, "203.0.113.5", 80)
        tuples.append(five_tuple)
        nf.receive(make_packet(five_tuple, flags=("SYN",), payload="GET /"))
    sim.run()
    return tuples


class TestGetPut:
    def test_get_perflow_returns_chunks_after_delay(self, wired):
        sim, nf, client = wired
        feed_flows(sim, nf, 2)
        done = client.get_perflow(Filter.wildcard())
        assert not done.triggered  # requires simulated time
        sim.run()
        chunks = done.value
        assert len(chunks) == 2
        assert all(c.scope is Scope.PERFLOW for c in chunks)
        assert sim.now > 0

    def test_get_with_stream_delivers_incrementally(self, wired):
        sim, nf, client = wired
        feed_flows(sim, nf, 3)
        streamed = []
        done = client.get_perflow(Filter.wildcard(),
                                  stream_frame=streamed.extend)
        sim.run()
        assert len(streamed) == 3
        assert len(done.value) == 3

    def test_get_respects_filter(self, wired):
        sim, nf, client = wired
        feed_flows(sim, nf, 3)
        done = client.get_perflow(Filter({"nw_src": "10.0.1.2"}, symmetric=True))
        sim.run()
        assert len(done.value) == 1

    def test_put_perflow_installs_state(self, sim):
        src = AssetMonitor(sim, "src")
        dst = AssetMonitor(sim, "dst")
        src_client = NFClient(sim, src)
        dst_client = NFClient(sim, dst)
        feed_flows(sim, src, 2)
        got = src_client.get_perflow(Filter.wildcard())
        sim.run()
        put = dst_client.put_perflow(got.value)
        sim.run()
        assert put.triggered
        assert dst.conn_count() == 2

    def test_del_perflow_removes(self, wired):
        sim, nf, client = wired
        feed_flows(sim, nf, 2)
        got = client.get_perflow(Filter.wildcard())
        sim.run()
        removed = client.del_perflow([c.flowid for c in got.value])
        sim.run()
        assert removed.value == 2
        assert nf.conn_count() == 0

    def test_get_multiflow_and_allflows(self, wired):
        sim, nf, client = wired
        feed_flows(sim, nf, 2)
        multi = client.get_multiflow(Filter({"nw_src": "10.0.0.0/8"}, symmetric=True))
        allf = client.get_allflows()
        sim.run()
        assert len(multi.value) == 2  # two local client assets
        assert len(allf.value) == 1
        assert allf.value[0].data["stats"]["flows"] == 2

    def test_list_flowids(self, wired):
        sim, nf, client = wired
        feed_flows(sim, nf, 3)
        done = client.list_flowids(Scope.PERFLOW, Filter.wildcard())
        sim.run()
        assert len(done.value) == 3

    def test_bigger_transfers_take_longer(self, sim):
        nf_small = AssetMonitor(sim, "s")
        nf_big = AssetMonitor(sim, "b")
        small_client = NFClient(sim, nf_small)
        big_client = NFClient(sim, nf_big)
        feed_flows(sim, nf_small, 1)
        for i in range(30):
            five_tuple = FiveTuple("10.0.2.%d" % (i + 1), 2000 + i, "203.0.113.6", 80)
            nf_big.receive(make_packet(five_tuple, flags=("SYN",)))
        sim.run()
        small_done = small_client.get_perflow(Filter.wildcard())
        big_done = big_client.get_perflow(Filter.wildcard())
        sim.run()
        small_cost = sum(
            nf_small.costs.serialize_ms(c.size_bytes) for c in small_done.value
        )
        big_cost = sum(
            nf_big.costs.serialize_ms(c.size_bytes) for c in big_done.value
        )
        assert big_cost > small_cost


class TestEventsRpc:
    def test_enable_events_round_trip(self, wired):
        sim, nf, client = wired
        done = client.enable_events(Filter.wildcard(), EventAction.DROP)
        assert nf.event_rule_count == 0  # not yet delivered
        sim.run()
        assert done.triggered
        assert nf.event_rule_count == 1

    def test_disable_events_round_trip(self, wired):
        sim, nf, client = wired
        client.enable_events(Filter.wildcard(), EventAction.BUFFER)
        sim.run()
        done = client.disable_events(Filter.wildcard())
        sim.run()
        assert done.triggered
        assert nf.event_rule_count == 0

    def test_disable_events_covered_round_trip(self, wired):
        sim, nf, client = wired
        client.enable_events(Filter({"nw_src": "10.0.1.1"}), EventAction.DROP)
        client.enable_events(Filter({"nw_src": "10.0.1.2"}), EventAction.DROP)
        sim.run()
        client.disable_events_covered(Filter({"nw_src": "10.0.0.0/8"}))
        sim.run()
        assert nf.event_rule_count == 0

    def test_silent_flag_propagates(self, wired, flow):
        sim, nf, client = wired
        client.enable_events(Filter.wildcard(), EventAction.DROP, silent=True)
        sim.run()
        nf.receive(make_packet(flow))
        sim.run()
        assert nf.packets_dropped_silent == 1
