"""FlowKey: one interned identity per flow direction, used by every layer.

Differential properties over random 5-tuples, filters and orientations:
every FlowKey-based answer — filter matching, the flow table's buckets,
the NF event-rule index, ``FlowKeyedStore.keys_matching`` and the shard
map — must equal the header-dict oracle's (``tests/oracles``), and shard
placement must equal that of the tuple key the shard map used to fold.
A final test runs two deployments one after the other over the same
trace objects and requires identical timelines: the per-flow caches on
the keys must not carry anything from one run into the next.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Deployment, Guarantee
from repro.controller.sharding import ShardMap, _fold
from repro.flowspace import Filter, FiveTuple, FlowId, FlowKey, ip_to_int
from repro.flowspace.index import FlowKeyedStore
from repro.net import FlowTable, Packet
from repro.net.packet import reset_uid_counter
from repro.nf.events import EventAction
from repro.nfs.dummy import DummyNF
from repro.nfs.monitor import AssetMonitor
from repro.obs import SamplingPolicy
from repro.sim import Simulator
from repro.traffic.replay import TraceReplayer
from repro.traffic.traces import TraceConfig, build_university_cloud_trace
from tests.oracles import (
    linear_keys_matching,
    linear_lookup,
    linear_match_rule,
)
from tests.test_timeline_golden import timeline_digest

#: A small address and port pool so random tuples, filters and packets
#: collide often; a few arbitrary values keep the edges covered.
IPS = st.one_of(
    st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.1.7", "10.0.1.9",
                     "203.0.113.5", "0.0.0.0", "255.255.255.255"]),
    st.integers(0, 2 ** 32 - 1).map(
        lambda v: "%d.%d.%d.%d" % (v >> 24, (v >> 16) & 255,
                                   (v >> 8) & 255, v & 255)),
)
PORTS = st.one_of(st.sampled_from([0, 80, 443, 1234, 65535]),
                  st.integers(0, 65535))
PROTOS = st.sampled_from([6, 17, 1])
PREFIXES = st.sampled_from(["10.0.0.0/8", "10.0.1.0/29", "10.0.1.8/29",
                            "203.0.113.0/24", "0.0.0.0/0", "10.0.0.1",
                            "10.0.0.2/32"])
FLAGS = st.frozensets(st.sampled_from(["SYN", "ACK", "FIN", "RST"]))

five_tuples = st.builds(FiveTuple, IPS, PORTS, IPS, PORTS, PROTOS)


@st.composite
def packets(draw):
    five_tuple = draw(five_tuples)
    if draw(st.booleans()):
        five_tuple = five_tuple.reversed()
    extra = draw(st.sampled_from([None, {"http_url": "/x"}]))
    return Packet(five_tuple, tcp_flags=tuple(sorted(draw(FLAGS))),
                  extra_headers=extra)


@st.composite
def filters(draw, pool=None):
    """Every filter shape the data plane sees, exact ones drawn from
    ``pool`` (when given) so they hit the packets drawn from it."""
    symmetric = draw(st.booleans())
    kind = draw(st.integers(0, 7))
    if kind == 0:
        return Filter({}, symmetric=symmetric)
    if kind == 1:
        field = draw(st.sampled_from(["nw_src", "nw_dst"]))
        return Filter({field: draw(PREFIXES)}, symmetric=symmetric)
    if kind == 2:
        field = draw(st.sampled_from(["tp_src", "tp_dst", "nw_proto"]))
        value = draw(PROTOS if field == "nw_proto" else PORTS)
        return Filter({field: value}, symmetric=symmetric)
    if kind == 3:
        return Filter({"tcp_flags": draw(FLAGS), "nw_src": draw(PREFIXES)},
                      symmetric=symmetric)
    if kind == 4:
        return Filter({"http_url": "/x", "nw_proto": 6}, symmetric=symmetric)
    five_tuple = draw(st.sampled_from(pool) if pool else five_tuples)
    if draw(st.booleans()):
        five_tuple = five_tuple.reversed()
    fields = five_tuple.headers()
    if kind == 5:
        fields["nw_src"] += "/32"
    return Filter(fields, symmetric=symmetric)


@st.composite
def scenarios(draw):
    """A pool of flows, filters over it, and packets drawn from it."""
    pool = draw(st.lists(five_tuples, min_size=1, max_size=6))
    rules = draw(st.lists(filters(pool), min_size=1, max_size=25))
    probes = []
    for _ in range(draw(st.integers(1, 12))):
        five_tuple = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            five_tuple = five_tuple.reversed()
        probes.append(Packet(five_tuple,
                             tcp_flags=tuple(sorted(draw(FLAGS)))))
    return pool, rules, probes


def old_shard(headers, n_shards):
    """Shard placement as the tuple-keyed shard map computed it."""
    left = (ip_to_int(headers["nw_src"]), headers["tp_src"])
    right = (ip_to_int(headers["nw_dst"]), headers["tp_dst"])
    if right < left:
        left, right = right, left
    return _fold(headers["nw_proto"], left[0], left[1], right[0],
                 right[1]) % n_shards


class TestKeyMatchesHeaderOracle:
    @settings(max_examples=300)
    @given(filters(), packets())
    def test_filter_verdicts_agree(self, flt, packet):
        headers = packet.headers()
        assert flt.matches_packet(packet) == flt.matches_headers(headers)
        tuple_headers = packet.five_tuple.headers()
        assert flt.matches_key(packet.key) == \
            flt.matches_headers(tuple_headers)

    @settings(max_examples=200)
    @given(five_tuples)
    def test_key_is_shared_by_both_directions(self, five_tuple):
        back = five_tuple.reversed()
        assert back.reversed() == five_tuple
        assert five_tuple.canonical() is back.canonical()
        assert five_tuple.key.symmetric == back.key.symmetric
        assert (five_tuple.key.oriented == back.key.oriented) == \
            (five_tuple == back)
        canonical = five_tuple.canonical()
        name = Packet(five_tuple).flow_key()
        assert name == Packet(back).flow_key()
        assert FlowKey.from_name(name) == canonical.key
        assert FlowId.for_flow(canonical) is FlowId.for_flow(
            back.canonical())

    @settings(max_examples=200)
    @given(filters(), packets())
    def test_exact_buckets_are_the_packet_keys(self, flt, packet):
        """An exact filter matches a packet iff the packet's key yields
        the filter's bucket: the property every hash index relies on."""
        bucket = flt.exact_key()
        if bucket is None or packet.extras:
            return
        keys = (packet.key.oriented, packet.key.symmetric)
        assert (bucket in keys) == flt.matches_packet(packet)


class TestIndexesMatchOracles:
    @given(scenarios(), st.lists(st.sampled_from([10, 100, 1000]),
                                 min_size=25, max_size=25))
    def test_flow_table(self, scenario, priorities):
        _pool, rules, probes = scenario
        table = FlowTable()
        for index, (flt, priority) in enumerate(zip(rules, priorities)):
            table.install(flt, priority, ["p%d" % index], float(index))
        for packet in probes:
            assert table.lookup(packet) is linear_lookup(table, packet)

    @given(scenarios())
    def test_event_rules(self, scenario):
        _pool, rules, probes = scenario
        nf = DummyNF(Simulator(), "dut")
        for index, flt in enumerate(rules):
            if index % 5 == 4:
                nf.sb_disable_events(rules[index // 2])
            nf.sb_enable_events(flt, EventAction.PROCESS)
        for packet in probes:
            assert nf._match_rule(packet) is linear_match_rule(nf, packet)

    @given(scenarios(), st.lists(IPS, max_size=4))
    def test_state_store(self, scenario, hosts):
        pool, rules, _probes = scenario
        store = FlowKeyedStore()
        for five_tuple in pool:
            store[FlowId.for_flow(five_tuple.canonical())] = 1
            store[FlowId.for_flow(five_tuple, symmetric=False)] = 2
        for ip in hosts:
            store[FlowId.for_host(ip)] = 3
        for fid in list(store)[::3]:
            del store[fid]
        for relevant in (None, ("nw_src", "nw_dst"),
                         DummyNF.DEFAULT_RELEVANT_FIELDS):
            for flt in rules:
                assert store.keys_matching(flt, relevant) == \
                    linear_keys_matching(store, flt, relevant)

    @given(five_tuples, st.integers(1, 8))
    def test_shard_map_places_flows_as_before(self, five_tuple, n_shards):
        shard_map = ShardMap(n_shards)
        expected = old_shard(five_tuple.headers(), n_shards)
        assert shard_map.shard_for_key(five_tuple.key) == expected
        assert shard_map.shard_for_key(five_tuple.reversed().key) == expected
        assert shard_map.shard_for_headers(five_tuple.headers()) == expected
        for symmetric in (False, True):
            assert shard_map.shard_for_filter(
                Filter.for_flow(five_tuple, symmetric)) == expected


def _sampled_move(trace, seed):
    """A move over ``trace`` with per-flow trace sampling at the source:
    its timeline digest, the records kept, and the gate in use."""
    reset_uid_counter()
    dep = Deployment(sampling=SamplingPolicy(flow_rate=0.5, seed=seed))
    for name in ("inst1", "inst2"):
        dep.add_nf(AssetMonitor(dep.sim, name))
    dep.set_default_route("inst1")
    replayer = TraceReplayer(dep.sim, dep.inject, trace.packets,
                             rate_pps=20_000.0).start()
    ops = []
    dep.sim.schedule(replayer.duration_ms / 2.0, lambda: ops.append(
        dep.controller.move("inst1", "inst2",
                            Filter({"nw_src": "10.0.1.0/28"}, symmetric=True),
                            guarantee=Guarantee.ORDER_PRESERVING)))
    dep.run()
    assert dep.obs.packet_gate is not None
    records = [(r["name"], r.get("uid"), r.get("flow"))
               for r in dep.obs.exporter.records]
    return timeline_digest(dep, [op.report for op in ops]), records


def test_back_to_back_deployments_share_no_interned_state():
    config = TraceConfig(seed=11, n_flows=120, data_packets=3)
    trace = build_university_cloud_trace(config)
    first = _sampled_move(trace, seed=3)
    # Later runs replay the *same* FiveTuple objects, whose keys now hold
    # the earlier runs' flowids, flow names and gate verdicts: a run
    # sampling with another seed must keep its own flows, and a repeat
    # of the first must equal it and a run over a freshly built trace.
    other = _sampled_move(trace, seed=4)
    again = _sampled_move(trace, seed=3)
    fresh = _sampled_move(build_university_cloud_trace(config), seed=3)
    assert first == again == fresh
    assert other[0] == first[0] and other[1] != first[1]
    assert other == _sampled_move(build_university_cloud_trace(config),
                                  seed=4)
