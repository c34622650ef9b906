"""Figure 12: southbound export/import efficiency (§8.2.1).

Measures ``getPerflow`` and ``putPerflow`` completion time as a function
of the number of flows whose state moves, for iptables, PRADS, and Bro.
Paper shape: both scale linearly in chunk count; put completes at least
2× faster than get; Bro is the most expensive by far (big, complex
per-flow object graphs); iptables is the cheapest.
"""

from __future__ import annotations

import pytest

from repro.flowspace import Filter, FiveTuple
from repro.net.channel import BatchConfig
from repro.nf import NFClient, Scope
from repro.nfs.ids import IntrusionDetector
from repro.nfs.monitor import AssetMonitor
from repro.nfs.nat import NetworkAddressTranslator
from repro.net.packet import Packet
from repro.sim import Simulator
from repro.traffic import http_exchange

from common import format_table, publish, run_once

FLOW_COUNTS = [250, 500, 1000]

NF_FACTORIES = [
    ("iptables", NetworkAddressTranslator),
    ("PRADS", AssetMonitor),
    ("Bro", IntrusionDetector),
]


def populate(sim: Simulator, nf, n_flows: int) -> None:
    """Create per-flow state for ``n_flows`` distinct connections."""
    for index in range(n_flows):
        client = "10.%d.%d.%d" % (index // 62500, (index // 250) % 250 + 1,
                                  index % 250 + 1)
        if isinstance(nf, IntrusionDetector):
            flow = http_exchange(client, 20000 + index % 40000, "203.0.113.5",
                                 reply_body="B" * 600, close=False)
            for blueprint in flow.packets:
                nf.receive(blueprint.build(0.0))
        else:
            five_tuple = FiveTuple(client, 20000 + index % 40000,
                                   "203.0.113.5", 80)
            nf.receive(Packet(five_tuple, tcp_flags=("SYN",)))
            nf.receive(Packet(five_tuple, tcp_flags=("ACK",), payload="pp"))
    sim.run()


def measure(nf_factory, n_flows: int):
    sim = Simulator()
    src = nf_factory(sim, "src")
    dst = nf_factory(sim, "dst")
    populate(sim, src, n_flows)
    client_src = NFClient(sim, src)
    client_dst = NFClient(sim, dst)

    start = sim.now
    got = client_src.get_perflow(Filter.wildcard())
    sim.run()
    get_ms = sim.now - start
    chunks = got.value
    assert len(chunks) == n_flows

    start = sim.now
    client_dst.put_perflow(chunks)
    sim.run()
    put_ms = sim.now - start
    return get_ms, put_ms


def run_figure12():
    results = {}
    for nf_name, factory in NF_FACTORIES:
        for n_flows in FLOW_COUNTS:
            results[(nf_name, n_flows)] = measure(factory, n_flows)
    return results


# ---------------------------------------------------------------- batching

def measure_streamed_get(nf_factory, n_flows: int, batch: bool):
    """Streamed getPerflow: messages on the NF→controller channel.

    Without batching every streamed chunk is one control message; with
    the §8.3 fast path chunks coalesce into multi-chunk frames.
    """
    sim = Simulator()
    src = nf_factory(sim, "src")
    populate(sim, src, n_flows)
    client = NFClient(sim, src,
                      batch=BatchConfig() if batch else None)
    received = []
    finished = {}
    start = sim.now
    done = client.get_perflow(Filter.wildcard(),
                              stream_frame=received.extend)
    # Measure at RPC completion: a trailing (no-op) flush timer would
    # otherwise pad sim.now past the actual transfer.
    done.add_callback(lambda _evt: finished.setdefault("at", sim.now))
    sim.run()
    assert len(received) == n_flows
    return finished["at"] - start, client.from_nf.messages_sent


def run_batching_sweep():
    results = {}
    for nf_name, factory in NF_FACTORIES:
        for n_flows in FLOW_COUNTS:
            off_ms, off_msgs = measure_streamed_get(factory, n_flows, False)
            on_ms, on_msgs = measure_streamed_get(factory, n_flows, True)
            results[(nf_name, n_flows)] = (off_ms, off_msgs, on_ms, on_msgs)
    return results


def test_fig12_southbound_efficiency(benchmark):
    results = run_once(benchmark, run_figure12)

    for panel, index in (("getPerflow", 0), ("putPerflow", 1)):
        rows = [
            [nf_name] + [
                "%.0f" % results[(nf_name, n)][index] for n in FLOW_COUNTS
            ]
            for nf_name, _f in NF_FACTORIES
        ]
        publish(
            "fig12_%s" % panel.lower(),
            format_table(
                "Figure 12 — %s time (simulated ms)" % panel,
                ["NF"] + ["%d flows" % n for n in FLOW_COUNTS],
                rows,
            ),
        )

    for nf_name, _factory in NF_FACTORIES:
        get_250, put_250 = results[(nf_name, 250)]
        get_1000, put_1000 = results[(nf_name, 1000)]
        # Linear-ish growth in chunk count.
        assert 2.5 < get_1000 / get_250 < 5.5
        # Import substantially faster than export ("at least 2x" in the
        # paper's prose; its own §8.1.1 numbers give 89/54 = 1.65x).
        assert put_1000 < get_1000 / 1.5
    # Ordering across NFs: Bro >> PRADS > iptables.
    assert results[("Bro", 1000)][0] > 3 * results[("PRADS", 1000)][0]
    assert results[("PRADS", 1000)][0] > results[("iptables", 1000)][0]


def test_fig12_batching_sweep(benchmark):
    """§8.3 batching: streamed get with coalesced multi-chunk frames."""
    results = run_once(benchmark, run_batching_sweep)

    rows = []
    for nf_name, _factory in NF_FACTORIES:
        for n_flows in FLOW_COUNTS:
            off_ms, off_msgs, on_ms, on_msgs = results[(nf_name, n_flows)]
            rows.append([
                nf_name, n_flows,
                "%.0f" % off_ms, off_msgs,
                "%.0f" % on_ms, on_msgs,
                "%.1fx" % (off_msgs / on_msgs),
            ])
    publish(
        "fig12_batching",
        format_table(
            "§8.3 batching — streamed getPerflow, messages on NF→ctrl "
            "channel",
            ["NF", "flows", "get_ms (off)", "msgs (off)",
             "get_ms (on)", "msgs (on)", "reduction"],
            rows,
        ),
    )

    for (nf_name, n_flows), (off_ms, off_msgs, on_ms, on_msgs) in (
            results.items()):
        # The acceptance bar: at least 2x fewer control messages.
        assert on_msgs * 2 <= off_msgs, (
            "%s @ %d flows: %d batched vs %d unbatched messages"
            % (nf_name, n_flows, on_msgs, off_msgs)
        )
        # Batching must not slow the transfer down.
        assert on_ms <= off_ms * 1.05
