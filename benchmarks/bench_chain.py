"""Chain-wide reconfiguration vs. naive per-NF migration.

The old northbound can only reconfigure a chain one ``move()`` at a
time, and each per-instance move installs forwarding rules that know
only their own destination — for the duration of the sequence the other
hops are starved and packets cross a half-migrated chain. The chain
northbound (``move_chain``) migrates hops tail-to-head under one
admission reservation, with every rule carrying the full chain action
list.

This benchmark replays the same trace through the same 3-hop
IDS -> NAT -> proxy chain twice: once reconfigured with one loss-free
``move_chain``, once with the naive sequence of three per-NF ``move``
calls. It measures end-to-end traversal coverage (what fraction of
delivered packets crossed *every* hop) and reconfiguration latency, and
asserts the chain op is perfectly clean while the naive sequence is
demonstrably dirty.

Writes ``benchmarks/results/BENCH_chain.json`` (gated by
``check_regression.py``: the simulated ``*_ms`` keys and counts must
equal the baseline) and a
human-readable table. Runs standalone (``python
benchmarks/bench_chain.py``) or under pytest.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from repro.harness import Deployment, LOCAL_NET_FILTER, check_chain_loss_free
from repro.net.packet import reset_uid_counter
from repro.nfs.ids import IntrusionDetector
from repro.nfs.nat import NetworkAddressTranslator
from repro.nfs.proxy import CachingProxy
from repro.traffic.replay import TraceReplayer
from repro.traffic.traces import TraceConfig, build_university_cloud_trace

from common import RESULTS_DIR, format_table, publish

HOPS = [
    ("ids", IntrusionDetector, ("i1", "i2")),
    ("nat", NetworkAddressTranslator, ("n1", "n2")),
    ("proxy", CachingProxy, ("p1", "p2")),
]
N_FLOWS = 40
DATA_PACKETS = 10
RATE_PPS = 2500.0
TRACE_SEED = 5


def build(shards: int = 1):
    """The 3-hop chain deployment with a mid-trace kickoff slot."""
    reset_uid_counter()
    dep = Deployment(audit=True, shards=shards)
    nfs_by_hop = []
    for hop_name, factory, names in HOPS:
        members = []
        for name in names:
            nf = factory(dep.sim, name)
            dep.add_nf(nf)
            members.append(nf)
        nfs_by_hop.append((hop_name, members))
    chain = dep.chain(
        "edge", [(hop, names) for hop, _, names in HOPS],
        flt=LOCAL_NET_FILTER,
    )
    trace = build_university_cloud_trace(TraceConfig(
        seed=TRACE_SEED, n_flows=N_FLOWS, data_packets=DATA_PACKETS,
    ))
    replayer = TraceReplayer(dep.sim, dep.inject, trace.packets,
                             rate_pps=RATE_PPS)
    replayer.start()
    return dep, chain, nfs_by_hop, replayer


def delivered_uids(dep, nfs_by_hop):
    """Uids the switch forwarded towards at least one chain instance."""
    ports = {nf.name for _, members in nfs_by_hop for nf in members}
    uids = set()
    for _time, uid, actions in dep.switch.forward_log:
        if any(action in ports for action in actions):
            uids.add(uid)
    return uids


def traversal_stats(dep, nfs_by_hop):
    """(delivered, incomplete): packets that missed at least one hop."""
    delivered = delivered_uids(dep, nfs_by_hop)
    per_hop = []
    for _hop, members in nfs_by_hop:
        seen = set()
        for nf in members:
            seen.update(uid for _time, uid in nf.processing_log)
        per_hop.append(seen)
    crossed_all = set.intersection(*per_hop)
    incomplete = len(delivered - crossed_all)
    return len(delivered), incomplete


def run_chain_move(shards: int = 1) -> dict:
    """One loss-free ``move_chain`` migrating every hop mid-trace."""
    dep, chain, nfs_by_hop, replayer = build(shards=shards)
    holder = {}

    def kickoff():
        holder["op"] = dep.controller.move_chain(
            chain, LOCAL_NET_FILTER,
            {"ids": "i2", "nat": "n2", "proxy": "p2"},
            guarantee="lf",
        )

    dep.sim.schedule(replayer.duration_ms / 2.0, kickoff)
    dep.sim.run()
    report = holder["op"].done.value
    assert report.aborted is None, report.aborted
    ok, detail = check_chain_loss_free(dep.switch, nfs_by_hop)
    assert ok, detail
    assert dep.obs.violations() == [], dep.obs.violations()[:3]
    delivered, incomplete = traversal_stats(dep, nfs_by_hop)
    return {
        "move_ms": round(report.duration_ms, 3),
        "delivered_packets": delivered,
        "incomplete_traversals": incomplete,
        "coverage_pct": round(100.0 * (delivered - incomplete)
                              / delivered, 2),
    }


def run_naive_sequential() -> dict:
    """The same reconfiguration as three plain per-NF moves.

    Fired together, admission serializes them FIFO over the shared
    filter — the closest an operator gets with the per-NF northbound.
    Each move's rules route the chain filter to its own destination
    only, starving the other hops while it runs and leaving the last
    mover as the sole recipient afterwards.
    """
    dep, chain, nfs_by_hop, replayer = build()
    moves = []
    kickoff_holder = {}

    def kickoff():
        kickoff_holder["at"] = dep.sim.now
        for src, dst in (("p1", "p2"), ("n1", "n2"), ("i1", "i2")):
            moves.append(dep.controller.move(
                src, dst, LOCAL_NET_FILTER, scope="per", guarantee="lf",
            ))

    dep.sim.schedule(replayer.duration_ms / 2.0, kickoff)
    dep.sim.run()
    reports = [move.done.value for move in moves]
    assert all(r.aborted is None for r in reports)
    makespan = max(r.finished_at for r in reports) - kickoff_holder["at"]
    delivered, incomplete = traversal_stats(dep, nfs_by_hop)
    return {
        "sequential_ms": round(makespan, 3),
        "delivered_packets": delivered,
        "incomplete_traversals": incomplete,
        "coverage_pct": round(100.0 * (delivered - incomplete)
                              / delivered, 2),
    }


def run_chain_bench() -> dict:
    chain_1 = run_chain_move(shards=1)
    chain_2 = run_chain_move(shards=2)
    naive = run_naive_sequential()
    results = {
        "n_flows": N_FLOWS,
        "data_packets": DATA_PACKETS,
        "rate_pps": RATE_PPS,
        "chain_move_ms": chain_1["move_ms"],
        "chain_incomplete_traversals": chain_1["incomplete_traversals"],
        "chain_coverage_pct": chain_1["coverage_pct"],
        "chain_shards2_move_ms": chain_2["move_ms"],
        "chain_shards2_incomplete_traversals":
            chain_2["incomplete_traversals"],
        "naive_sequential_ms": naive["sequential_ms"],
        "naive_incomplete_traversals": naive["incomplete_traversals"],
        "naive_coverage_pct": naive["coverage_pct"],
    }
    # The acceptance gate: the chain op is perfectly clean while the
    # naive per-NF sequence demonstrably breaks chain-output
    # equivalence on the same trace.
    assert results["chain_incomplete_traversals"] == 0, results
    assert results["chain_shards2_incomplete_traversals"] == 0, results
    assert results["naive_incomplete_traversals"] > 0, results
    return results


def write_results(results: dict) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_chain.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    rows = [
        ["move_chain (lf)", "%.1f" % results["chain_move_ms"],
         "%d" % results["chain_incomplete_traversals"],
         "%.1f" % results["chain_coverage_pct"]],
        ["move_chain, 2 shards", "%.1f" % results["chain_shards2_move_ms"],
         "%d" % results["chain_shards2_incomplete_traversals"], "100.0"],
        ["naive 3x move (lf)", "%.1f" % results["naive_sequential_ms"],
         "%d" % results["naive_incomplete_traversals"],
         "%.1f" % results["naive_coverage_pct"]],
    ]
    publish(
        "chain_operations",
        format_table(
            "Chain reconfiguration — 3-hop IDS->NAT->proxy, %d flows "
            "@ %.0f pps" % (N_FLOWS, RATE_PPS),
            ["approach", "reconfig ms", "incomplete traversals",
             "coverage %"],
            rows,
        ),
    )
    return path


def test_bench_chain():
    results = run_chain_bench()
    path = write_results(results)
    assert os.path.exists(path)


if __name__ == "__main__":
    results = run_chain_bench()
    path = write_results(results)
    print(json.dumps(results, indent=2, sort_keys=True))
    print("wrote %s" % path)
