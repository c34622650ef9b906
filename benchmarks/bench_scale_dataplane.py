"""Wall-clock scale benchmark for the indexed data-plane fast path.

Sweeps flow/rule counts through the three hot per-packet paths —
flow-table lookup (via ``Switch.inject``), event-rule matching
(``BaseNF._match_rule``), and per-scope state-key resolution
(``FlowKeyedStore.keys_matching``) — measuring real wall-clock
packets/sec and per-operation latency for the indexed fast path against
the linear reference oracles of ``tests/oracles`` (the same structures
answered by full scans). The oracle runs fewer operations at the large sizes
(per-op latency extrapolates to pps) so the harness stays fast.

Unlike the §8 benchmarks, which report *simulated* milliseconds, this
one reports real time: it is the regression gate for the fast path
itself (≥10× forwarding throughput at 5 000 per-flow rules). Results
land in ``benchmarks/results/BENCH_dataplane.json``.

Runs standalone (``python benchmarks/bench_scale_dataplane.py``) or
under pytest.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.dirname(HERE))

from repro.flowspace import Filter, FiveTuple, FlowId
from repro.flowspace.index import FlowKeyedStore
from repro.net import LOW_PRIORITY, MID_PRIORITY, Link, Packet, Switch
from repro.nf.events import EventAction
from repro.nfs.dummy import DummyNF
from repro.sim import Simulator

from common import RESULTS_DIR, format_table, publish
from tests.oracles import (
    LinearFlowTable,
    linear_keys_matching,
    linear_match_rule,
)

#: Per-flow rule counts to sweep (flows == rules: one rule per flow,
#: the §5.1.3 fine-grained regime).
SIZES = (100, 1000, 5000)

#: Packets to time per (size, strategy). The linear oracle scans every
#: rule per packet, so it gets a budget that shrinks with table size;
#: throughput is computed from per-packet latency either way.
INDEXED_PACKETS = {100: 20_000, 1000: 20_000, 5000: 20_000}
LINEAR_PACKETS = {100: 2_000, 1000: 600, 5000: 200}

SPEEDUP_FLOOR_AT_5K = 10.0


def make_flows(n):
    return [
        FiveTuple(
            "10.%d.%d.%d" % (i // 62500, (i // 250) % 250, 1 + i % 250),
            10_000 + i % 40_000,
            "198.18.0.1",
            80,
        )
        for i in range(n)
    ]


def flow_packets(flows, count):
    """``count`` packets round-robin over ``flows``, half reversed."""
    packets = []
    for i in range(count):
        ft = flows[i % len(flows)]
        packets.append(Packet(ft if i % 2 == 0 else ft.reversed()))
    return packets


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_forwarding(n_rules, indexed):
    """Wall-clock seconds per packet through a loaded switch."""
    flows = make_flows(n_rules)
    sim = Simulator()
    switch = Switch(sim, record_ground_truth=False)
    if not indexed:
        switch.table = LinearFlowTable()
    switch.attach("nf", lambda p: None, Link(sim))
    for ft in flows:
        switch.table.install(
            Filter(ft.headers(), symmetric=True), MID_PRIORITY, ["nf"], 0.0
        )
    switch.table.install(Filter.wildcard(), LOW_PRIORITY, ["nf"], 0.0)
    count = (INDEXED_PACKETS if indexed else LINEAR_PACKETS)[n_rules]
    packets = flow_packets(flows, count)

    def run():
        for packet in packets:
            switch.inject(packet)
        sim.run()

    return _timed(run) / count


def bench_event_rules(n_rules, indexed):
    """Wall-clock seconds per ``_match_rule`` with n per-flow rules."""
    flows = make_flows(n_rules)
    nf = DummyNF(Simulator(), "dut")
    for ft in flows:
        nf.sb_enable_events(
            Filter(ft.headers(), symmetric=True), EventAction.PROCESS
        )
    nf.sb_enable_events(Filter({"nw_src": "203.0.113.0/24"}),
                        EventAction.DROP)
    count = (INDEXED_PACKETS if indexed else LINEAR_PACKETS)[n_rules]
    packets = flow_packets(flows, count)

    if indexed:
        match = nf._match_rule
    else:
        def match(packet):
            return linear_match_rule(nf, packet)

    def run():
        for packet in packets:
            match(packet)

    return _timed(run) / count


def bench_state_keys(n_flows, indexed):
    """Wall-clock seconds per exact-filter ``getPerflow`` key resolution.

    The fine-grained per-flow move resolves one filter per flow; the
    linear store makes that O(flows²) overall — the indexed store keeps
    each resolution O(1).
    """
    flows = make_flows(n_flows)
    store = FlowKeyedStore()
    for ft in flows:
        store[FlowId.for_flow(ft.canonical())] = {"blob": "x"}
    count = min((INDEXED_PACKETS if indexed else LINEAR_PACKETS)[n_flows],
                n_flows if indexed else max(1, 200_000 // n_flows))
    filters = [
        Filter(flows[i % n_flows].headers(), symmetric=True)
        for i in range(count)
    ]

    if indexed:
        keys_matching = store.keys_matching
    else:
        def keys_matching(flt, relevant):
            return linear_keys_matching(store, flt, relevant)

    def run():
        for flt in filters:
            matched = keys_matching(
                flt, ("nw_src", "nw_dst", "nw_proto", "tp_src", "tp_dst"))
            assert len(matched) == 1

    return _timed(run) / count


def sweep(bench):
    rows = []
    for size in SIZES:
        indexed_s = bench(size, True)
        linear_s = bench(size, False)
        rows.append({
            "rules": size,
            "indexed_pps": round(1.0 / indexed_s),
            "linear_pps": round(1.0 / linear_s),
            "indexed_us_per_op": round(indexed_s * 1e6, 3),
            "linear_us_per_op": round(linear_s * 1e6, 3),
            "speedup": round(linear_s / indexed_s, 1),
        })
    return rows


def run_scale() -> dict:
    results = {
        "sizes": list(SIZES),
        "forwarding": sweep(bench_forwarding),
        "event_rules": sweep(bench_event_rules),
        "state_keys": sweep(bench_state_keys),
    }
    at_5k = [r for r in results["forwarding"] if r["rules"] == 5000][0]
    assert at_5k["speedup"] >= SPEEDUP_FLOOR_AT_5K, (
        "fast path regressed: %.1fx < %.1fx at 5k rules"
        % (at_5k["speedup"], SPEEDUP_FLOOR_AT_5K)
    )
    for section in ("forwarding", "event_rules", "state_keys"):
        publish(
            "BENCH_dataplane_%s" % section,
            format_table(
                "Data-plane fast path: %s (wall-clock)" % section,
                ["rules", "indexed pps", "linear pps", "indexed us/op",
                 "linear us/op", "speedup"],
                [[r["rules"], r["indexed_pps"], r["linear_pps"],
                  r["indexed_us_per_op"], r["linear_us_per_op"],
                  "%.1fx" % r["speedup"]] for r in results[section]],
            ),
        )
    return results


def write_results(results: dict) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_dataplane.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def test_bench_scale_dataplane():
    results = run_scale()
    path = write_results(results)
    assert os.path.exists(path)


if __name__ == "__main__":
    results = run_scale()
    path = write_results(results)
    print("wrote %s" % path)
