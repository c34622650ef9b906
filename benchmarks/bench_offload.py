"""Data-plane offload: switch-local buffering vs controller buffering.

The loss-free move's fast path historically shipped every in-window
packet through the controller — an event northbound, a buffered copy in
the operation, a packet-out southbound on release. With the XFSM
offload the controller installs one buffer-until-release machine at the
switch, the packets park in switch-local rings, and the release is a
single southbound message that triggers an in-order local flush.

This benchmark runs the same packet-heavy 500-flow loss-free move twice
— batched transport both times, offload off (the classic buffered path)
then on — and reports the control-message and move-latency deltas. The
acceptance floors are structural, not statistical: offload must cut
control messages by >= 10x and move latency by >= 2x.

Writes ``benchmarks/results/BENCH_offload.json`` (gated by
``check_regression.py``: every key is a deterministic simulated result
and must equal the baseline) plus a
human-readable table. Runs standalone
(``python benchmarks/bench_offload.py``) or under pytest.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from repro import Guarantee
from repro.harness.scenarios import run_move_experiment

from common import RESULTS_DIR, format_table, publish

N_FLOWS = 500
RATE_PPS = 5000.0
DATA_PACKETS = 40
SEED = 7

MIN_MESSAGE_SPEEDUP = 10.0
MIN_LATENCY_SPEEDUP = 2.0


def count_control_messages(dep) -> int:
    """Total control-plane messages: every NF channel + the switch's."""
    ctrl = dep.controller
    total = sum(
        client.to_nf.messages_sent + client.from_nf.messages_sent
        for client in ctrl.clients.values()
    )
    sw = ctrl.switch_client
    return total + sw.to_switch.messages_sent + sw.from_switch.messages_sent


def run_one(offload: bool) -> dict:
    result = run_move_experiment(
        Guarantee.LOSS_FREE,
        n_flows=N_FLOWS,
        rate_pps=RATE_PPS,
        data_packets=DATA_PACKETS,
        seed=SEED,
        batching=True,
        offload=offload,
    )
    report = result.report
    assert not report.aborted, report.summary()
    assert result.loss_free, "loss-free check failed (offload=%s)" % offload
    return {
        "move_ms": round(report.duration_ms, 3),
        "control_messages": count_control_messages(result.deployment),
        "packets_in_events": report.packets_in_events,
        "packets_buffered_at_switch": report.packets_buffered_at_switch,
    }


def run_offload() -> dict:
    baseline = run_one(offload=False)
    offloaded = run_one(offload=True)
    results = {
        "n_flows": N_FLOWS,
        "rate_pps": RATE_PPS,
        "data_packets": DATA_PACKETS,
        "baseline": baseline,
        "offload": offloaded,
        "control_messages_speedup_x": round(
            baseline["control_messages"] / offloaded["control_messages"], 2),
        "move_latency_speedup_x": round(
            baseline["move_ms"] / offloaded["move_ms"], 2),
    }

    # The tentpole's acceptance gate: the offloaded fast path must cut
    # control messages >= 10x and move latency >= 2x vs the batched
    # controller-buffered baseline.
    assert results["control_messages_speedup_x"] >= MIN_MESSAGE_SPEEDUP, (
        results)
    assert results["move_latency_speedup_x"] >= MIN_LATENCY_SPEEDUP, results
    return results


def write_results(results: dict) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_offload.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    rows = [
        [
            label,
            results[key]["control_messages"],
            "%.1f" % results[key]["move_ms"],
            results[key]["packets_in_events"],
            results[key]["packets_buffered_at_switch"],
        ]
        for label, key in (("classic", "baseline"), ("offload", "offload"))
    ]
    rows.append([
        "delta",
        "%.1fx fewer" % results["control_messages_speedup_x"],
        "%.1fx faster" % results["move_latency_speedup_x"],
        "", "",
    ])
    publish(
        "offload_move",
        format_table(
            "Data-plane offload — %d-flow loss-free move @ %d pps"
            % (N_FLOWS, int(RATE_PPS)),
            ["path", "ctrl msgs", "move ms", "pkt events", "buf@switch"],
            rows,
        ),
    )
    return path


def test_bench_offload():
    results = run_offload()
    path = write_results(results)
    assert os.path.exists(path)


if __name__ == "__main__":
    results = run_offload()
    path = write_results(results)
    print(json.dumps(results, indent=2, sort_keys=True))
    print("wrote %s" % path)
