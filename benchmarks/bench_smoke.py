"""Quick benchmark smoke: a trimmed Fig 10/12 pass on every test run.

``make bench-smoke`` (wired into ``make test``) runs a small LF move and
a streamed southbound get with the batched transport on and off, then
writes the headline numbers to ``benchmarks/results/BENCH_southbound.json``
so regressions in control-plane message counts or move time show up in
version control, not just in the full benchmark suite.

``OPENNF_SHARDS=N`` (N > 1) runs the move half against a controller
split into N shards instead of one and writes
``BENCH_southbound_shardsN.json``, so CI smokes the sharded controller
with the exact same workload and gates its message counts and move
time separately from the single-shard baseline.

Runs standalone (``python benchmarks/bench_smoke.py``) or under pytest
without ``pytest-benchmark``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from repro.flowspace import Filter
from repro.harness import run_move_experiment
from repro.net.channel import BatchConfig
from repro.nf import NFClient
from repro.nfs.monitor import AssetMonitor
from repro.sim import Simulator

from common import RESULTS_DIR

N_FLOWS = 120
RATE_PPS = 2500.0
SHARDS = int(os.environ.get("OPENNF_SHARDS", "1") or "1")


def _move_row(batching):
    result = run_move_experiment(
        guarantee="lf", parallel=True, n_flows=N_FLOWS, rate_pps=RATE_PPS,
        seed=7, batching=batching, shards=SHARDS,
    )
    dep = result.deployment
    messages = 0
    for client in dep.controller.clients.values():
        messages += client.to_nf.messages_sent + client.from_nf.messages_sent
    switch_client = dep.controller.switch_client
    messages += switch_client.to_switch.messages_sent
    messages += switch_client.from_switch.messages_sent
    return {
        "move_ms": round(result.duration_ms, 3),
        "ctrl_messages": messages,
        "loss_free": result.loss_free,
    }


def _southbound_row(batching):
    from bench_fig12_southbound import populate

    sim = Simulator()
    src = AssetMonitor(sim, "src")
    populate(sim, src, N_FLOWS)
    client = NFClient(sim, src, batch=batching)
    received = []
    finished = {}
    start = sim.now
    done = client.get_perflow(Filter.wildcard(),
                              stream_frame=received.extend)
    done.add_callback(lambda _evt: finished.setdefault("at", sim.now))
    sim.run()
    assert len(received) == N_FLOWS
    return {
        "get_ms": round(finished["at"] - start, 3),
        "nf_to_ctrl_messages": client.from_nf.messages_sent,
    }


def run_smoke() -> dict:
    results = {
        "n_flows": N_FLOWS,
        "shards": SHARDS,
        "move_lf_pl": {
            "batching_off": _move_row(None),
            "batching_on": _move_row(BatchConfig()),
        },
        "southbound_streamed_get": {
            "batching_off": _southbound_row(None),
            "batching_on": _southbound_row(BatchConfig()),
        },
    }
    move = results["move_lf_pl"]
    get = results["southbound_streamed_get"]
    assert move["batching_off"]["loss_free"]
    assert move["batching_on"]["loss_free"]
    assert (move["batching_on"]["ctrl_messages"] * 2
            <= move["batching_off"]["ctrl_messages"])
    assert (get["batching_on"]["nf_to_ctrl_messages"] * 2
            <= get["batching_off"]["nf_to_ctrl_messages"])
    return results


def write_results(results: dict) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = ("BENCH_southbound.json" if SHARDS <= 1
            else "BENCH_southbound_shards%d.json" % SHARDS)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def test_bench_smoke():
    results = run_smoke()
    path = write_results(results)
    assert os.path.exists(path)


if __name__ == "__main__":
    results = run_smoke()
    path = write_results(results)
    print(json.dumps(results, indent=2, sort_keys=True))
    print("wrote %s" % path)
