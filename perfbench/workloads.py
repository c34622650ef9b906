"""One benchmark run of one workload, in its own process.

``run.py`` starts this file as a fresh interpreter for every timed or
traced run, so peak RSS and garbage-collector state belong to that run
alone::

    python3 perfbench/workloads.py --workload move_op --seed 7 [--trace]

It prints one JSON object: the run's host measurements (CPU seconds via
``time.process_time()`` of the set-up, of each event-loop segment and
of the reference slice timed after it, and peak RSS), its simulated
results (deterministic for a given seed), the output checks, and with
``--trace`` the per-layer ledger from :mod:`ledger`.

Every workload is built from public ``repro`` pieces only: the
university-cloud trace, a :class:`Deployment`, :class:`AssetMonitor`
instances, a :class:`TraceReplayer` feeding an open loop at a fixed
simulated rate, and ``controller.move``.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Trace size: 5k concurrently active flows, 3 data packets each (about
#: 35.4k packets), replayed at 50k packets per simulated second. A
#: repetition takes a few seconds, so a run has enough of them for its
#: medians to be steady.
N_FLOWS = 5_000
DATA_PACKETS = 3
RATE_PPS = 50_000.0

#: Simulated events per timed segment of the event loop (about 20 ms
#: of CPU); ``run.py`` compares the repetitions segment by segment.
SEGMENT_EVENTS = 1_000

#: ``(source, destination, nw_src prefix)`` of each workload's moves,
#: started together once half the trace has played.
MOVES = {
    "forward": (),
    "move_op": (("inst1", "inst2", "10.0.1.0/29"),),
    "rebalance_audited": (
        ("inst1", "inst2", "10.0.1.0/29"),
        ("inst1", "inst3", "10.0.1.8/29"),
    ),
}
WORKLOADS = tuple(MOVES)

#: Percentiles tried, highest first, for the added-latency tail: the
#: highest one with at least ``MIN_BEYOND`` samples above it is reported.
TAIL_PERCENTILES = (99, 95, 90, 75)
MIN_BEYOND = 10


def deployment_kwargs(workload: str) -> dict:
    """Every path switch spelled out, so no environment variable leaks in."""
    if workload == "rebalance_audited":
        return dict(shards=2, batching=True, offload=True, audit=True,
                    telemetry=True)
    return dict(shards=1, batching=None, offload=False, observe=False,
                telemetry=False)


def percentile(ordered, pct: float):
    """Nearest-rank percentile of a sorted list, and samples beyond it."""
    index = min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))
    return ordered[index], len(ordered) - index - 1


def tail_percentile(ordered):
    """``(pct, value, beyond)`` for the highest percentile with enough tail."""
    for pct in TAIL_PERCENTILES:
        value, beyond = percentile(ordered, pct)
        if beyond >= MIN_BEYOND:
            return pct, value, beyond
    return None


def control_messages(dep) -> dict:
    """Messages and bytes over every NF and switch control channel."""
    channels = []
    for client in dep.controller.clients.values():
        channels += [client.to_nf, client.from_nf]
    switch_client = dep.controller.switch_client
    channels += [switch_client.to_switch, switch_client.from_switch,
                 dep.switch.control_channel]
    return {
        "messages": sum(ch.messages_sent for ch in channels),
        "bytes": sum(ch.bytes_sent for ch in channels),
    }


def processed_counts(nfs) -> dict:
    """``{nf name: {packet uid: times processed}}`` from the ground truth."""
    processed = {}
    for nf in nfs:
        counts = processed[nf.name] = {}
        for _when, uid in nf.processing_log:
            counts[uid] = counts.get(uid, 0) + 1
    return processed


def build(workload: str, seed: int):
    """Trace generation, deployment wiring and replay scheduling."""
    from repro import Deployment, Guarantee
    from repro.flowspace.filter import Filter
    from repro.nfs.monitor import AssetMonitor
    from repro.traffic.replay import TraceReplayer
    from repro.traffic.traces import TraceConfig, build_university_cloud_trace

    started = time.process_time()
    trace = build_university_cloud_trace(
        TraceConfig(seed=seed, n_flows=N_FLOWS, data_packets=DATA_PACKETS)
    )
    trace_built = time.process_time()
    dep = Deployment(**deployment_kwargs(workload))
    n_instances = 3 if workload == "rebalance_audited" else 2
    nfs = [AssetMonitor(dep.sim, "inst%d" % (i + 1))
           for i in range(n_instances)]
    for nf in nfs:
        dep.add_nf(nf)
    dep.set_default_route("inst1")
    replayer = TraceReplayer(dep.sim, dep.inject, trace.packets,
                             rate_pps=RATE_PPS)
    replayer.start()

    state = {"ops": [], "moves": [], "first_move_cpu": None,
             "first_move_sim": None, "done_cpu": [], "done_sim": []}

    def on_done(_evt) -> None:
        state["done_cpu"].append(loop_clock())
        state["done_sim"].append(dep.sim.now)

    def kickoff() -> None:
        state["first_move_cpu"] = loop_clock()
        state["first_move_sim"] = dep.sim.now
        for src, dst, prefix in MOVES[workload]:
            flt = Filter({"nw_src": prefix}, symmetric=True)
            op = dep.controller.move(src, dst, flt,
                                     guarantee=Guarantee.ORDER_PRESERVING)
            op.done.add_callback(on_done)
            state["ops"].append(op)
            state["moves"].append((src, dst, flt))

    if MOVES[workload]:
        dep.sim.schedule(replayer.duration_ms / 2.0, kickoff)
    setup_cpu = time.process_time() - started
    return {
        "dep": dep, "nfs": nfs, "trace": trace, "replayer": replayer,
        "state": state, "setup_cpu_s": setup_cpu,
        "trace_build_cpu_s": trace_built - started,
    }


def check_outputs(run, sim: dict) -> list:
    """Every output check; returns the failures (empty when all pass)."""
    from repro.harness.properties import (check_loss_free,
                                          check_order_preserving)

    dep, nfs, state = run["dep"], run["nfs"], run["state"]
    failures = []
    for op in state["ops"]:
        if not op.done.triggered:
            failures.append("move %s never finished" % op.kind)
        elif op.done.value.aborted:
            failures.append("move aborted: %s" % op.done.value.aborted)
    if sim["packets_lost"]:
        failures.append("%d of %d injected packets never processed"
                        % (sim["packets_lost"], sim["packets"]))
    ok, detail = check_loss_free(dep.switch, nfs)
    if not ok:
        failures.append("loss-free: " + detail)
    ok, detail = check_order_preserving(dep.switch, nfs,
                                        run["replayer"].injected)
    if not ok:
        failures.append("order-preserving: " + detail)
    # State conservation: each moved flow's ConnRecord sits at its
    # destination, none is left on the source, and the record counts
    # every packet of the flow any instance processed. Flows the source
    # processed before the move are exactly the per-flow chunks moved.
    processed = processed_counts(nfs)
    flow_packets = {}
    for packet in run["replayer"].injected:
        flow_packets.setdefault(packet.five_tuple.canonical(),
                                []).append(packet.uid)
    for op, (src, dst, flt) in zip(state["ops"], state["moves"]):
        if not op.done.triggered:
            continue
        seen_at_src = 0
        for flow in run["trace"].flows:
            if not flt.matches_headers(flow.five_tuple.headers()):
                continue
            uids = flow_packets[flow.five_tuple.canonical()]
            total = sum(counts.get(uid, 0) for counts in processed.values()
                        for uid in uids)
            at_src = sum(processed[src].get(uid, 0) for uid in uids)
            seen_at_src += at_src > 0
            if dep.nfs[src].conn_for(flow.five_tuple) is not None:
                failures.append("%s: record left on %s"
                                % (flow.five_tuple, src))
            record = dep.nfs[dst].conn_for(flow.five_tuple)
            if record is None or record.packets != total:
                failures.append("%s: %s record counts %s of %d packets"
                                % (flow.five_tuple, dst,
                                   record and record.packets, total))
        chunks = op.done.value.chunks_moved.get("perflow", 0)
        if seen_at_src != chunks:
            failures.append("%s->%s: %d flows seen at source, %d chunks"
                            % (src, dst, seen_at_src, chunks))
    return failures[:20]


def simulated_results(run) -> dict:
    """Deterministic outcomes of the run; equal for equal seeds."""
    from repro.metrics.latency import added_latency

    dep, nfs, state, replayer = (run["dep"], run["nfs"], run["state"],
                                 run["replayer"])
    injected = replayer.injected
    processed = processed_counts(nfs).values()
    lost = sum(1 for packet in injected
               if not any(counts.get(packet.uid) for counts in processed))
    reports = [op.done.value for op in state["ops"] if op.done.triggered]
    channels = control_messages(dep)
    failed_ops = len(state["ops"]) - sum(1 for r in reports if not r.aborted)
    result = {
        "packets": len(injected),
        "packets_lost": lost,
        "sim_events": dep.sim.events_processed,
        "control_messages": channels["messages"],
        "control_bytes": channels["bytes"],
        "operations": len(state["ops"]),
        "operations_failed": failed_ops,
        "chunks_moved": sum(r.chunks_moved.get("perflow", 0) for r in reports),
        "audit_violations": (len(dep.obs.violations())
                             if dep.obs.audit is not None else 0),
    }
    if reports:
        affected = set()
        for report in reports:
            affected |= report.affected_uids
        samples = sorted(added_latency(nfs, injected, affected).samples)
        result["move_sim_ms"] = (max(state["done_sim"])
                                 - state["first_move_sim"])
        result["added_latency_samples"] = len(samples)
        if samples:
            result["added_latency_p50_ms"] = percentile(samples, 50)[0]
            tail = tail_percentile(samples)
            if tail is not None:
                result["added_latency_tail_pct"] = tail[0]
                result["added_latency_tail_ms"] = tail[1]
                result["added_latency_tail_beyond"] = tail[2]
    return result


def ledger_metrics(ledger, run, sim: dict, loop_ns: float) -> dict:
    """Per-layer counts and self times from the traced run.

    ``counts`` are exact and repeat for a seed; ``times`` are measured.
    """
    rows = ledger.rows()
    dep, nfs = run["dep"], run["nfs"]
    packets = sim["packets"]

    def self_us(select) -> float:
        return sum(row["self_ns"] for row in rows if select(row)) / 1000.0

    def calls(name: str) -> int:
        return sum(row["calls"] for row in rows if row["name"] == name)

    def in_layer(layer):
        return lambda row: row["layer"] == layer

    def named(*names):
        return lambda row: row["name"] in names

    def southbound(row) -> bool:
        return row["layer"] == "nf" and (
            row["module"] == "repro.nf.southbound"
            or row["name"].startswith("NetworkFunction.sb_")
            or row["name"].startswith("NetworkFunction.rpc_")
            or row["name"] in ("NetworkFunction._get_process",
                               "NetworkFunction._put_process",
                               "NetworkFunction._delete_process"))

    overhead_ns = ledger.overhead_ns()
    attributed_ns = sum(row["self_ns"] for row in rows
                        if row["layer"] != "unattributed")
    events = sim["sim_events"]
    handled = (dep.controller.events_received
               + dep.controller.packet_ins_received)
    replicas = getattr(dep.controller, "replicas", [dep.controller])
    machines = ledger.watched.get("XFSMInstance", [])
    records = calls("Tracer.record")
    counts = {
        "sim.events_per_packet": events / packets,
        "flowspace.ip_to_int.calls_per_packet": calls("ip_to_int") / packets,
        "flowspace.packet_match_keys.calls_per_packet":
            calls("packet_match_keys") / packets,
        "flowspace.store_get.calls_per_packet":
            calls("FlowKeyedStore.get") / packets,
        "flowspace.matches_headers.calls_per_packet":
            calls("Filter.matches_headers") / packets,
        "flowspace.canonical.calls_per_packet":
            calls("FiveTuple.canonical") / packets,
        "net.channel.messages": sim["control_messages"],
        "net.channel.bytes": sim["control_bytes"],
        "net.switch.packet_outs": dep.switch.packet_outs,
        "net.xfsm.packets_buffered": sum(m.packets_buffered for m in machines),
        "net.xfsm.packets_flushed": sum(m.packets_flushed for m in machines),
        "net.switch.table_misses": dep.switch.table_misses,
        "net.switch.packet_ins_dropped": dep.switch.packet_ins_dropped,
        "nf.events_raised": sum(nf.events_raised for nf in nfs),
        "nf.packets_buffered_by_event":
            sum(nf.packets_buffered_by_event for nf in nfs),
        "controller.events_handled": handled,
        "controller.pump.max_backlog": max(r.inbox.max_backlog
                                           for r in replicas),
        "controller.pump.items_handled": sum(r.inbox.items_handled
                                             for r in replicas),
        "obs.spans": calls("Span.finish"),
        "obs.records": records,
        "obs.records_kept_ratio": (len(dep.obs.exporter.records) / records
                                   if records else 0.0),
    }
    times = {
        "sim.loop.self_us_per_event": self_us(in_layer("sim")) / events,
        "traffic.build.self_us_per_packet":
            self_us(named("PacketBlueprint.build")) / packets,
        "flowspace.self_us_per_packet":
            self_us(in_layer("flowspace")) / packets,
        "net.switch.self_us_per_packet":
            self_us(lambda row: row["module"] == "repro.net.switch") / packets,
        "net.flowtable.lookup.self_us_per_packet":
            self_us(named("FlowTable.lookup")) / packets,
        "nf.framework.self_us_per_packet": self_us(
            lambda row: in_layer("nf")(row) and not southbound(row)) / packets,
        "nf.sb.self_ms": self_us(southbound) / 1000.0,
        "nfs.process_packet.self_us_per_packet":
            self_us(named("AssetMonitor.process_packet")) / packets,
        "nfs.export_chunk.self_us":
            self_us(named("AssetMonitor.export_chunk")),
        "nfs.import_chunk.self_us":
            self_us(named("AssetMonitor.import_chunk")),
        "controller.self_us_per_event":
            self_us(in_layer("controller")) / handled if handled else 0.0,
        "obs.self_us_per_packet": self_us(in_layer("obs")) / packets,
        "gc.self_ms": self_us(in_layer("gc")) / 1000.0,
        "trace.unattributed_share":
            max(0.0, loop_ns - overhead_ns - attributed_ns)
            / (loop_ns - overhead_ns),
        "trace.subtracted_share": overhead_ns / loop_ns,
    }
    return {"counts": counts, "times": times, "layers": layer_shares(rows),
            "top_frames": rows[:12]}


def layer_shares(rows) -> dict:
    total = sum(row["self_ns"] for row in rows) or 1
    shares = {}
    for row in rows:
        shares[row["layer"]] = shares.get(row["layer"], 0) + row["self_ns"]
    return {layer: value / total for layer, value in shares.items()}


#: Fixed pure-Python reference work: dict lookups and heap operations on
#: 5-tuple-like keys, as the simulator does. It is built once, and a
#: slice allocates no object the garbage collector tracks, so it leaves
#: the collector's schedule for the program as it was.
REF_KEYS = tuple(((i * 2654435761) % 4294967296, (i * 40503) % 65536,
                  (i * 7) % 1024, 80, 6) for i in range(512))
REF_TABLE = {key: i for i, key in enumerate(REF_KEYS)}
REF_HEAP = []

#: CPU seconds of a reference slice on the host ``run.py`` scales to: the
#: typical slice when a 2-vCPU Intel Xeon VM ran at its faster speed.
REF_NOMINAL_S = 400e-6

#: CPU seconds the reference slices of this process have taken so far.
REF_SPENT_S = [0.0]


def loop_clock() -> float:
    """Process CPU seconds, less those of the reference slices."""
    return time.process_time() - REF_SPENT_S[0]


def reference_slice() -> float:
    """CPU seconds of one pass of the reference work (about 0.4 ms)."""
    heap, table = REF_HEAP, REF_TABLE
    started = time.process_time()
    total = 0
    for key in REF_KEYS:
        total += table[key]
        heapq.heappush(heap, key)
    while heap:
        heapq.heappop(heap)
    spent = time.process_time() - started
    REF_SPENT_S[0] += spent
    return spent


def run_in_segments(sim, reference: bool) -> tuple:
    """Run the event loop to the end, ``SEGMENT_EVENTS`` callbacks at a
    time; the CPU seconds of each segment and, with ``reference``, of a
    reference slice timed after each segment.

    Stopping after a number of callbacks leaves the simulation as it
    was, so a seed's segments hold the same work in every repetition.
    The reference slices sample the host's speed while the loop runs.
    """
    segments, slices = [], []
    clock = time.process_time
    while True:
        before = sim.events_processed
        started = clock()
        sim.run(max_events=SEGMENT_EVENTS)
        segments.append(clock() - started)
        if reference:
            slices.append(reference_slice())
        if sim.events_processed - before < SEGMENT_EVENTS:
            return segments, slices


def run_workload(workload: str, seed: int, traced: bool) -> dict:
    """One repetition: set up, run the event loop (the timed region),
    then collect the simulated results and check them."""
    sys.path.insert(0, SRC)
    ledger = None
    if traced:
        from ledger import Ledger, calibrate

        costs = calibrate(SRC)
        ledger = Ledger(SRC, **costs)
        ledger.install()
    run = build(workload, seed)
    if ledger is not None:
        ledger.reset()
    started_ns = time.perf_counter_ns()
    segments, slices = run_in_segments(run["dep"].sim,
                                       reference=not traced)
    loop_ns = time.perf_counter_ns() - started_ns
    if ledger is not None:
        ledger.uninstall()
    out = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_cpu_s": run["setup_cpu_s"],
        "trace_build_cpu_s": run["trace_build_cpu_s"],
        "loop_cpu_s": sum(segments),
        "segment_cpu_s": segments,
        "reference_cpu_s": slices,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    state = run["state"]
    if state["done_cpu"]:
        out["move_cpu_s"] = max(state["done_cpu"]) - state["first_move_cpu"]
    out["sim"] = simulated_results(run)
    if ledger is not None:
        out["ledger"] = ledger_metrics(ledger, run, out["sim"], loop_ns)
        out["ledger"]["calibration_ns"] = costs
    out["failures"] = check_outputs(run, out["sim"])
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", action="store_true",
                        help="install the per-layer ledger wrappers")
    args = parser.parse_args(argv)
    print(json.dumps(run_workload(args.workload, args.seed, args.trace)))
    sys.stdout.flush()
    # Skip interpreter teardown: freeing the run's heap object by object
    # takes about a second and measures nothing.
    os._exit(0)


if __name__ == "__main__":
    main()
