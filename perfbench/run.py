"""CPU ledger benchmark for the OpenNF simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload forward --seed 7 --seconds 40 --trace 0

Each run repeats the workload in fresh processes (``workloads.py``)
until ``--seconds`` is used up, checks every repetition's outputs, and
prints a human-readable report followed, on the last line, by one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics: medians over the timed
repetitions, with tracing off, and CPU figures scaled to a nominal host
by reference slices timed in each repetition (see ``README.md``). ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics from the traced
ones, plus the tracing overhead. ``BENCHMARK.json`` lists both sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

from workloads import REF_NOMINAL_S, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workloads.py")

#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 150


def run_worker(workload: str, seed: int, traced: bool) -> dict:
    """One repetition in a fresh interpreter; its JSON result."""
    command = [sys.executable, WORKER, "--workload", workload,
               "--seed", str(seed)]
    if traced:
        command.append("--trace")
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("worker failed (exit %d): %s"
                           % (proc.returncode, proc.stderr.strip()[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def repeat(workload: str, seed: int, seconds: float, kinds) -> list:
    """Cycle through ``kinds`` (traced flags) until the time is used up.

    Every kind runs at least once; another repetition starts only if
    the slowest one of its kind so far would still end in time.
    """
    started = time.perf_counter()
    reps = []
    slowest = {}
    index = 0
    while True:
        traced = kinds[index % len(kinds)]
        elapsed = time.perf_counter() - started
        if index >= len(kinds) and elapsed + slowest[traced] > seconds:
            break
        rep = run_worker(workload, seed, traced)
        slowest[traced] = max(slowest.get(traced, 0.0), rep["wall_s"])
        reps.append(rep)
        index += 1
    return reps


def check_repeats(reps) -> list:
    """Failures of the output checks and of exact repetition: simulated
    results, and the traced reps' per-layer counts, repeat for a seed."""
    failures = []
    for number, rep in enumerate(reps):
        failures += ["rep %d: %s" % (number, f) for f in rep["failures"]]
    for number, rep in enumerate(reps[1:], 1):
        failures += ["rep %d: %s = %r, rep 0 had %r"
                     % (number, key, rep["sim"].get(key), value)
                     for key, value in reps[0]["sim"].items()
                     if rep["sim"].get(key) != value]
    segments = {len(rep["segment_cpu_s"]) for rep in reps}
    if len(segments) != 1:
        failures.append("reps ran the event loop in %s segments"
                        % sorted(segments))
    traced = [rep["ledger"]["counts"] for rep in reps if rep["traced"]]
    for number, counts in enumerate(traced[1:], 1):
        failures += ["traced rep %d: %s = %r, traced rep 0 had %r"
                     % (number, key, counts.get(key), value)
                     for key, value in traced[0].items()
                     if counts.get(key) != value]
    return failures


def host_scale(rep) -> float:
    """Factor that scales a rep's CPU seconds to the nominal host: the
    nominal reference slice time over the rep's median slice time.

    The shared host runs at speeds up to a third apart, for minutes at
    a time and per process. The reference slices are timed in the rep's
    own process, between the loop's segments, so they run at its speed.
    """
    return REF_NOMINAL_S / median(rep["reference_cpu_s"])


def loop_scaled_s(reps) -> float:
    """Event-loop CPU seconds of the untraced reps on the nominal host:
    the sum over segments of each one's median scaled CPU over the reps.

    The simulation is deterministic, so segment ``i`` is the same work
    in every rep of a seed, and a burst of other load in one rep's
    segment does not move the segment's median.
    """
    untraced = [rep for rep in reps if not rep["traced"]]
    scaled = [[cpu * host_scale(rep) for cpu in rep["segment_cpu_s"]]
              for rep in untraced]
    return sum(median(column) for column in zip(*scaled))


def scaled_median(reps, key: str) -> float:
    """Median over the untraced reps of ``key`` on the nominal host."""
    return median([rep[key] * host_scale(rep) for rep in reps
                   if not rep["traced"]])


def end_to_end(reps) -> dict:
    """The host measurements over the untraced reps: event-loop and
    set-up CPU on the nominal host, and the median peak RSS."""
    untraced = [rep for rep in reps if not rep["traced"]]
    packets = untraced[0]["sim"]["packets"]
    events = untraced[0]["sim"]["sim_events"]
    loop_s = loop_scaled_s(reps)
    return {
        "cpu_us_per_packet": loop_s / packets * 1e6,
        "sim_events_per_cpu_s": events / loop_s,
        "setup_s": scaled_median(reps, "setup_cpu_s"),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in untraced]),
    }


def loop_cpu_s(reps, traced: bool) -> float:
    """Median event-loop CPU seconds of the traced or untraced reps."""
    return median([rep["loop_cpu_s"] for rep in reps
                   if rep["traced"] == traced])


def outcomes(reps) -> dict:
    """The simulated outcomes and the move CPU per flow.

    They are zero or undefined on some workload (no move runs in
    ``forward``, and a correct run loses nothing), so they are reported
    with the per-layer set, which carries no bound.
    """
    untraced = [rep for rep in reps if not rep["traced"]]
    sim = untraced[0]["sim"]
    out = {
        "control_messages": sim["control_messages"],
        "packet_loss_ratio": sim["packets_lost"] / sim["packets"],
        "op_failed_ratio": (sim["operations_failed"] / sim["operations"]
                            if sim["operations"] else 0.0),
        "audit_violations": sim["audit_violations"],
        "move_cpu_ms_per_flow": 0.0,
        "move_sim_ms": sim.get("move_sim_ms", 0.0),
        "added_latency_p50_ms": sim.get("added_latency_p50_ms", 0.0),
        "added_latency_p99_ms": sim.get("added_latency_tail_ms", 0.0),
    }
    if sim["chunks_moved"]:
        out["move_cpu_ms_per_flow"] = median(
            [rep["move_cpu_s"] * host_scale(rep) * 1000.0
             / sim["chunks_moved"] for rep in untraced])
    return out


def per_layer(reps) -> dict:
    """Medians of the traced reps' ledger metrics, plus tracing cost."""
    traced = [rep for rep in reps if rep["traced"]]
    metrics = dict(traced[0]["ledger"]["counts"])
    for key in traced[0]["ledger"]["times"]:
        metrics[key] = median([rep["ledger"]["times"][key] for rep in traced])
    metrics["traffic.trace_build_s"] = scaled_median(reps,
                                                     "trace_build_cpu_s")
    metrics["trace.overhead_pct"] = 100.0 * (
        loop_cpu_s(reps, True) / loop_cpu_s(reps, False) - 1.0)
    metrics.update(outcomes(reps))
    return metrics


def declared_metrics(traced: bool):
    """``(name, unit)`` of every metric ``BENCHMARK.json`` declares for
    this kind of run, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if traced else "end_to_end"]]


def report(args, reps, failures, e2e, moves) -> None:
    """The human-readable part of the output."""
    untraced = [rep for rep in reps if not rep["traced"]]
    sim = untraced[0]["sim"]
    print("workload %s  seed %d  python %s  nproc %d" % (
        args.workload, args.seed, platform.python_version(),
        os.cpu_count() or 0))
    print("repetitions: %d untraced, %d traced, each in a fresh process" % (
        len(untraced), len(reps) - len(untraced)))
    print("packets injected %d, sim events %d" % (sim["packets"],
                                                  sim["sim_events"]))
    for label, key in (("event-loop CPU s", "loop_cpu_s"),
                       ("setup CPU s", "setup_cpu_s")):
        print("%s per rep: %s" % (label, ", ".join(
            "%.3f" % rep[key] for rep in untraced)))
    print("reference slice us per rep (median; nominal %.0f): %s" % (
        REF_NOMINAL_S * 1e6, ", ".join(
            "%.1f" % (median(rep["reference_cpu_s"]) * 1e6)
            for rep in untraced)))
    print("cpu_us_per_packet = %.3f (loop CPU %.3f s on the nominal host, "
          "the sum of %d segments' median scaled CPU over the reps, / %d "
          "packets; unscaled median loop CPU %.3f s)" % (
              e2e["cpu_us_per_packet"], loop_scaled_s(reps),
              len(untraced[0]["segment_cpu_s"]), sim["packets"],
              loop_cpu_s(reps, False)))
    if sim["chunks_moved"]:
        print("move_cpu_ms_per_flow = %.4f over %d per-flow chunks moved"
              % (moves["move_cpu_ms_per_flow"], sim["chunks_moved"]))
        print("move_sim_ms = %.3f" % sim["move_sim_ms"])
        print("added latency over %d affected packets: p50 %.3f ms, "
              "p%s %.3f ms (%s samples beyond)" % (
                  sim["added_latency_samples"], sim["added_latency_p50_ms"],
                  sim.get("added_latency_tail_pct", "-"),
                  sim.get("added_latency_tail_ms", 0.0),
                  sim.get("added_latency_tail_beyond", 0)))
    print("control_messages = %d, audit_violations = %d, "
          "packets lost %d of %d, operations failed %d of %d" % (
              sim["control_messages"], sim["audit_violations"],
              sim["packets_lost"], sim["packets"],
              sim["operations_failed"], sim["operations"]))
    if args.trace:
        traced = [rep for rep in reps if rep["traced"]][0]["ledger"]
        print("self-time share by layer (traced rep 0): " + ", ".join(
            "%s %.1f%%" % (layer, 100 * share) for layer, share in
            sorted(traced["layers"].items(), key=lambda kv: -kv[1])))
        print("wrapper cost per call, ns: " + ", ".join(
            "%s %.0f" % (name, value)
            for name, value in traced["calibration_ns"].items()))
        for row in traced["top_frames"]:
            print("  %-12s %-48s %9d calls %9.1f ms" % (
                row["layer"], row["name"], row["calls"],
                row["self_ns"] / 1e6))
    for failure in failures:
        print("CHECK FAILED: " + failure)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("no repro sources under %s; run from the root of a checkout"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    kinds = (False, True) if args.trace else (False,)
    reps = repeat(args.workload, args.seed, args.seconds, kinds)
    failures = check_repeats(reps)
    e2e = end_to_end(reps)
    report(args, reps, failures, e2e, outcomes(reps))
    values = dict(e2e, **per_layer(reps)) if args.trace else e2e
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_metrics(bool(args.trace))}
    sims = [rep["sim"] for rep in reps]
    result = {
        "correct": not failures,
        "attempted": sum(sim["packets"] + sim["operations"] for sim in sims),
        "failed": sum(sim["packets_lost"] + sim["operations_failed"]
                      for sim in sims),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
