"""Command-line interface: quick demos and safety validation.

Usage::

    python -m repro.cli demo-move --guarantee op --flows 200 --rate 2500
    python -m repro.cli trace --guarantee op --flows 100
    python -m repro.cli faults --spec "seed=3,drop=0.05" --guarantee op
    python -m repro.cli audit --baseline splitmerge --flows 60 --rate 6000
    python -m repro.cli audit run.trace.jsonl
    python -m repro.cli audit bundle.json
    python -m repro.cli metrics --guarantee op --filter sb
    python -m repro.cli validate --seeds 5
    python -m repro.cli conform
    python -m repro.cli conform --nf ids --guarantee strong-share
    python -m repro.cli conform tests/corpus/abort-racing-put.schedule.json
    python -m repro.cli conform --replay tests/corpus
    python -m repro.cli conform --hunt splitmerge --corpus-dir tests/corpus
    python -m repro.cli conform --offload --shards 2
    python -m repro.cli chain --guarantee lf --shards 2
    python -m repro.cli chain --hop-guarantee nat=ng
    python -m repro.cli offload --guarantee lf --flows 500
    python -m repro.cli top --flows 500 --shards 2 --interval 500
    python -m repro.cli version

``demo-move`` runs one instrumented move between two PRADS-like
monitors and prints the operation report, phases, and property-check
verdicts. ``trace`` runs the same experiment with the observability
subsystem enabled and renders the operation's span timeline (optionally
dumping the raw spans as JSON lines). ``validate`` sweeps seeds and
asserts the §5.1 guarantees hold (and that the no-guarantee mode
demonstrably violates them).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.harness import run_move_experiment


def _guarantee(value: str):
    """argparse type: any :meth:`Guarantee.parse` alias → the enum.

    Accepts every alias the northbound API does (``ng``, ``none``,
    ``lf``, ``loss-free``, ``op``, ``lf+op``, ``op-strong``, ...), so
    the CLI and the Python API speak the same vocabulary.
    """
    from repro.controller.move import Guarantee

    try:
        return Guarantee.parse(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OpenNF reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo-move", help="run one instrumented move")
    demo.add_argument("--guarantee", default="loss-free", type=_guarantee,
                      metavar="LEVEL",
                      help="move safety level (ng, loss-free/lf, op, "
                           "op-strong, or any Guarantee alias)")
    demo.add_argument("--flows", type=int, default=200)
    demo.add_argument("--rate", type=float, default=2500.0,
                      help="replay rate in packets/second")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--no-parallel", action="store_true",
                      help="disable the parallelizing optimization")
    demo.add_argument("--early-release", action="store_true")
    demo.add_argument("--compress", action="store_true",
                      help="zlib-compress state chunks (§8.3)")
    demo.add_argument("--peer-to-peer", action="store_true",
                      help="stream chunks NF-to-NF (footnote 10)")
    demo.add_argument("--faults", metavar="SPEC", default=None,
                      help="fault-plan spec, e.g. 'seed=3,drop=0.05' "
                           "(default: $OPENNF_FAULTS if set)")
    demo.add_argument("--batching", action="store_true",
                      help="batch control-plane messages (§8.3)")

    faults = sub.add_parser(
        "faults",
        help="run one move under an injected-fault plan and report "
             "retries, drops, and the exactly-once verdict",
    )
    faults.add_argument("--spec", metavar="SPEC", default=None,
                        help="fault-plan spec, e.g. "
                             "'seed=3,drop=0.05,delay=0.02,crash=inst2#40' "
                             "(default: $OPENNF_FAULTS)")
    faults.add_argument("--guarantee", default="op", type=_guarantee,
                        metavar="LEVEL",
                        help="move safety level (any Guarantee alias)")
    faults.add_argument("--flows", type=int, default=100)
    faults.add_argument("--rate", type=float, default=2500.0,
                        help="replay rate in packets/second")
    faults.add_argument("--seed", type=int, default=7)

    trace = sub.add_parser(
        "trace", help="run one observed move and render its span timeline"
    )
    trace.add_argument("--guarantee", default="op", type=_guarantee,
                       metavar="LEVEL",
                       help="move safety level (any Guarantee alias)")
    trace.add_argument("--flows", type=int, default=100)
    trace.add_argument("--rate", type=float, default=2500.0,
                       help="replay rate in packets/second")
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--scope", default="per",
                       help="state scope(s) to move (per, multi, all, ...)")
    trace.add_argument("--json", metavar="PATH", default=None,
                       help="also dump raw spans/records as JSON lines")

    validate = sub.add_parser(
        "validate", help="check the §5.1 guarantees over several seeds"
    )
    validate.add_argument("--seeds", type=int, default=3)
    validate.add_argument("--flows", type=int, default=60)
    validate.add_argument("--rate", type=float, default=5000.0)

    audit = sub.add_parser(
        "audit",
        help="run the guarantee auditors over a live move, a recorded "
             ".trace.jsonl, or render a flight-recorder bundle",
    )
    audit.add_argument("path", nargs="?", default=None, metavar="FILE",
                       help="a flight-recorder bundle (.json) to render, "
                            "or a span/record trace (.jsonl) to replay "
                            "through the auditors; omit for a live run")
    audit.add_argument("--guarantee", default="loss-free", type=_guarantee,
                       metavar="LEVEL",
                       help="live run: move safety level (any alias)")
    audit.add_argument("--baseline", choices=["splitmerge"], default=None,
                       help="live run: audit a prior-control-plane "
                            "baseline instead of an OpenNF move")
    audit.add_argument("--flows", type=int, default=60)
    audit.add_argument("--rate", type=float, default=5000.0,
                       help="replay rate in packets/second")
    audit.add_argument("--seed", type=int, default=7)
    audit.add_argument("--faults", metavar="SPEC", default=None,
                       help="fault-plan spec for the live run "
                            "(default: $OPENNF_FAULTS if set)")
    audit.add_argument("--batching", action="store_true",
                       help="live run: batch control-plane messages")
    audit.add_argument("--offload", action="store_true",
                       help="live run: buffer the move window in "
                            "switch-local state machines (data-plane "
                            "offload)")
    audit.add_argument("--abort-at", type=float, default=None, metavar="MS",
                       help="live run: abort the operation this many ms "
                            "after it starts (exercises the recorder)")
    audit.add_argument("--bundle", metavar="PATH", default=None,
                       help="also write any captured post-mortem bundle "
                            "as JSON to this path")

    metrics = sub.add_parser(
        "metrics",
        help="run one observed move and print Prometheus-format metrics",
    )
    metrics.add_argument("--guarantee", default="op", type=_guarantee,
                         metavar="LEVEL")
    metrics.add_argument("--flows", type=int, default=100)
    metrics.add_argument("--rate", type=float, default=2500.0,
                         help="replay rate in packets/second")
    metrics.add_argument("--seed", type=int, default=7)
    metrics.add_argument("--filter", dest="name_filter", default=None,
                         metavar="PREFIX",
                         help="only print metrics whose name starts here")

    conform = sub.add_parser(
        "conform",
        help="run the verified-migration conformance kit: the NF × "
             "guarantee matrix, one schedule file, a corpus replay, or "
             "a counterexample hunt",
    )
    conform.add_argument("schedule", nargs="?", default=None,
                         metavar="SCHEDULE",
                         help="a .schedule.json file to run once "
                              "(omit for the full matrix)")
    conform.add_argument("--nf", default=None, metavar="NAME",
                         help="matrix: only this NF (monitor, ids, nat, "
                              "proxy, lb, re-encoder, re-decoder)")
    conform.add_argument("--guarantee", default=None, metavar="LEVEL",
                         help="matrix: only this level (ng, lf, lf+op, "
                              "strong-share)")
    conform.add_argument("--replay", metavar="DIR", default=None,
                         help="replay every corpus entry in DIR instead "
                              "of running the matrix")
    conform.add_argument("--hunt", choices=sorted_hunt_targets(),
                         default=None,
                         help="search + shrink a counterexample for a "
                              "known-defective path instead of the matrix")
    conform.add_argument("--corpus-dir", metavar="DIR", default=None,
                         help="with --hunt: persist the shrunk "
                              "counterexample as a corpus entry here")
    conform.add_argument("--shards", type=int, default=1, metavar="N",
                         help="run schedules against a controller split "
                              "into N shards "
                              "(default 1: the classic controller)")
    conform.add_argument("--offload", action="store_true",
                         help="run schedules with data-plane offload on "
                              "(LF/LF+OP moves buffer at the switch)")
    conform.add_argument("--verbose", action="store_true",
                         help="print every matrix cell, not just "
                              "failures and the summary")

    chain = sub.add_parser(
        "chain",
        help="run one audited chain-wide move over a 3-hop "
             "IDS → NAT → proxy chain and print per-hop reports",
    )
    chain.add_argument("--guarantee", default="loss-free", type=_guarantee,
                       metavar="LEVEL",
                       help="chain-wide safety level (any Guarantee alias)")
    chain.add_argument("--hop-guarantee", action="append", default=[],
                       metavar="HOP=LEVEL", dest="hop_guarantees",
                       help="override one hop's guarantee, e.g. nat=ng "
                            "(repeatable)")
    chain.add_argument("--flows", type=int, default=40)
    chain.add_argument("--rate", type=float, default=2500.0,
                       help="replay rate in packets/second")
    chain.add_argument("--seed", type=int, default=5)
    chain.add_argument("--shards", type=int, default=1, metavar="N",
                       help="run against a controller split into N "
                            "shards")
    chain.add_argument("--faults", metavar="SPEC", default=None,
                       help="fault-plan spec, e.g. 'seed=3,drop=0.05' "
                            "(default: $OPENNF_FAULTS if set)")
    chain.add_argument("--batching", action="store_true",
                       help="batch control-plane messages (§8.3)")
    chain.add_argument("--abort-at", type=float, default=None, metavar="MS",
                       help="abort the chain operation this many ms after "
                            "it starts (exercises hop rollback)")

    offload = sub.add_parser(
        "offload",
        help="run the same move with and without data-plane offload "
             "(switch-local buffer/release state machines) and print "
             "the control-message and latency deltas",
    )
    offload.add_argument("--guarantee", default="loss-free",
                         type=_guarantee, metavar="LEVEL",
                         help="move safety level (lf or lf+op offload; "
                              "any Guarantee alias)")
    offload.add_argument("--flows", type=int, default=200)
    offload.add_argument("--rate", type=float, default=4000.0,
                         help="replay rate in packets/second")
    offload.add_argument("--seed", type=int, default=7)
    offload.add_argument("--batching", action="store_true",
                         help="batch control-plane messages in both runs "
                              "(the bench baseline)")

    top = sub.add_parser(
        "top",
        help="run one fully-telemetered move and print periodic "
             "'top'-style snapshots: events/s and inbox depth per shard, "
             "ops in flight, per-NF processing rates, XFSM occupancy",
    )
    top.add_argument("--guarantee", default="loss-free", type=_guarantee,
                     metavar="LEVEL",
                     help="move safety level (any Guarantee alias)")
    top.add_argument("--flows", type=int, default=200)
    top.add_argument("--rate", type=float, default=2500.0,
                     help="replay rate in packets/second")
    top.add_argument("--seed", type=int, default=7)
    top.add_argument("--shards", type=int, default=1,
                     help="controller shards (default 1)")
    top.add_argument("--offload", action="store_true",
                     help="enable data-plane offload for the move")
    top.add_argument("--interval", type=float, default=1000.0,
                     help="snapshot interval in simulated ms")
    top.add_argument("--jsonl", metavar="PATH", default=None,
                     help="append the final time-series windows as "
                          "JSON lines to PATH")
    top.add_argument("--prometheus", action="store_true",
                     help="also print the time-series Prometheus "
                          "rendering at the end")

    sub.add_parser("version", help="print the package version")
    return parser


def sorted_hunt_targets() -> List[str]:
    from repro.conformance.corpus import HUNT_TARGETS

    return sorted(HUNT_TARGETS)


def _fault_plan_from(spec: Optional[str]):
    """Resolve a fault plan from a CLI spec or $OPENNF_FAULTS."""
    import os

    from repro.faults import FaultPlan

    spec = spec if spec is not None else os.environ.get("OPENNF_FAULTS")
    if not spec:
        return None
    return FaultPlan.from_spec(spec)


def _cmd_demo_move(args: argparse.Namespace) -> int:
    from repro.harness import LOCAL_NET_FILTER

    operation = None
    if args.compress or args.peer_to_peer:
        def operation(dep):
            return dep.controller.move(
                "inst1", "inst2", LOCAL_NET_FILTER,
                guarantee=args.guarantee,
                parallel=not args.no_parallel,
                early_release=args.early_release,
                compress=args.compress,
                peer_to_peer=args.peer_to_peer,
            )

    result = run_move_experiment(
        guarantee=args.guarantee,
        parallel=not args.no_parallel,
        early_release=args.early_release,
        n_flows=args.flows,
        rate_pps=args.rate,
        seed=args.seed,
        operation=operation,
        fault_plan=_fault_plan_from(args.faults),
        batching=True if args.batching else None,
    )
    report = result.report
    print(report.summary())
    for phase, offset in sorted(report.phases.items(), key=lambda kv: kv[1]):
        print("  %-22s +%.1f ms" % (phase, offset))
    print("added latency: avg %.1f ms, max %.1f ms over %d affected packets"
          % (result.latency.average_added_ms, result.latency.max_added_ms,
             result.latency.affected_count))
    print("loss-free: %s   order-preserving: %s"
          % ("yes" if result.loss_free else "NO",
             "yes" if result.order_preserving else "NO"))
    if report.aborted:
        print("ABORTED: %s" % report.aborted)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.nf.state import normalize_scope
    from repro.obs import render_timeline

    try:
        normalize_scope(args.scope)
        if args.json:
            open(args.json, "w").close()
    except (ValueError, OSError) as exc:
        print("repro trace: error: %s" % exc, file=sys.stderr)
        return 2

    result = run_move_experiment(
        guarantee=args.guarantee,
        n_flows=args.flows,
        rate_pps=args.rate,
        seed=args.seed,
        scope=args.scope,
        observe=True,
    )
    report = result.report
    exporter = result.deployment.obs.exporter
    print(report.summary())
    print()
    print(render_timeline(exporter.spans))
    metrics = result.deployment.obs.metrics.snapshot()
    interesting = [
        name for name in sorted(metrics)
        if name.startswith(("ctrl.", "nf.packets", "chan."))
    ]
    if interesting:
        print("metrics:")
        for name in interesting:
            series = metrics[name]["series"]
            for labels, value in sorted(series.items()):
                print("  %-40s %s" % (
                    "%s{%s}" % (name, labels) if labels != "_" else name,
                    value,
                ))
    if args.json:
        with open(args.json, "w") as handle:
            for span in exporter.spans:
                handle.write(json.dumps(
                    dict(span.to_dict(), type="span")) + "\n")
            for record in exporter.records:
                handle.write(json.dumps(
                    dict(record, type="record")) + "\n")
        print("wrote %d spans / %d records to %s"
              % (len(exporter.spans), len(exporter.records), args.json))
    if report.aborted:
        print("ABORTED: %s" % report.aborted)
        return 1
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    plan = _fault_plan_from(args.spec)
    if plan is None:
        print("repro faults: error: no fault spec (use --spec or set "
              "$OPENNF_FAULTS)", file=sys.stderr)
        return 2

    result = run_move_experiment(
        guarantee=args.guarantee,
        n_flows=args.flows,
        rate_pps=args.rate,
        seed=args.seed,
        fault_plan=plan,
    )
    report = result.report
    print("plan: %s" % plan.summary())
    print(report.summary())
    print("retries: %d   timeouts: %d" % (report.retries, report.timeouts))
    print("channel faults: %d dropped, %d duplicated, %d delayed"
          % (plan.messages_dropped, plan.messages_duplicated,
             plan.messages_delayed))
    counts = result.deployment.processed_uid_counts()
    duplicates = sum(1 for n in counts.values() if n > 1)
    missing = sum(
        1 for p in result.replayer.injected if p.uid not in counts
    )
    print("packets: %d processed exactly once, %d duplicated, %d missing"
          % (sum(1 for n in counts.values() if n == 1), duplicates, missing))
    print("loss-free: %s   order-preserving: %s"
          % ("yes" if result.loss_free else "NO",
             "yes" if result.order_preserving else "NO"))
    if report.aborted:
        print("ABORTED: %s" % report.aborted)
        return 1
    return 0


def _print_violations(violations) -> None:
    if not violations:
        print("violations: none")
        return
    print("violations: %d" % len(violations))
    for violation in violations:
        print("  " + violation.render())


def _cmd_audit(args: argparse.Namespace) -> int:
    import json

    from repro.obs import render_bundle, replay_trace

    if args.path is not None:
        # Offline mode: a bundle to render, or a trace to replay.
        try:
            with open(args.path) as handle:
                first = handle.read(1)
        except OSError as exc:
            print("repro audit: error: %s" % exc, file=sys.stderr)
            return 2
        try:
            with open(args.path) as handle:
                payload = json.load(handle)
        except ValueError:
            payload = None
        if isinstance(payload, dict) and "causal_slice" in payload:
            print(render_bundle(payload))
            return 0
        if not first:
            print("repro audit: error: %s is empty" % args.path,
                  file=sys.stderr)
            return 2
        pipeline = replay_trace(args.path)
        _print_violations(pipeline.violations)
        return 1 if pipeline.violations else 0

    # Live mode: run an audited experiment.
    from repro.harness import LOCAL_NET_FILTER, run_move_experiment

    holder = {}
    operation = None
    if args.baseline == "splitmerge":
        from repro.baselines import SplitMergeMigrate

        def operation(dep):
            return SplitMergeMigrate(
                dep.controller, "inst1", "inst2", LOCAL_NET_FILTER
            )
    elif args.abort_at is not None:
        def operation(dep):
            op = dep.controller.move(
                "inst1", "inst2", LOCAL_NET_FILTER,
                guarantee=args.guarantee,
            )
            dep.sim.schedule(args.abort_at, op.abort, "aborted via CLI")
            holder["op"] = op
            return op

    result = run_move_experiment(
        guarantee=args.guarantee,
        n_flows=args.flows,
        rate_pps=args.rate,
        seed=args.seed,
        operation=operation,
        audit=True,
        fault_plan=_fault_plan_from(args.faults),
        batching=True if args.batching else None,
        offload=True if args.offload else None,
    )
    obs = result.deployment.obs
    print(result.report.summary())
    violations = obs.violations()
    _print_violations(violations)
    for bundle in obs.recorder.bundles:
        print()
        print(render_bundle(bundle))
    if args.bundle and obs.recorder.bundles:
        with open(args.bundle, "w") as handle:
            json.dump(obs.recorder.bundles[-1], handle, indent=2,
                      sort_keys=True)
        print("wrote bundle to %s" % args.bundle)
    return 1 if violations else 0


def _cmd_conform(args: argparse.Namespace) -> int:
    import json

    from repro.conformance import (
        hunt_counterexample,
        load_corpus,
        matrix_cells,
        replay_entry,
        run_cell,
        run_schedule,
        save_entry,
    )
    from repro.conformance.schedule import ScheduleSpec

    if args.hunt is not None:
        try:
            spec, result = hunt_counterexample(args.hunt)
        except Exception as exc:  # NoSuchExample: the defect went away
            print("repro conform: hunt for %r found no counterexample: %s"
                  % (args.hunt, exc), file=sys.stderr)
            return 1
        print("shrunk counterexample for %r:" % args.hunt)
        print(spec.to_json())
        print(result.summary())
        for violation in result.violations[:5]:
            print("  " + violation.render())
        if args.corpus_dir:
            entry = save_entry(
                args.corpus_dir, "%s-hunt" % args.hunt, spec, result,
                expect="dirty",
                description="shrunk via `repro conform --hunt %s`"
                            % args.hunt,
            )
            print("saved %s + %s" % (entry.schedule_path, entry.trace_path))
        return 0

    if args.replay is not None:
        entries = load_corpus(args.replay)
        if not entries:
            print("repro conform: no corpus entries under %s" % args.replay,
                  file=sys.stderr)
            return 2
        failures = 0
        for entry in entries:
            outcome = replay_entry(entry)
            status = "ok" if outcome.ok else "FAIL"
            print("%-30s expect=%-5s -> %s" % (entry.name, entry.expect,
                                               status))
            for problem in outcome.problems:
                failures += 1
                print("    " + problem)
        if failures:
            print("%d corpus replay problem(s)" % failures)
            return 1
        print("all %d corpus entries replay as expected" % len(entries))
        return 0

    if args.schedule is not None:
        try:
            with open(args.schedule) as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            print("repro conform: error: %s" % exc, file=sys.stderr)
            return 2
        spec = ScheduleSpec.from_dict(data.get("schedule", data))
        if args.shards > 1:
            spec.shards = args.shards
        if args.offload:
            spec.offload = True
        result = run_schedule(spec)
        print(result.summary())
        for violation in result.violations:
            print("  " + violation.render())
        for prop_failure in result.property_failures:
            print("  " + prop_failure.render())
        if not result.loss_free:
            print("  [ground-truth] loss-free: %s" % result.loss_free_detail)
        return 0 if result.ok else 1

    # Default: the full NF × guarantee × faults × batching matrix.
    cells = matrix_cells()
    if args.nf is not None:
        cells = [c for c in cells if c.nf == args.nf]
    if args.guarantee is not None:
        cells = [c for c in cells if c.guarantee == args.guarantee]
    if not cells:
        print("repro conform: no matrix cells match the filters",
              file=sys.stderr)
        return 2
    failed = []
    expected_dirty = 0
    for cell in cells:
        result = run_cell(cell, shards=args.shards, offload=args.offload)
        if result.clean:
            if args.verbose:
                print("%-40s clean" % cell.label())
        elif result.expected_dirty:
            expected_dirty += 1
            print("%-40s dirty (expected: %s)"
                  % (cell.label(), ",".join(result.check_kinds()) or "-"))
        else:
            failed.append((cell, result))
            print("%-40s DIRTY checks=%s"
                  % (cell.label(), ",".join(result.check_kinds())))
            for violation in result.violations[:3]:
                print("    " + violation.render())
            for prop_failure in result.property_failures[:3]:
                print("    " + prop_failure.render())
    print("%d cells: %d clean, %d expected-dirty, %d FAILED"
          % (len(cells), len(cells) - expected_dirty - len(failed),
             expected_dirty, len(failed)))
    return 1 if failed else 0


def _cmd_chain(args: argparse.Namespace) -> int:
    from repro.conformance.runner import NF_FACTORIES
    from repro.harness import (
        LOCAL_NET_FILTER,
        Deployment,
        check_chain_loss_free,
    )
    from repro.traffic.replay import TraceReplayer
    from repro.traffic.traces import TraceConfig, build_university_cloud_trace

    hop_guarantees = {}
    for override in args.hop_guarantees:
        if "=" not in override:
            print("repro chain: error: --hop-guarantee wants HOP=LEVEL, "
                  "got %r" % override, file=sys.stderr)
            return 2
        hop, level = override.split("=", 1)
        hop_guarantees[hop.strip()] = _guarantee(level.strip())

    hops = [("ids", ("ids1", "ids2")), ("nat", ("nat1", "nat2")),
            ("proxy", ("proxy1", "proxy2"))]
    unknown = set(hop_guarantees) - {name for name, _ in hops}
    if unknown:
        print("repro chain: error: unknown hop(s) %s (chain is ids → nat "
              "→ proxy)" % ", ".join(sorted(unknown)), file=sys.stderr)
        return 2

    dep = Deployment(
        audit=True,
        shards=args.shards,
        faults=_fault_plan_from(args.faults),
        batching=True if args.batching else None,
    )
    nfs_by_hop = []
    for hop_name, names in hops:
        members = []
        for name in names:
            nf = NF_FACTORIES[hop_name](dep.sim, name)
            dep.add_nf(nf)
            members.append(nf)
        nfs_by_hop.append((hop_name, members))
    chain = dep.chain("edge", hops, flt=LOCAL_NET_FILTER)

    trace = build_university_cloud_trace(TraceConfig(
        seed=args.seed, n_flows=args.flows, data_packets=10,
    ))
    replayer = TraceReplayer(dep.sim, dep.inject, trace.packets,
                             rate_pps=args.rate)
    replayer.start()
    holder = {}

    def kickoff():
        holder["op"] = dep.controller.move_chain(
            chain, LOCAL_NET_FILTER,
            {hop_name: names[1] for hop_name, names in hops},
            guarantee=args.guarantee,
            hop_guarantees=hop_guarantees or None,
        )
        if args.abort_at is not None:
            dep.sim.schedule(args.abort_at, holder["op"].abort,
                             "aborted via CLI")

    dep.sim.schedule(replayer.duration_ms / 2.0, kickoff)
    dep.sim.run()

    operation = holder["op"]
    report = operation.done.value
    print(report.summary())
    for hop_report in operation.hop_reports:
        print("  hop %-8s %s" % ("%s:" % hop_report.src, hop_report.summary()))
    for note in report.notes:
        print("  note: %s" % note)
    print("actives: %s" % " → ".join(
        "%s=%s" % (hop.name, hop.active) for hop in chain.hops
    ))
    ok, detail = check_chain_loss_free(dep.switch, nfs_by_hop)
    print("chain loss-free: %s%s"
          % ("yes" if ok else "NO", "" if ok else "  (%s)" % detail))
    _print_violations(dep.obs.violations())
    if report.aborted:
        print("ABORTED: %s" % report.aborted)
        return 1
    return 1 if (dep.obs.violations() or not ok) else 0


def _count_control_messages(dep) -> int:
    """Total control-channel frames: every NF client plus the switch."""
    ctrl = dep.controller
    total = sum(
        client.to_nf.messages_sent + client.from_nf.messages_sent
        for client in ctrl.clients.values()
    )
    sw = ctrl.switch_client
    return total + sw.to_switch.messages_sent + sw.from_switch.messages_sent


def _cmd_offload(args: argparse.Namespace) -> int:
    rows = []
    for label, offload in (("classic", False), ("offload", True)):
        result = run_move_experiment(
            guarantee=args.guarantee,
            n_flows=args.flows,
            rate_pps=args.rate,
            seed=args.seed,
            batching=True if args.batching else None,
            offload=offload,
        )
        messages = _count_control_messages(result.deployment)
        rows.append((result, messages))
        print("%-8s %s" % (label, result.report.summary()))
        print("         control messages: %-6d move latency: %.1f ms   "
              "switch-buffered: %d   loss-free: %s   order: %s"
              % (messages, result.report.duration_ms,
                 result.report.packets_buffered_at_switch,
                 "yes" if result.loss_free else "NO",
                 "yes" if result.order_preserving else "NO"))
    (base, base_msgs), (fast, fast_msgs) = rows
    if fast_msgs and fast.report.duration_ms:
        print("offload delta: %.1fx fewer control messages, "
              "%.1fx lower move latency"
              % (base_msgs / float(fast_msgs),
                 base.report.duration_ms / fast.report.duration_ms))
    bad = any(
        r.report.aborted or not r.loss_free for r, _ in rows
    )
    return 1 if bad else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    result = run_move_experiment(
        guarantee=args.guarantee,
        n_flows=args.flows,
        rate_pps=args.rate,
        seed=args.seed,
        observe=True,
    )
    text = result.deployment.obs.metrics.render_prometheus()
    if args.name_filter:
        blocks = []
        for block in text.split("# TYPE "):
            if block and block.startswith(args.name_filter):
                blocks.append("# TYPE " + block)
        text = "".join(blocks)
    sys.stdout.write(text)
    return 1 if result.report.aborted else 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs import ProgressReporter, format_top, snapshot_top

    def on_deployment(dep):
        reporter = ProgressReporter(
            dep,
            interval_ms=args.interval,
            sink=lambda snap: print(format_top(snap)),
        )
        reporter.start()

    result = run_move_experiment(
        guarantee=args.guarantee,
        n_flows=args.flows,
        rate_pps=args.rate,
        seed=args.seed,
        shards=args.shards,
        offload=True if args.offload else None,
        telemetry=True,
        on_deployment=on_deployment,
    )
    dep = result.deployment
    print(format_top(snapshot_top(dep)))
    print(result.report.summary())
    sampler = dep.obs.sampling
    if sampler is not None:
        stats = dep.obs.flush_sampling()
        print("sampling: %d/%d ops kept (%d head, %d tail, %d open), "
              "%d records gated at source"
              % (stats["ops_kept"], stats["ops_seen"], stats["ops_kept_head"],
                 stats["ops_kept_tail"], stats["ops_kept_open"],
                 stats["records_sampled_out"]))
    if args.jsonl:
        lines = dep.obs.timeseries.write_jsonl(args.jsonl)
        print("wrote %d time-series windows to %s" % (lines, args.jsonl))
    if args.prometheus:
        sys.stdout.write(dep.obs.timeseries.render_prometheus())
    return 1 if result.report.aborted else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.controller.move import Guarantee

    failures = 0
    for seed in range(args.seeds):
        lf = run_move_experiment(Guarantee.LOSS_FREE, n_flows=args.flows,
                                 rate_pps=args.rate, seed=seed)
        op = run_move_experiment(Guarantee.ORDER_PRESERVING,
                                 n_flows=args.flows,
                                 rate_pps=args.rate, seed=seed)
        ng = run_move_experiment(Guarantee.NONE, n_flows=args.flows,
                                 rate_pps=args.rate, seed=seed)
        checks = [
            ("LF move loss-free", lf.loss_free),
            ("OP move loss-free", op.loss_free),
            ("OP move order-preserving", op.order_preserving),
            ("NG move drops packets", ng.report.packets_dropped > 0),
        ]
        for label, ok in checks:
            status = "ok" if ok else "FAIL"
            print("seed %d: %-28s %s" % (seed, label, status))
            if not ok:
                failures += 1
    if failures:
        print("%d check(s) FAILED" % failures)
        return 1
    print("all guarantees hold across %d seeds" % args.seeds)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "version":
        print("opennf-repro %s" % __version__)
        return 0
    if args.command == "demo-move":
        return _cmd_demo_move(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "conform":
        return _cmd_conform(args)
    if args.command == "chain":
        return _cmd_chain(args)
    if args.command == "offload":
        return _cmd_offload(args)
    if args.command == "top":
        return _cmd_top(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
