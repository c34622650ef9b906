"""Timeline goldens: runs pinned byte-for-byte across commits.

Each run is reduced to one sha256 over everything observable about its
timeline — every NF's processing log, the number of simulator events,
each control channel's message and byte counters, and the operation
reports — and compared with a constant recorded from an earlier commit.
A refactor of the control plane that changes nothing may not move any
of these digests; a change that is meant to alter behaviour must
re-record them and say why.

The runs cover the single-shard path, the two-shard path with the
batched transport and switch offload on, a cross-shard ownership
handoff between two overlapping moves, the parallelized early-release
move and the parallel per-flow copy on the unbatched transport, and a
move whose flow space holds no state, with batching off and on.
"""

import dataclasses
import hashlib
import json

from repro.controller.move import Guarantee
from repro.flowspace import Filter
from repro.harness import Deployment, run_move_experiment
from repro.harness.scenarios import LOCAL_NET_FILTER
from repro.net.packet import reset_uid_counter
from repro.nfs.dummy import DummyNF

#: Digests recorded from the reference timeline (see module docstring).
GOLDEN_SMOKE_MOVE_1_SHARD = (
    "b51c6fd266926a85f464dec6e56e00c729b9c4d29f8dd0558711aa01fd8f2be7"
)
GOLDEN_SMOKE_MOVE_2_SHARDS_BATCHED_OFFLOAD = (
    "7acfc0f77686bd354ee1f9d8586092704e37e035ab9ba6777d23bbb4457eb285"
)
GOLDEN_CROSS_SHARD_PAIR = (
    "fbc294afae7618ad0ed6376b9e1c53cc96ea7c34268daf815b0b52510f5e3aaf"
)
GOLDEN_SMOKE_MOVE_EARLY_RELEASE = (
    "d032118aeacf2439a9b87b8bf23370d475db44f51548a1d2d41606d91320f7a2"
)
GOLDEN_COPY_PERFLOW = (
    "dd0358e5776f0a76a7d6a6cc70e772819f1f53f076bd31426788fb767d4e06d6"
)
GOLDEN_EMPTY_SCOPE_PAIR = (
    "ca517d37fb8213f0769bc3b5932d3f59e32ac40b9d70e0059096e4938d1a96aa"
)
#: Re-recorded when the unbatched and batched parallel transfers became
#: one framed path: a scope that exports no chunk no longer waits on the
#: empty put pipeline, one zero-delay simulator step fewer per empty
#: scope (200 -> 199 events here; sim times and messages unchanged).
GOLDEN_EMPTY_SCOPE_PAIR_BATCHED = (
    "6be1b7cf6668c75b2e1f1c4986622416f2063ec7ff12575da8566c63b605dcfe"
)


def _canonical(value):
    """JSON-ready form of a report field: sets sorted, enums by value."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(v) for v in value)
    if isinstance(value, Guarantee):
        return value.value
    return value


def timeline_digest(dep, reports) -> str:
    """sha256 over a deployment's timeline and its operation reports."""
    controller = dep.controller
    channels = []
    for name in sorted(controller.clients):
        client = controller.clients[name]
        channels.extend([client.to_nf, client.from_nf])
    switch_client = controller.switch_client
    channels.extend([switch_client.to_switch, switch_client.from_switch])
    payload = {
        "processing_logs": {
            name: [list(entry) for entry in nf.processing_log]
            for name, nf in sorted(dep.nfs.items())
        },
        "events_processed": dep.sim.events_processed,
        "channels": [
            [channel.name, channel.messages_sent, channel.bytes_sent]
            for channel in channels
        ],
        "reports": [_canonical(dataclasses.asdict(r)) for r in reports],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def smoke_move_digest(**kwargs) -> str:
    """The ``bench_smoke`` move: 120 flows at 2,500 pps, seed 7."""
    reset_uid_counter()
    result = run_move_experiment(
        guarantee=Guarantee.LOSS_FREE, parallel=True, n_flows=120,
        rate_pps=2500.0, seed=7, **kwargs
    )
    assert result.loss_free
    return timeline_digest(result.deployment, [result.report])


def cross_shard_pair_digest() -> str:
    """Two overlapping moves homed on different shards: one handoff."""
    reset_uid_counter()
    dep = Deployment(shards=2)
    nfs = {}
    for name in ("inst1", "inst2", "inst3", "inst4"):
        nfs[name] = DummyNF(dep.sim, name)
        dep.add_nf(nfs[name])
    nfs["inst3"].preload(40, base_ip="172.17.0.0")
    right = Filter({"nw_src": "172.17.0.0/16"}, symmetric=True)
    first = dep.controller.move("inst3", "inst4", right,
                                guarantee=Guarantee.LOSS_FREE)
    later = []
    dep.sim.schedule(1.0, lambda: later.append(dep.controller.move(
        "inst4", "inst2", Filter({"nw_proto": 6}))))
    dep.run()
    assert dep.controller.handoffs_completed == 1
    return timeline_digest(dep, [first.report, later[0].report])


def copy_perflow_digest() -> str:
    """The ``bench_smoke`` trace with a parallel per-flow copy instead."""
    reset_uid_counter()
    result = run_move_experiment(
        n_flows=120, rate_pps=2500.0, seed=7,
        operation=lambda dep: dep.controller.copy(
            "inst1", "inst2", LOCAL_NET_FILTER, scope="per"
        ),
    )
    return timeline_digest(result.deployment, [result.report])


def empty_scope_pair_digest(batching) -> str:
    """A loss-free move of a flow space that holds no state, then a
    loss-free order-preserving move of one that does."""
    reset_uid_counter()
    dep = Deployment(batching=batching)
    for name in ("inst1", "inst2"):
        dep.add_nf(DummyNF(dep.sim, name))
    dep.nfs["inst1"].preload(40, base_ip="172.17.0.0")
    empty = dep.controller.move(
        "inst1", "inst2", Filter({"nw_src": "172.18.0.0/16"}),
        guarantee=Guarantee.LOSS_FREE,
    )
    later = []
    dep.sim.schedule(1.0, lambda: later.append(dep.controller.move(
        "inst1", "inst2", Filter({"nw_src": "172.17.0.0/16"}),
        guarantee=Guarantee.ORDER_PRESERVING,
    )))
    dep.run()
    reports = [empty.report, later[0].report]
    assert not any(report.aborted for report in reports)
    assert not reports[0].chunks_moved and reports[1].chunks_moved
    return timeline_digest(dep, reports)


def test_smoke_move_one_shard_matches_golden():
    assert smoke_move_digest(shards=1) == GOLDEN_SMOKE_MOVE_1_SHARD


def test_smoke_move_two_shards_batched_offload_matches_golden():
    digest = smoke_move_digest(shards=2, batching=True, offload=True)
    assert digest == GOLDEN_SMOKE_MOVE_2_SHARDS_BATCHED_OFFLOAD


def test_cross_shard_move_pair_matches_golden():
    assert cross_shard_pair_digest() == GOLDEN_CROSS_SHARD_PAIR


def test_smoke_move_early_release_matches_golden():
    digest = smoke_move_digest(shards=1, early_release=True)
    assert digest == GOLDEN_SMOKE_MOVE_EARLY_RELEASE


def test_parallel_copy_matches_golden():
    assert copy_perflow_digest() == GOLDEN_COPY_PERFLOW


def test_empty_scope_move_matches_golden():
    assert empty_scope_pair_digest(None) == GOLDEN_EMPTY_SCOPE_PAIR


def test_empty_scope_move_batched_matches_golden():
    digest = empty_scope_pair_digest(True)
    assert digest == GOLDEN_EMPTY_SCOPE_PAIR_BATCHED
