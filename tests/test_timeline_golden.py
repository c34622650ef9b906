"""Timeline goldens: three runs pinned byte-for-byte across commits.

Each run is reduced to one sha256 over everything observable about its
timeline — every NF's processing log, the number of simulator events,
each control channel's message and byte counters, and the operation
reports — and compared with a constant recorded from an earlier commit.
A refactor of the control plane that changes nothing may not move any
of these digests; a change that is meant to alter behaviour must
re-record them and say why.

The three runs cover the single-shard path, the two-shard path with the
batched transport and switch offload on, and a cross-shard ownership
handoff between two overlapping moves.
"""

import dataclasses
import hashlib
import json

from repro.controller.move import Guarantee
from repro.flowspace import Filter
from repro.harness import Deployment, run_move_experiment
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


def test_smoke_move_one_shard_matches_golden():
    assert smoke_move_digest(shards=1) == GOLDEN_SMOKE_MOVE_1_SHARD


def test_smoke_move_two_shards_batched_offload_matches_golden():
    digest = smoke_move_digest(shards=2, batching=True, offload=True)
    assert digest == GOLDEN_SMOKE_MOVE_2_SHARDS_BATCHED_OFFLOAD


def test_cross_shard_move_pair_matches_golden():
    assert cross_shard_pair_digest() == GOLDEN_CROSS_SHARD_PAIR
