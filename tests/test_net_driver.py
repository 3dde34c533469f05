"""The one driver of the real backends (repro.net.base.KylixDriver).

Forked and attached nodes run the same driver: a fault plan no longer
bars multi-round sessions, an attached driver settles an unreachable
node as lost, and a session reports every rank's error while
``allreduce`` raises at the first.
"""

import socket

import numpy as np
import pytest

from repro.allreduce import ReduceSpec, dense_reduce
from repro.faults import FaultPlan, LinkFault, PeerFailedError, RetryPolicy
from repro.net import LocalKylix
from repro.net.cluster import ClusterKylix


def make_case(m, n, seed):
    rng = np.random.default_rng(seed)
    idx = {
        r: np.unique(np.concatenate([rng.choice(n, 40), np.arange(r, n, m)]))
        for r in range(m)
    }
    spec = ReduceSpec(in_indices=idx, out_indices=idx)
    vals = {r: rng.normal(size=idx[r].size) for r in range(m)}
    return spec, vals


def closed_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def unreachable_manifest(size):
    return {
        "cluster": {"size": size, "host": "127.0.0.1", "workdir": "."},
        "nodes": {
            f"node{r}": {"rank": r, "host": "127.0.0.1", "port": closed_port(), "pid": 0}
            for r in range(size)
        },
    }


def test_rounds_under_a_delay_plan_each_equal_the_dense_reference():
    spec, vals = make_case(4, 300, 3)
    net = LocalKylix(
        [2, 2],
        faults=FaultPlan().with_rule(LinkFault(src=1, delay=0.05)),
        retry=RetryPolicy(base_timeout=0.25, max_retries=4),
        timeout=60.0,
    )
    rounds = net.allreduce_rounds(spec, [vals] * 3)
    assert len(rounds) == 3
    ref = dense_reduce(spec, vals)
    for out in rounds:
        for r in range(4):
            np.testing.assert_allclose(out[r], ref[r], atol=1e-12)


def test_unreachable_nodes_settle_lost_and_the_session_keeps_every_error():
    spec, vals = make_case(2, 100, 4)
    net = ClusterKylix(unreachable_manifest(2), [2], timeout=5.0)
    with pytest.raises(PeerFailedError) as info:
        net.allreduce(spec, vals)
    assert info.value.slot == 0
    out = net.run_session(spec, [vals])
    assert out.dead == [0, 1] and out.rounds == {}
    assert sorted(out.errors) == [0, 1]
    assert all("connect to node" in str(exc) for exc in out.errors.values())


def test_attached_driver_needs_the_manifest_to_cover_its_degrees():
    with pytest.raises(ValueError, match="needs 4 nodes"):
        ClusterKylix(unreachable_manifest(2), [2, 2])
    # Forking options are not the attached driver's.
    with pytest.raises(TypeError):
        ClusterKylix(unreachable_manifest(2), [2], join_timeout=1.0)


def test_a_config_phase_kill_is_rejected_before_any_node_starts():
    """The real backends run the combined protocol, so a config-phase
    kill never matches a step: accepting it would run a fault-free
    session under a schedule that names a death."""
    plan = FaultPlan().kill_at_step(1, "config", 1)
    for make in (
        lambda: LocalKylix([4, 2], faults=plan, degrade=True),
        lambda: ClusterKylix(unreachable_manifest(8), [4, 2], faults=plan),
    ):
        with pytest.raises(ValueError, match="node 1"):
            make()
    LocalKylix([4, 2], faults=FaultPlan().kill_at_step(1, "down", 1))  # accepted
