"""Golden values of the simulator: what no speed-up of it may move.

Every literal in ``GOLDEN`` was captured at the parent commit of the PR
that gave the simulator its per-message budget (one wake-up per layer)
and is asserted unchanged since: the virtual clock, the per-(phase,
layer) traffic cells, the message count and a digest of the reduced
values, for five configurations that between them cross every receive
path — the plain cached reduce, a jittered fabric (the shared jitter
stream's draw order is what is under test), racing replica copies, the
deadline/NACK loop, and a service wave of concurrent instances.

The one number here that is *meant* to differ from that parent is the
engine-event count of a cached reduce (``TestEventBudget``): 3 584 per
reduce when every message woke its receiver, 2 432 with one wake-up per
layer.  The deadline path's event count is pinned in ``GOLDEN`` like
everything else: it keeps its per-message timer restart.

``python tests/test_sim_golden.py`` prints the current values.
"""

import hashlib
from dataclasses import astuple

import numpy as np
import pytest

from repro.allreduce import KylixAllreduce, ReduceSpec
from repro.cluster import Cluster
from repro.faults import FaultPlan, LinkFault, RetryPolicy
from repro.netmodel import EC2_LIKE, NetworkParams
from repro.service import ReduceService


def make_case(m, n, seed, k=60):
    rng = np.random.default_rng(seed)
    idx = {
        r: np.unique(np.concatenate([rng.choice(n, k), np.arange(r, n, m)]))
        for r in range(m)
    }
    spec = ReduceSpec(in_indices=idx, out_indices=idx)
    vals = {r: rng.normal(size=idx[r].size) for r in range(m)}
    return spec, vals


def snapshot(cluster, rounds):
    """Everything a run leaves behind that must not move."""
    h = hashlib.sha256()
    for out in rounds:
        for rank in sorted(out):
            h.update(np.ascontiguousarray(out[rank]).tobytes())
    stats = cluster.stats
    return {
        "now": repr(cluster.now),
        "messages": stats.total_messages(),
        "cells": {
            f"{phase}/L{layer}": astuple(stats.cell(phase, layer))
            for phase in stats.phases
            for layer in stats.layers(phase)
        },
        "sha256": h.hexdigest(),
    }


def configure_and_reduce_twice(net, spec, vals):
    net.configure(spec)
    return [net.reduce(vals), net.reduce({r: 2.0 * v for r, v in vals.items()})]


def run_plain64():
    spec, vals = make_case(64, 6000, seed=18)
    cluster = Cluster(64)
    net = KylixAllreduce(cluster, degrees=[4, 4, 4])
    return snapshot(cluster, configure_and_reduce_twice(net, spec, vals))


JITTERY = NetworkParams(
    bandwidth=EC2_LIKE.bandwidth,
    message_overhead=EC2_LIKE.message_overhead,
    base_latency=EC2_LIKE.base_latency,
    latency_sigma=0.6,
    service_sigma=0.3,
    incast_overhead=2.0e-5,
    per_byte_cpu=EC2_LIKE.per_byte_cpu,
    recv_byte_cpu=1.0e-9,
)


def run_jitter16(seed):
    spec, vals = make_case(16, 2000, seed=7)
    cluster = Cluster(16, JITTERY, seed=seed, threads=4)
    net = KylixAllreduce(cluster, degrees=[4, 4])
    return snapshot(cluster, configure_and_reduce_twice(net, spec, vals))


def run_replicated():
    """r=2 over 16 physical nodes, node 3 dead from the start: every live
    slot receives two racing copies of each part, the dead one's partner
    group one."""
    spec, vals = make_case(8, 1500, seed=5)
    cluster = Cluster(
        16, JITTERY, seed=2, failures=FaultPlan().kill(3)
    )
    net = KylixAllreduce(cluster, degrees=[4, 2], replication=2)
    snap = snapshot(cluster, configure_and_reduce_twice(net, spec, vals))
    snap["left_in_mailboxes"] = cluster.pending_messages()
    snap["dropped"] = cluster.fabric.dropped
    return snap


def run_deadline():
    """A lossy link under a RetryPolicy: the per-message deadline/NACK
    loop, whose engine events are pinned too."""
    spec, vals = make_case(8, 1500, seed=9)
    plan = FaultPlan(seed=4).with_rule(LinkFault(drop=0.15, duplicate=0.05))
    cluster = Cluster(8, failures=plan, record_trace=True)
    net = KylixAllreduce(cluster, degrees=[4, 2], retry=RetryPolicy())
    snap = snapshot(cluster, configure_and_reduce_twice(net, spec, vals))
    snap["engine_events"] = len(cluster.engine.trace)
    snap["injected"] = dict(cluster.fabric.injected)
    snap["duplicates_dropped"] = net.duplicates_dropped
    return snap


def run_service_wave():
    """Four streams submitted together: one cluster run, four concurrent
    protocol instances sharing every mailbox."""
    cluster = Cluster(16)
    svc = ReduceService("sim", cluster=cluster, degrees=[4, 4], slots=4)
    cases = [make_case(16, 2000, seed=30 + s) for s in range(4)]
    for s, (spec, _) in enumerate(cases):
        svc.open_stream(f"s{s}", spec)
    rounds = []
    for scale in (1.0, 3.0):  # first wave configures (4 misses), second is cached
        futs = [
            svc.submit(f"s{s}", {r: scale * v for r, v in vals.items()})
            for s, (_, vals) in enumerate(cases)
        ]
        rounds.extend(f.result() for f in futs)
    return snapshot(cluster, rounds)


RUNS = {
    "plain64": run_plain64,
    "jitter16_seed0": lambda: run_jitter16(0),
    "jitter16_seed1": lambda: run_jitter16(1),
    "replicated_r2_one_dead": run_replicated,
    "deadline_linkfault": run_deadline,
    "service_wave4": run_service_wave,
}

GOLDEN = {'deadline_linkfault': {'cells': {'config/L1': (27, 25952, 8, 7344, 3, 2896),
                                  'config/L2': (8, 13664, 8, 13616, 0, 0),
                                  'gather_up/L1': (55, 26392, 16, 7344, 7, 3336),
                                  'gather_up/L2': (18, 15392, 16, 13616, 2, 1728),
                                  'reduce_down/L1': (58, 27688, 16, 7344, 10, 4632),
                                  'reduce_down/L2': (22, 18800, 16, 13616, 6, 5136)},
                        'duplicates_dropped': 3,
                        'engine_events': 1192,
                        'injected': {'delayed': 0, 'dropped': 27, 'duplicated': 4, 'resent': 28},
                        'messages': 268,
                        'now': '0.09099410919999999',
                        'sha256': '869155f3335472174c8aa76c70b9b29d65519de3889b8c92c6bad58a0a47a04f'},
 'jitter16_seed0': {'cells': {'config/L1': (48, 35488, 16, 10720, 0, 0),
                              'config/L2': (48, 32448, 16, 10688, 0, 0),
                              'gather_up/L1': (96, 35488, 32, 10720, 0, 0),
                              'gather_up/L2': (96, 32448, 32, 10688, 0, 0),
                              'reduce_down/L1': (96, 35488, 32, 10720, 0, 0),
                              'reduce_down/L2': (96, 32448, 32, 10688, 0, 0)},
                    'messages': 640,
                    'now': '0.016652149560553',
                    'sha256': '06500c4fa2fe5abc674fa585954955a29bcf8003924ff9321d9c0836d73b41d5'},
 'jitter16_seed1': {'cells': {'config/L1': (48, 35488, 16, 10720, 0, 0),
                              'config/L2': (48, 32448, 16, 10688, 0, 0),
                              'gather_up/L1': (96, 35488, 32, 10720, 0, 0),
                              'gather_up/L2': (96, 32448, 32, 10688, 0, 0),
                              'reduce_down/L1': (96, 35488, 32, 10720, 0, 0),
                              'reduce_down/L2': (96, 32448, 32, 10688, 0, 0)},
                    'messages': 640,
                    'now': '0.017085493154619765',
                    'sha256': '06500c4fa2fe5abc674fa585954955a29bcf8003924ff9321d9c0836d73b41d5'},
 'plain64': {'cells': {'config/L1': (192, 117776, 64, 38624, 0, 0),
                       'config/L2': (192, 114656, 64, 38032, 0, 0),
                       'config/L3': (192, 103872, 64, 34624, 0, 0),
                       'gather_up/L1': (384, 117776, 128, 38624, 0, 0),
                       'gather_up/L2': (384, 114656, 128, 38032, 0, 0),
                       'gather_up/L3': (384, 103872, 128, 34624, 0, 0),
                       'reduce_down/L1': (384, 117776, 128, 38624, 0, 0),
                       'reduce_down/L2': (384, 114656, 128, 38032, 0, 0),
                       'reduce_down/L3': (384, 103872, 128, 34624, 0, 0)},
             'messages': 3840,
             'now': '0.013104714400000002',
             'sha256': 'ad22df85b926be95df6411fba80f126fd5078a3789a0edd2fb296405caf47adb'},
 'replicated_r2_one_dead': {'cells': {'config/L1': (98, 94528, 15, 14192, 0, 0),
                                      'config/L2': (42, 72544, 15, 25712, 0, 0),
                                      'gather_up/L1': (196, 94528, 30, 14192, 0, 0),
                                      'gather_up/L2': (84, 72544, 30, 25712, 0, 0),
                                      'reduce_down/L1': (196, 94528, 30, 14192, 0, 0),
                                      'reduce_down/L2': (84, 72544, 30, 25712, 0, 0)},
                            'dropped': 50,
                            'left_in_mailboxes': 279,
                            'messages': 850,
                            'now': '0.012862020921083335',
                            'sha256': '01a6d75531499a125e48c640a56bc5fbbccae3cace79681671bfd204a6cf33f1'},
 'service_wave4': {'cells': {'config/L1': (192, 140208, 64, 44800, 0, 0),
                             'config/L2': (192, 129584, 64, 41872, 0, 0),
                             'gather_up/L1': (384, 140208, 128, 44800, 0, 0),
                             'gather_up/L2': (384, 129584, 128, 41872, 0, 0),
                             'reduce_down/L1': (384, 140208, 128, 44800, 0, 0),
                             'reduce_down/L2': (384, 129584, 128, 41872, 0, 0)},
                   'messages': 2560,
                   'now': '0.014046794400000017',
                   'sha256': 'a1884a128750935b3323ad27a0e3e6101e31102bf34861985e9f364d129cb1aa'}}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden(name):
    got = RUNS[name]()
    want = GOLDEN[name]
    assert got["now"] == want["now"]  # repr: every bit of the virtual clock
    assert got == want


class TestEventBudget:
    """One exchange = d deliveries + 1 wake-up + 1 compute."""

    def test_cached_64_node_reduce_is_1536_messages_and_2432_events(self):
        spec, vals = make_case(64, 6000, seed=18)
        cluster = Cluster(64, record_trace=True)
        net = KylixAllreduce(cluster, degrees=[4, 4, 4])
        net.configure(spec)
        net.reduce(vals)
        events, messages = len(cluster.engine.trace), cluster.stats.total_messages()
        net.reduce(vals)
        # 64 nodes x 6 exchanges (3 down, 3 up) x 4 parts, the node's own included
        assert cluster.stats.total_messages() - messages == 64 * 6 * 4 == 1536
        # 64 boots + 384 exchanges x (4 deliveries + 1 wake-up + 1 compute)
        # + 64 process completions
        assert len(cluster.engine.trace) - events == 64 + 384 * 6 + 64 == 2432


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: run() for name, run in sorted(RUNS.items())}, width=100)
