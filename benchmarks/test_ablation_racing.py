"""§V-B ablation: packet racing pays off on jittery networks.

Paper claim reproduced here: "replication offers potential gains on
networks with high latency or throughput variance, because they create a
race for the fastest response (in contrast to the non-replicate network
which is instead driven by the slowest path in the network)."

Measured as: the *relative* overhead of replication (replicated vs
unreplicated reduce time) shrinks as network variance grows — racing
absorbs part of the tail that the unreplicated network must eat.
"""

from dataclasses import replace

import numpy as np
from conftest import emit

from repro.allreduce import KylixAllreduce
from repro.bench import format_table, scaled_params
from repro.cluster import Cluster
from repro.data import random_edge_partition, spmv_spec


def _reduce_time(net, cluster, spec, values, iters=3):
    net.configure(spec)
    t0 = cluster.now
    for _ in range(iters):
        net.reduce(values)
    return (cluster.now - t0) / iters


def _overhead_at_sigma(dataset, sigma, seed=5):
    parts32 = random_edge_partition(dataset.graph, 32, seed=3)
    spec = spmv_spec(parts32)
    values = {p.rank: np.ones(p.out_vertices.size) for p in parts32}
    params = replace(
        scaled_params(dataset), latency_sigma=sigma, service_sigma=sigma
    )

    plain_cluster = Cluster(32, params=params, seed=seed)
    plain = KylixAllreduce(plain_cluster, [8, 4], strict_coverage=False)
    t_plain = _reduce_time(plain, plain_cluster, spec, values)

    rep_cluster = Cluster(64, params=params, seed=seed)
    rep = KylixAllreduce(rep_cluster, [8, 4], replication=2, strict_coverage=False)
    t_rep = _reduce_time(rep, rep_cluster, spec, values)
    return t_rep / t_plain


def test_ablation_packet_racing(benchmark, twitter64):
    sigmas = [0.0, 0.8, 1.6]
    ratios = {s: _overhead_at_sigma(twitter64, s) for s in sigmas}
    benchmark.pedantic(
        lambda: _overhead_at_sigma(twitter64, 0.8), rounds=1, iterations=1
    )

    emit(
        format_table(
            ["jitter sigma", "replicated/unreplicated reduce time"],
            [(s, f"{r:.2f}x") for s, r in ratios.items()],
            title="Ablation: packet racing vs network variance (8x4, s=2)",
        )
    )

    # Replication costs extra in all regimes, but never the worst-case 2x+
    # when racing can win, and the overhead shrinks with variance.
    assert ratios[1.6] < ratios[0.0]
    assert ratios[1.6] < 2.0
