"""Replication-factor sweep: the cost curve of fault tolerance.

Table I only measures s=2.  The simulator extends the curve: at fixed
physical cluster size, higher replication means fewer logical slots
(less parallelism) and more duplicate packets, but more failures
survived.  The overhead should grow clearly sub-linearly in s thanks to
packet racing — the paper's "modest overhead" claim, quantified.
"""

import numpy as np
from conftest import emit

from repro.allreduce import KylixAllreduce, expected_failures_survived
from repro.bench import format_seconds, format_table, scaled_params
from repro.cluster import Cluster
from repro.data import random_edge_partition, spmv_spec
from repro.design import optimal_degrees


def _time_replicated(dataset, s, m_phys=48, reduce_iters=2, seed=3):
    m_log = m_phys // s
    parts = random_edge_partition(dataset.graph, m_log, seed=5)
    spec = spmv_spec(parts)
    values = {p.rank: np.ones(p.out_vertices.size) for p in parts}
    params = scaled_params(dataset)
    cluster = Cluster(m_phys, params=params, seed=seed)
    degrees = optimal_degrees(
        dataset.model(), m_log,
        min_packet_bytes=params.min_efficient_packet(0.85) * (4 / 16),
        bytes_per_element=4,
    )
    net = KylixAllreduce(cluster, degrees, replication=s, strict_coverage=False)
    net.configure(spec)
    cfg = net.config_timing.elapsed
    t0 = cluster.now
    for _ in range(reduce_iters):
        net.reduce(values)
    return cfg, (cluster.now - t0) / reduce_iters, m_log


def test_ablation_replication_factor_sweep(benchmark, twitter64):
    rows = []
    times = {}
    for s in (1, 2, 3):
        cfg, red, m_log = _time_replicated(twitter64, s)
        times[s] = cfg + red
        rows.append(
            (
                s,
                m_log,
                format_seconds(cfg),
                format_seconds(red),
                f"~{expected_failures_survived(m_log, s):.0f}"
                if s > 1
                else "0",
            )
        )
    benchmark.pedantic(
        lambda: _time_replicated(twitter64, 2), rounds=1, iterations=1
    )

    emit(
        format_table(
            ["s", "logical slots", "config", "reduce", "failures survived"],
            rows,
            title="Ablation: replication factor sweep (48 physical nodes)",
        )
    )

    # Monotone cost in s, but clearly sub-linear: s=3 costs far less
    # than 3x the unreplicated network (racing + shared physical fabric).
    assert times[1] <= times[2] <= times[3] * 1.05
    assert times[3] < 3.0 * times[1]
