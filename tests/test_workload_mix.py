"""Integration: several workloads sharing one cluster, plus hygiene checks."""

import numpy as np
import pytest

from repro.allreduce import KylixAllreduce, ReduceSpec, dense_reduce
from repro.apps import (
    DistributedComponents,
    DistributedPageRank,
    DistributedSGD,
    reference_pagerank,
)
from repro.cluster import Cluster
from repro.data import MinibatchStream, powerlaw_graph, random_edge_partition


class TestSharedCluster:
    def test_sequential_workloads_on_one_cluster(self):
        """PageRank, components and SGD run back-to-back on the same
        simulated cluster; each is exact and the clock only advances."""
        m = 4
        g = powerlaw_graph(200, 1_500, seed=41)
        parts = random_edge_partition(g, m, seed=42)
        cluster = Cluster(m)
        marks = [cluster.now]

        pr = DistributedPageRank(KylixAllreduce(cluster, [2, 2]), parts)
        res = pr.run(4)
        np.testing.assert_allclose(
            pr.global_vector(res),
            reference_pagerank(g.to_csr(), iterations=4),
            atol=1e-12,
        )
        marks.append(cluster.now)

        cc = DistributedComponents(KylixAllreduce(cluster, [2, 2]), parts)
        cc.run()
        marks.append(cluster.now)

        stream = MinibatchStream(64, batch_size=16, nnz_per_example=6, seed=7)
        sgd = DistributedSGD(KylixAllreduce(cluster, [2, 2]), 64)
        sgd.run({r: stream.node_stream(r, 4) for r in range(m)})
        marks.append(cluster.now)

        assert all(a < b for a, b in zip(marks, marks[1:]))

    def test_no_mailbox_leaks_unreplicated(self):
        """Every message of an unreplicated protocol is consumed."""
        m = 8
        rng = np.random.default_rng(0)
        idx = {
            r: np.unique(np.concatenate([rng.choice(100, 20), np.arange(r, 100, m)]))
            for r in range(m)
        }
        spec = ReduceSpec(idx, idx)
        vals = {r: np.ones(idx[r].size) for r in range(m)}
        cluster = Cluster(m)
        net = KylixAllreduce(cluster, [4, 2])
        for _ in range(3):
            net.allreduce(spec, vals)
            assert cluster.pending_messages() == 0
        net.allreduce_combined(spec, vals)
        assert cluster.pending_messages() == 0

    def test_replicated_leaves_only_race_losers(self):
        m_log, s = 4, 2
        rng = np.random.default_rng(1)
        idx = {r: np.arange(r, 60, m_log) for r in range(m_log)}
        spec = ReduceSpec(idx, idx)
        vals = {r: np.ones(idx[r].size) for r in range(m_log)}
        cluster = Cluster(8)
        net = KylixAllreduce(cluster, [2, 2], replication=s)
        net.configure(spec)
        got = net.reduce(vals)
        ref = dense_reduce(spec, vals)
        for r in range(m_log):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-12)
        # duplicates (race losers) remain, but bounded by total sent
        leftover = cluster.pending_messages()
        assert 0 < leftover < cluster.stats.total_messages()

    def test_two_networks_share_one_cluster(self):
        """Two differently-named allreduce networks interleave safely."""
        m = 4
        rng = np.random.default_rng(2)
        idx = {r: np.arange(r, 80, m) for r in range(m)}
        spec = ReduceSpec(idx, idx)
        vals = {r: rng.normal(size=idx[r].size) for r in range(m)}
        ref = dense_reduce(spec, vals)
        cluster = Cluster(m)
        a = KylixAllreduce(cluster, [2, 2], name="netA")
        b = KylixAllreduce(cluster, [4], name="netB")
        a.configure(spec)
        b.configure(spec)
        got_a = a.reduce(vals)
        got_b = b.reduce(vals)
        for r in range(m):
            np.testing.assert_allclose(got_a[r], ref[r], atol=1e-12)
            np.testing.assert_allclose(got_b[r], ref[r], atol=1e-12)
        assert cluster.pending_messages() == 0
