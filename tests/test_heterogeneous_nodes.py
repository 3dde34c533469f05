"""Tests for heterogeneous node speeds (§II's variable node performance)."""

import numpy as np
import pytest

from repro.allreduce import KylixAllreduce
from repro.apps import DistributedPageRank, reference_pagerank
from repro.cluster import Cluster
from repro.data import powerlaw_graph, random_edge_partition


class TestNodeSpeeds:
    def test_slow_node_takes_longer(self):
        c = Cluster(2, node_speeds=[1.0, 0.5])

        def proto(node):
            yield node.compute(1.0)

        c.run(proto)
        assert c.compute_seconds[0] == pytest.approx(1.0)
        assert c.compute_seconds[1] == pytest.approx(2.0)
        assert c.now == pytest.approx(2.0)  # makespan set by the straggler

    def test_default_is_homogeneous(self):
        c = Cluster(4)
        assert c.node_speeds == [1.0, 1.0, 1.0, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Cluster(2, node_speeds=[1.0])
        with pytest.raises(ValueError):
            Cluster(2, node_speeds=[1.0, 0.0])
        with pytest.raises(ValueError):
            Cluster(2, node_speeds=[1.0, -2.0])

    def test_parallel_compute_waits_for_straggler(self):
        c = Cluster(3, node_speeds=[1.0, 1.0, 0.25])
        elapsed = c.parallel_compute({0: 1.0, 1: 1.0, 2: 1.0})
        assert elapsed == pytest.approx(4.0)

    def test_protocol_correct_with_stragglers(self):
        """A 4x-slower machine delays but never corrupts the allreduce."""
        g = powerlaw_graph(200, 1_500, seed=8)
        parts = random_edge_partition(g, 4, seed=9)
        slow = Cluster(4, node_speeds=[1.0, 1.0, 1.0, 0.25])
        pr = DistributedPageRank(KylixAllreduce(slow, [2, 2]), parts)
        res = pr.run(5)
        ref = reference_pagerank(g.to_csr(), iterations=5)
        np.testing.assert_allclose(pr.global_vector(res), ref, atol=1e-12)

    def test_straggler_inflates_iteration_time(self):
        g = powerlaw_graph(300, 3_000, seed=10)
        parts = random_edge_partition(g, 4, seed=11)

        def run(speeds):
            cluster = Cluster(4, node_speeds=speeds, compute_rate=1e8)
            pr = DistributedPageRank(KylixAllreduce(cluster, [2, 2]), parts)
            return pr.run(3).mean_compute

        fast = run([1.0] * 4)
        slow = run([1.0, 1.0, 1.0, 0.25])
        assert slow > 2.0 * fast  # makespan follows the slowest machine
