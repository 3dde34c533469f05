"""Tests for distributed PageRank — exactness vs the single-machine reference."""

import numpy as np
import pytest

from repro.allreduce import KylixAllreduce, TreeAllreduce
from repro.apps import DistributedPageRank, reference_pagerank, spmv_cost_bytes
from repro.cluster import Cluster
from repro.data import powerlaw_graph, random_edge_partition, ring_graph


@pytest.fixture(scope="module")
def small_graph():
    return powerlaw_graph(400, 3_000, alpha=0.8, seed=11)


def run_distributed(graph, m, degrees, iterations=6, **kw):
    parts = random_edge_partition(graph, m, seed=12)
    cluster = Cluster(m)
    pr = DistributedPageRank(KylixAllreduce(cluster, degrees), parts, **kw)
    result = pr.run(iterations)
    return pr, result


class TestCorrectness:
    @pytest.mark.parametrize("m,degrees", [(2, [2]), (4, [2, 2]), (8, [4, 2])])
    def test_matches_reference_exactly(self, small_graph, m, degrees):
        pr, result = run_distributed(small_graph, m, degrees)
        v = pr.global_vector(result)
        ref = reference_pagerank(small_graph.to_csr(), iterations=6)
        np.testing.assert_allclose(v, ref, rtol=1e-9, atol=1e-14)

    def test_direct_and_kylix_agree(self, small_graph):
        parts = random_edge_partition(small_graph, 4, seed=12)
        a = DistributedPageRank(KylixAllreduce(Cluster(4), [4]), parts)
        b = DistributedPageRank(KylixAllreduce(Cluster(4), [2, 2]), parts)
        va = a.global_vector(a.run(4))
        vb = b.global_vector(b.run(4))
        np.testing.assert_allclose(va, vb, atol=1e-12)

    def test_ranks_sum_near_one(self, small_graph):
        """Probability mass is conserved up to dangling-vertex leakage."""
        pr, result = run_distributed(small_graph, 4, [2, 2], iterations=20)
        total = pr.global_vector(result).sum()
        assert 0.3 < total <= 1.0 + 1e-9

    def test_ring_uniform_pagerank(self):
        """On a directed ring every vertex has identical PageRank."""
        g = ring_graph(16)
        parts = random_edge_partition(g, 4, seed=1)
        pr = DistributedPageRank(KylixAllreduce(Cluster(4), [2, 2]), parts)
        result = pr.run(15)
        v = pr.global_vector(result)
        np.testing.assert_allclose(v, 1.0 / 16, atol=1e-6)

    def test_convergence_with_more_iterations(self, small_graph):
        ref_50 = reference_pagerank(small_graph.to_csr(), iterations=50)
        pr, result = run_distributed(small_graph, 4, [2, 2], iterations=50)
        np.testing.assert_allclose(pr.global_vector(result), ref_50, atol=1e-12)


class TestTimingAccounting:
    def test_iteration_timings_positive(self, small_graph):
        _, result = run_distributed(small_graph, 4, [2, 2], iterations=3)
        assert len(result.iterations) == 3
        for t in result.iterations:
            assert t.compute > 0 and t.comm > 0
        assert result.mean_iteration == pytest.approx(
            result.mean_compute + result.mean_comm
        )

    def test_config_time_recorded_once(self, small_graph):
        pr, result = run_distributed(small_graph, 4, [2, 2], iterations=2)
        assert result.config_time > 0
        again = pr.run(2)
        assert again.config_time == 0.0  # already configured

    def test_compute_scale_slows_compute_only(self, small_graph):
        parts = random_edge_partition(small_graph, 4, seed=12)
        fast = DistributedPageRank(KylixAllreduce(Cluster(4), [2, 2]), parts).run(2)
        slow = DistributedPageRank(
            KylixAllreduce(Cluster(4), [2, 2]),
            parts,
            compute_scale=5.0,
        ).run(2)
        assert slow.mean_compute == pytest.approx(5 * fast.mean_compute, rel=0.01)

    def test_spmv_cost_model(self):
        assert spmv_cost_bytes(100, 10, 20) == 16 * 100 + 8 * 30
        assert spmv_cost_bytes(0, 0, 0) == 0


class TestValidation:
    def test_partition_count_must_match(self, small_graph):
        parts = random_edge_partition(small_graph, 4, seed=0)
        with pytest.raises(ValueError):
            DistributedPageRank(KylixAllreduce(Cluster(8), [8]), parts)

    def test_damping_validated(self, small_graph):
        parts = random_edge_partition(small_graph, 4, seed=0)
        with pytest.raises(ValueError):
            DistributedPageRank(KylixAllreduce(Cluster(4), [4]), parts, damping=1.5)
