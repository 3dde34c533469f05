"""Tests for greedy edge partitioning (the PowerGraph heuristic, §II-B)."""

import numpy as np
import pytest

from repro.data import (
    EdgeGraph,
    greedy_edge_partition,
    partition_density,
    powerlaw_graph,
    random_edge_partition,
    replication_factor,
    ring_graph,
    spmv_spec,
)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(3_000, 20_000, alpha=0.9, seed=17)


class TestGreedyPartition:
    def test_preserves_edge_multiset(self, graph):
        parts = greedy_edge_partition(graph, 8, seed=1)
        pairs = np.sort(
            np.concatenate([p.src * graph.n_vertices + p.dst for p in parts])
        )
        np.testing.assert_array_equal(
            pairs, np.sort(graph.src * graph.n_vertices + graph.dst)
        )

    def test_load_balanced(self, graph):
        parts = greedy_edge_partition(graph, 8, seed=1)
        sizes = [p.n_edges for p in parts]
        assert max(sizes) - min(sizes) <= max(2, 0.02 * graph.n_edges / 8)

    def test_lower_replication_than_random(self, graph):
        rand = random_edge_partition(graph, 8, seed=2)
        greedy = greedy_edge_partition(graph, 8, seed=2)
        assert replication_factor(greedy) < 0.8 * replication_factor(rand)

    def test_lower_density_than_random(self, graph):
        rand = random_edge_partition(graph, 8, seed=3)
        greedy = greedy_edge_partition(graph, 8, seed=3)
        assert partition_density(greedy) < partition_density(rand)

    def test_vertex_sets_consistent(self, graph):
        for p in greedy_edge_partition(graph, 4, seed=4):
            np.testing.assert_array_equal(p.in_vertices, np.unique(p.src))
            np.testing.assert_array_equal(p.out_vertices, np.unique(p.dst))

    def test_single_machine(self, graph):
        parts = greedy_edge_partition(graph, 1)
        assert parts[0].n_edges == graph.n_edges

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            greedy_edge_partition(graph, 0)
        with pytest.raises(ValueError):
            replication_factor([])

    def test_deterministic(self, graph):
        a = greedy_edge_partition(graph, 4, seed=9)
        b = greedy_edge_partition(graph, 4, seed=9)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.src, pb.src)

    def test_ring_graph_gets_contiguous_ish_cut(self):
        """A ring has replication factor near 1 under greedy placement."""
        g = ring_graph(64)
        parts = greedy_edge_partition(g, 4, seed=0)
        assert replication_factor(parts) < 1.5


class TestGreedyEndToEnd:
    def test_allreduce_volume_lower_with_greedy(self, graph):
        """Greedy's smaller vertex sets translate into less comm volume."""
        from repro.allreduce import KylixAllreduce
        from repro.cluster import Cluster

        volumes = {}
        for name, parts in (
            ("random", random_edge_partition(graph, 8, seed=5)),
            ("greedy", greedy_edge_partition(graph, 8, seed=5)),
        ):
            cluster = Cluster(8)
            net = KylixAllreduce(cluster, [4, 2], strict_coverage=False)
            spec = spmv_spec(parts)
            net.configure(spec)
            net.reduce({p.rank: np.ones(p.out_vertices.size) for p in parts})
            volumes[name] = cluster.stats.total_bytes()
        assert volumes["greedy"] < 0.8 * volumes["random"]

    def test_pagerank_correct_on_greedy_partition(self, graph):
        from repro.allreduce import KylixAllreduce
        from repro.apps import DistributedPageRank, reference_pagerank
        from repro.cluster import Cluster

        parts = greedy_edge_partition(graph, 4, seed=6)
        pr = DistributedPageRank(KylixAllreduce(Cluster(4), [2, 2]), parts)
        result = pr.run(5)
        ref = reference_pagerank(graph.to_csr(), iterations=5)
        np.testing.assert_allclose(pr.global_vector(result), ref, atol=1e-12)
