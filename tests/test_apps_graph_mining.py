"""Tests for connected components, BFS, diameter estimation, power iteration."""

import networkx as nx
import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from repro.allreduce import KylixAllreduce
from repro.apps import (
    DistributedBFS,
    DistributedComponents,
    DistributedDiameter,
    DistributedPowerIteration,
    fm_estimate,
    fm_sketch,
)
from repro.cluster import Cluster
from repro.data import (
    EdgeGraph,
    grid_graph,
    powerlaw_graph,
    random_edge_partition,
    ring_graph,
)


def make(graph, m=4, degrees=(2, 2)):
    parts = random_edge_partition(graph, m, seed=21)
    return KylixAllreduce(Cluster(m), list(degrees)), parts


class TestConnectedComponents:
    def reference_components(self, graph):
        G = nx.Graph()
        G.add_nodes_from(range(graph.n_vertices))
        G.add_edges_from(zip(graph.src.tolist(), graph.dst.tolist()))
        return {frozenset(c) for c in nx.connected_components(G)}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_networkx(self, seed):
        g = powerlaw_graph(150, 200, alpha=0.7, seed=seed)
        net, parts = make(g)
        res = DistributedComponents(net, parts).run()
        labels = res.global_labels(g.n_vertices, parts)
        got = {}
        for v, l in enumerate(labels):
            got.setdefault(int(l), set()).add(v)
        assert {frozenset(s) for s in got.values()} == self.reference_components(g)

    def test_single_component_ring(self):
        g = ring_graph(24)
        net, parts = make(g)
        res = DistributedComponents(net, parts).run()
        labels = res.global_labels(24, parts)
        assert np.all(labels == 0)

    def test_labels_are_component_minima(self):
        # two disjoint rings: 0..9 and 10..19
        src = np.concatenate([np.arange(10), np.arange(10, 20)])
        dst = np.concatenate([(np.arange(10) + 1) % 10, 10 + (np.arange(10) + 1) % 10])
        g = EdgeGraph(20, src, dst)
        net, parts = make(g)
        res = DistributedComponents(net, parts).run()
        labels = res.global_labels(20, parts)
        assert set(labels[:10]) == {0} and set(labels[10:]) == {10}

    def test_terminates_and_counts_rounds(self):
        g = powerlaw_graph(100, 300, seed=5)
        net, parts = make(g)
        res = DistributedComponents(net, parts).run()
        assert 1 <= res.rounds < 100
        assert res.comm_time > 0


class TestBFS:
    def test_ring_distances(self):
        g = ring_graph(20)
        net, parts = make(g)
        res = DistributedBFS(net, parts).run(source=0)
        d = res.global_distances(20, parts)
        np.testing.assert_array_equal(d, np.arange(20.0))

    def test_matches_networkx_shortest_paths(self):
        g = powerlaw_graph(120, 600, alpha=0.8, seed=3)
        net, parts = make(g)
        res = DistributedBFS(net, parts).run(source=int(g.src[0]))
        d = res.global_distances(120, parts)
        G = nx.DiGraph()
        G.add_nodes_from(range(120))
        G.add_edges_from(zip(g.src.tolist(), g.dst.tolist()))
        ref = nx.single_source_shortest_path_length(G, int(g.src[0]))
        for v in range(120):
            if v in ref:
                assert d[v] == ref[v], v
            else:
                assert np.isinf(d[v]) or d[v] == v  # untouched vertices

    def test_unreachable_vertices_stay_infinite(self):
        # two disjoint edges
        g = EdgeGraph(4, np.array([0, 2]), np.array([1, 3]))
        net, parts = make(g, m=2, degrees=(2,))
        res = DistributedBFS(net, parts).run(source=0)
        d = res.global_distances(4, parts)
        assert d[1] == 1.0 and np.isinf(d[2]) and np.isinf(d[3])


class TestDiameter:
    def test_fm_sketch_estimates_cardinality(self):
        rng = np.random.default_rng(0)
        sketches = fm_sketch(5_000, 64, rng)
        union = np.bitwise_or.reduce(sketches, axis=0)
        est = fm_estimate(union[None, :])[0]
        assert 2_000 < est < 12_000  # FM is a coarse estimator

    def test_ring_effective_diameter_near_n(self):
        g = ring_graph(24)
        net, parts = make(g)
        dia = DistributedDiameter(net, parts, registers=16, seed=1)
        res = dia.run()
        assert 14 <= res.effective_diameter <= 23
        assert res.rounds <= 24

    def test_grid_diameter_small(self):
        g = grid_graph(5)  # diameter 8
        net, parts = make(g)
        dia = DistributedDiameter(net, parts, registers=16, seed=2)
        res = dia.run()
        assert res.effective_diameter <= 8

    def test_neighbourhood_function_monotone(self):
        g = powerlaw_graph(200, 800, seed=4)
        net, parts = make(g)
        dia = DistributedDiameter(net, parts, registers=8)
        res = dia.run()
        nh = res.neighbourhood
        assert all(a <= b + 1e-9 for a, b in zip(nh, nh[1:]))

    def test_validation(self):
        g = ring_graph(8)
        net, parts = make(g)
        with pytest.raises(ValueError):
            DistributedDiameter(net, parts, registers=0)


class TestPowerIteration:
    def test_matches_scipy_dominant_eigenpair(self):
        g = powerlaw_graph(150, 2_000, alpha=0.6, seed=8)
        # symmetrise for a well-defined largest eigenvalue
        src = np.concatenate([g.src, g.dst])
        dst = np.concatenate([g.dst, g.src])
        gs = EdgeGraph(150, src, dst)
        net, parts = make(gs)
        pi = DistributedPowerIteration(net, parts)
        res = pi.run(iterations=120)
        vals, vecs = eigsh(gs.to_csr(), k=1, which="LA")
        assert res.eigenvalue == pytest.approx(vals[0], rel=1e-4)
        vec = res.global_vector(150, parts)
        ref = vecs[:, 0] * np.sign(vecs[:, 0].sum())
        np.testing.assert_allclose(np.abs(vec), np.abs(ref), atol=5e-3)

    def test_vector_is_unit_norm(self):
        g = grid_graph(4)
        net, parts = make(g)
        pi = DistributedPowerIteration(net, parts)
        res = pi.run(iterations=80)
        v = res.global_vector(16, parts)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-6)

    def test_comm_time_positive(self):
        g = grid_graph(3)
        net, parts = make(g)
        res = DistributedPowerIteration(net, parts).run(iterations=5)
        assert res.comm_time > 0
