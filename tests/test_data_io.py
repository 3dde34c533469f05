"""Tests for edge-list file I/O."""

import numpy as np
import pytest

from repro.data import (
    EdgeGraph,
    load_edgelist,
    powerlaw_graph,
    save_edgelist,
)


class TestRoundTrip:
    def test_save_load_roundtrip(self, tmp_path):
        g = powerlaw_graph(100, 500, seed=1)
        path = tmp_path / "g.txt"
        save_edgelist(g, path)
        g2 = load_edgelist(path, n_vertices=100)
        np.testing.assert_array_equal(g.src, g2.src)
        np.testing.assert_array_equal(g.dst, g2.dst)
        assert g2.n_vertices == 100

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# Nodes: 3 Edges: 2\n# src\tdst\n0\t1\n1\t2\n")
        g = load_edgelist(path)
        assert g.n_edges == 2
        assert g.n_vertices == 3

    def test_no_header_option(self, tmp_path):
        g = EdgeGraph(3, np.array([0, 1]), np.array([1, 2]))
        path = tmp_path / "plain.txt"
        save_edgelist(g, path, header=False)
        assert not path.read_text().startswith("#")
        g2 = load_edgelist(path)
        assert g2.n_edges == 2

    def test_default_vertex_count_is_max_plus_one(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("5 9\n")
        assert load_edgelist(path).n_vertices == 10

    def test_relabel_compacts_sparse_ids(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1000000 5\n5 70000\n")
        g = load_edgelist(path, relabel=True)
        assert g.n_vertices == 3
        assert set(np.concatenate([g.src, g.dst]).tolist()) == {0, 1, 2}
        # structure preserved: two edges, shared middle vertex
        assert g.n_edges == 2

    def test_whitespace_variants(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1\t2\n  2   0\n")
        assert load_edgelist(path).n_edges == 3

    def test_negative_ids_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("-1 2\n")
        with pytest.raises(ValueError):
            load_edgelist(path)

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1\n2\n")
        with pytest.raises(ValueError):
            load_edgelist(path)

    def test_loaded_graph_runs_pagerank(self, tmp_path):
        from repro.allreduce import KylixAllreduce
        from repro.apps import DistributedPageRank, reference_pagerank
        from repro.cluster import Cluster
        from repro.data import random_edge_partition

        g = powerlaw_graph(120, 700, seed=2)
        path = tmp_path / "g.txt"
        save_edgelist(g, path)
        loaded = load_edgelist(path, n_vertices=120)
        parts = random_edge_partition(loaded, 4, seed=3)
        pr = DistributedPageRank(KylixAllreduce(Cluster(4), [2, 2]), parts)
        res = pr.run(4)
        ref = reference_pagerank(g.to_csr(), iterations=4)
        np.testing.assert_allclose(pr.global_vector(res), ref, atol=1e-12)
