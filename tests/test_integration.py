"""Cross-module integration tests: the whole stack working together."""

import numpy as np
import pytest

import repro
from repro import (
    Cluster,
    FaultPlan,
    KylixAllreduce,
    PowerLawModel,
    ReduceSpec,
    dense_reduce,
    optimal_degrees,
)
from repro.apps import DistributedPageRank, reference_pagerank
from repro.bench import make_cluster, scaled_params
from repro.data import random_edge_partition, twitter_like
from repro.design import EmpiricalDensityCurve


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestDesignToProtocolPipeline:
    """Measure density -> tune degrees -> run -> volumes match prediction."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return twitter_like(m=16, n_vertices=10_000)

    def test_workflow_degrees_run_correctly(self, dataset):
        model = dataset.model()
        params = scaled_params(dataset)
        floor = params.min_efficient_packet(0.85) * (4 / 16)
        degrees = optimal_degrees(
            model, 16, min_packet_bytes=floor, bytes_per_element=4
        )
        assert int(np.prod(degrees)) == 16

        cluster = make_cluster(dataset)
        net = KylixAllreduce(cluster, degrees, strict_coverage=False)
        spec = dataset.spec
        net.configure(spec)
        values = {p.rank: np.ones(p.out_vertices.size) for p in dataset.partitions}
        got = net.reduce(values)
        ref = dense_reduce(spec, values)
        for r in spec.ranks:
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)

    def test_predicted_volumes_match_measurement(self, dataset):
        """Prop 4.1 (analytic) vs the traffic accountant (measured)."""
        degrees = [4, 2, 2]
        cluster = make_cluster(dataset)
        net = KylixAllreduce(cluster, degrees, strict_coverage=False)
        net.configure(dataset.spec)
        net.reduce(
            {p.rank: np.ones(p.out_vertices.size) for p in dataset.partitions}
        )
        measured = cluster.stats.bytes_by_layer("reduce_down")
        model = dataset.model()
        elems = model.layer_node_elements(degrees)
        for layer, d in enumerate(degrees, start=1):
            predicted = elems[layer - 1] * dataset.m * 8  # float64 values
            assert measured[layer] == pytest.approx(predicted, rel=0.08), layer

    def test_empirical_curve_agrees_with_analytic(self, dataset):
        parts = {p.rank: p.in_vertices for p in dataset.partitions}
        curve = EmpiricalDensityCurve.from_partitions(
            parts, dataset.graph.n_vertices, seed=1
        )
        model = dataset.model()
        for k in (1, 2, 4, 8):
            assert curve.density_at_scale(k) == pytest.approx(
                model.density_at_scale(k), rel=0.12
            )


class TestEndToEndPageRankOnReplicatedNetwork:
    def test_pagerank_survives_node_failure(self):
        """PageRank on a replicated network with a dead machine still
        matches the single-machine reference exactly."""
        ds = twitter_like(m=4, n_vertices=2_000)
        plan = FaultPlan().kill(5)  # replica of logical slot 1
        cluster = Cluster(8, failures=plan)
        pr = DistributedPageRank(
            KylixAllreduce(cluster, [2, 2], replication=2),
            ds.partitions,
        )
        result = pr.run(5)
        ref = reference_pagerank(ds.graph.to_csr(), iterations=5)
        for p in ds.partitions:
            np.testing.assert_allclose(
                result.in_values[p.rank],
                ref[p.in_vertices],
                atol=1e-12,
            )


class TestDeterminism:
    def test_identical_runs_identical_times(self):
        """Same seed -> byte-identical simulated timeline."""
        ds = twitter_like(m=8, n_vertices=3_000)
        times = []
        for _ in range(2):
            cluster = make_cluster(ds, seed=99)
            net = KylixAllreduce(cluster, [4, 2], strict_coverage=False)
            net.configure(ds.spec)
            net.reduce(
                {p.rank: np.ones(p.out_vertices.size) for p in ds.partitions}
            )
            times.append(cluster.now)
        assert times[0] == times[1]

    def test_different_seeds_different_times_with_jitter(self):
        ds = twitter_like(m=8, n_vertices=3_000)
        times = []
        for seed in (1, 2):
            cluster = make_cluster(ds, seed=seed)
            net = KylixAllreduce(cluster, [4, 2], strict_coverage=False)
            net.configure(ds.spec)
            times.append(cluster.now)
        assert times[0] != times[1]
