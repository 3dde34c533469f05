"""Tests for the PowerGraph-like and Hadoop/Pegasus baseline models."""

import numpy as np
import pytest

from repro.apps import DistributedPageRank, reference_pagerank
from repro.allreduce import KylixAllreduce
from repro.baselines import (
    GAS_COMPUTE_SCALE,
    PEGASUS_PUBLISHED,
    HadoopCostModel,
    PowerGraphPageRank,
)
from repro.cluster import Cluster
from repro.data import powerlaw_graph, random_edge_partition


class TestPowerGraphBaseline:
    @pytest.fixture(scope="class")
    def setup(self):
        g = powerlaw_graph(300, 2_500, alpha=0.8, seed=31)
        parts = random_edge_partition(g, 8, seed=32)
        return g, parts

    def test_produces_correct_pagerank(self, setup):
        g, parts = setup
        pg = PowerGraphPageRank(KylixAllreduce(Cluster(8), [8]), parts)
        res = pg.run(6)
        ref = reference_pagerank(g.to_csr(), iterations=6)
        np.testing.assert_allclose(pg.global_vector(res), ref, atol=1e-12)

    def test_slower_than_kylix_on_calibrated_fabric(self):
        """Direct messaging + GAS kernels must cost more per iteration on
        the incast-calibrated commodity fabric (the Fig-8 conditions)."""
        from repro.bench import make_cluster
        from repro.data import twitter_like

        ds = twitter_like(m=16, n_vertices=10_000)
        kylix = DistributedPageRank(
            KylixAllreduce(make_cluster(ds), [4, 2, 2]),
            ds.partitions,
        ).run(3)
        pg = PowerGraphPageRank(
            KylixAllreduce(make_cluster(ds), [16]),
            ds.partitions,
        ).run(3)
        assert pg.mean_iteration > kylix.mean_iteration

    def test_compute_scale_applied(self, setup):
        g, parts = setup
        pg = PowerGraphPageRank(KylixAllreduce(Cluster(8), [8]), parts)
        assert pg.compute_scale == GAS_COMPUTE_SCALE
        plain = DistributedPageRank(KylixAllreduce(Cluster(8), [8]), parts)
        r_pg = pg.run(2)
        r_plain = plain.run(2)
        assert r_pg.mean_compute == pytest.approx(
            GAS_COMPUTE_SCALE * r_plain.mean_compute, rel=0.01
        )


class TestHadoopModel:
    def test_validates_against_pegasus_anchor(self):
        model = HadoopCostModel()
        est = model.seconds_per_iteration(
            PEGASUS_PUBLISHED["edges"], PEGASUS_PUBLISHED["nodes"]
        )
        assert est == pytest.approx(
            PEGASUS_PUBLISHED["seconds_per_iteration"], rel=0.25
        )
        assert model.validates_against_pegasus()

    def test_linear_in_edges(self):
        m = HadoopCostModel(job_overhead=0.0)
        t1 = m.seconds_per_iteration(1e9, 64)
        t2 = m.seconds_per_iteration(2e9, 64)
        assert t2 == pytest.approx(2 * t1)

    def test_job_overhead_floors_small_jobs(self):
        m = HadoopCostModel()
        tiny = m.seconds_per_iteration(1_000, 64)
        assert tiny >= m.rounds_per_iteration * m.job_overhead

    def test_orders_of_magnitude_behind_memory_systems(self):
        """Paper: Kylix ~500x faster than Hadoop.  At paper scale, the
        model's Twitter iteration is hundreds of seconds vs sub-second."""
        m = HadoopCostModel()
        t = m.seconds_per_iteration(1.5e9, 64)
        assert t > 100 * 0.55

    def test_validation(self):
        with pytest.raises(ValueError):
            HadoopCostModel().seconds_per_iteration(-1, 64)
        with pytest.raises(ValueError):
            HadoopCostModel().seconds_per_iteration(1e9, 0)
