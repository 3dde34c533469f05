"""Tests for tree, dense, and replicated allreduce variants."""

import numpy as np
import pytest

from repro.allreduce import (
    CoverageError,
    DenseAllreduce,
    KylixAllreduce,
    ReduceSpec,
    TreeAllreduce,
    dense_reduce,
    expected_failures_survived,
)
from repro.cluster import Cluster
from repro.faults import FaultPlan, PeerFailedError
from repro.netmodel import NetworkParams


def covered_spec(m, n, rng, value_shape=()):
    in_idx = {
        r: rng.choice(n, size=int(rng.integers(1, n // 2)), replace=False)
        for r in range(m)
    }
    out_idx = {
        r: np.concatenate([rng.choice(n, size=10), np.arange(r, n, m)]).astype(np.int64)
        for r in range(m)
    }
    spec = ReduceSpec(in_idx, out_idx, value_shape=value_shape)
    vals = {r: rng.normal(size=(len(out_idx[r]), *value_shape)) for r in range(m)}
    return spec, vals


class TestTreeAllreduce:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13])
    def test_matches_reference(self, m):
        rng = np.random.default_rng(m)
        spec, vals = covered_spec(m, 120, rng)
        ref = dense_reduce(spec, vals)
        got = TreeAllreduce(Cluster(m)).allreduce(spec, vals)
        for r in range(m):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)

    def test_tree_shape(self):
        t = TreeAllreduce(Cluster(7))
        assert t.parent(0) is None
        assert t.parent(5) == 2
        assert t.children(0) == [1, 2]
        assert t.children(3) == []
        assert t.depth(0) == 0 and t.depth(6) == 2

    def test_root_holds_full_union(self):
        """The §II-A.1 blow-up: the root's reduction is the global union."""
        m, n = 8, 256
        rng = np.random.default_rng(0)
        spec, vals = covered_spec(m, n, rng)
        t = TreeAllreduce(Cluster(m))
        t.allreduce(spec, vals)
        all_out = np.unique(np.concatenate(list(spec.out_indices.values())))
        assert t.root_nnz == all_out.size

    def test_strict_coverage(self):
        m = 4
        spec = ReduceSpec(
            in_indices={r: np.array([99999]) for r in range(m)},
            out_indices={r: np.array([r]) for r in range(m)},
        )
        vals = {r: np.array([1.0]) for r in range(m)}
        with pytest.raises(CoverageError):
            TreeAllreduce(Cluster(m)).allreduce(spec, vals)
        lenient = TreeAllreduce(Cluster(m), strict_coverage=False)
        got = lenient.allreduce(spec, vals)
        np.testing.assert_array_equal(got[0], [0.0])

    def test_duplicated_in_indices(self):
        m = 2
        spec = ReduceSpec(
            in_indices={0: np.array([5, 5]), 1: np.array([5])},
            out_indices={r: np.array([5]) for r in range(m)},
        )
        vals = {r: np.array([2.0]) for r in range(m)}
        got = TreeAllreduce(Cluster(m)).allreduce(spec, vals)
        np.testing.assert_allclose(got[0], [4.0, 4.0])

    def test_misaligned_values_rejected(self):
        m = 2
        spec = ReduceSpec(
            in_indices={r: np.array([1]) for r in range(m)},
            out_indices={r: np.array([1, 2]) for r in range(m)},
        )
        with pytest.raises(ValueError):
            TreeAllreduce(Cluster(m)).allreduce(
                spec, {0: np.array([1.0]), 1: np.array([1.0, 2.0])}
            )


class TestDenseAllreduce:
    @pytest.mark.parametrize("m,degrees", [(2, [2]), (8, [4, 2]), (8, [2, 2, 2]), (9, [3, 3])])
    def test_matches_sum(self, m, degrees):
        rng = np.random.default_rng(m)
        n = 97  # deliberately not divisible by the degrees
        vals = {r: rng.normal(size=n) for r in range(m)}
        got = DenseAllreduce(Cluster(m), degrees, length=n).allreduce(vals)
        expect = sum(vals.values())
        for r in range(m):
            np.testing.assert_allclose(got[r], expect, atol=1e-9)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            DenseAllreduce(Cluster(2), [2], length=0)

    def test_wrong_shape_rejected(self):
        d = DenseAllreduce(Cluster(2), [2], length=10)
        with pytest.raises(ValueError):
            d.allreduce({0: np.zeros(5), 1: np.zeros(10)})

    def test_dense_moves_more_bytes_than_kylix_on_sparse_data(self):
        """The sparse-vs-dense headline: on sparse inputs Kylix ships far
        less data than a dense allreduce of the full vector."""
        rng = np.random.default_rng(1)
        m, n = 8, 20_000
        spec, vals = covered_spec(m, n, rng)
        ck, cd = Cluster(m), Cluster(m)
        KylixAllreduce(ck, [4, 2]).allreduce(spec, vals)
        dvals = {r: rng.normal(size=n) for r in range(m)}
        DenseAllreduce(cd, [4, 2], length=n).allreduce(dvals)
        kylix_reduce_bytes = ck.stats.phase_bytes("reduce_down") + ck.stats.phase_bytes("gather_up")
        dense_bytes = cd.stats.phase_bytes("dense_down") + cd.stats.phase_bytes("dense_up")
        assert kylix_reduce_bytes < dense_bytes / 3


class TestReplication:
    def make(self, m_phys, degrees, s=2, failures=None, sigma=0.0):
        params = NetworkParams(latency_sigma=sigma, base_latency=1e-4)
        cluster = Cluster(m_phys, params=params, failures=failures, seed=42)
        return cluster, KylixAllreduce(cluster, degrees, replication=s)

    def logical_case(self, m_log, n=150, seed=0):
        rng = np.random.default_rng(seed)
        return covered_spec(m_log, n, rng)

    def test_no_failures_matches_reference(self):
        spec, vals = self.logical_case(4)
        _, net = self.make(8, [2, 2])
        ref = dense_reduce(spec, vals)
        net.configure(spec)
        got = net.reduce(vals)
        for r in range(4):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)

    @pytest.mark.parametrize("dead", [[0], [5], [1, 6], [0, 3, 5]])
    def test_survives_failures_in_distinct_groups(self, dead):
        spec, vals = self.logical_case(4)
        plan = FaultPlan({n: 0.0 for n in dead})
        _, net = self.make(8, [2, 2], failures=plan)
        ref = dense_reduce(spec, vals)
        net.configure(spec)
        got = net.reduce(vals)
        for r in range(4):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)

    def test_mid_run_death_survived(self):
        """A replica dying *during* the reduction is absorbed by racing."""
        spec, vals = self.logical_case(4)
        plan = FaultPlan({2: 1e-4})  # dies mid-protocol
        _, net = self.make(8, [2, 2], failures=plan)
        ref = dense_reduce(spec, vals)
        net.configure(spec)
        got = net.reduce(vals)
        for r in range(4):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)

    def test_whole_replica_group_dead_raises_peer_failed(self):
        """When both replicas of a slot die the protocol cannot complete:
        the plan switches deadlines on, so it ends in a typed error naming
        the slot, not a simulation deadlock."""
        spec, vals = self.logical_case(4)
        plan = FaultPlan().kill(1).kill(5)  # both replicas of slot 1
        _, net = self.make(8, [2, 2], failures=plan)
        with pytest.raises(PeerFailedError) as ei:
            net.configure(spec)
        assert ei.value.slot == 1

    def test_triple_replication(self):
        spec, vals = self.logical_case(4)
        plan = FaultPlan().kill(2).kill(6)  # two replicas of slot 2; third alive
        _, net = self.make(12, [2, 2], s=3, failures=plan)
        assert net.replication == 3
        ref = dense_reduce(spec, vals)
        net.configure(spec)
        got = net.reduce(vals)
        for r in range(4):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)

    def test_replication_one_is_plain_kylix(self):
        spec, vals = self.logical_case(8)
        cluster = Cluster(8)
        net = KylixAllreduce(cluster, [4, 2], replication=1)
        ref = dense_reduce(spec, vals)
        net.configure(spec)
        got = net.reduce(vals)
        for r in range(8):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)

    def test_indivisible_cluster_rejected(self):
        with pytest.raises(ValueError):
            KylixAllreduce(Cluster(9), [2, 2], replication=2)

    def test_invalid_replication_rejected(self):
        with pytest.raises(ValueError):
            KylixAllreduce(Cluster(8), [4, 2], replication=0)

    def test_replicas_layout_matches_paper(self):
        net = KylixAllreduce(Cluster(8), [2, 2], replication=2)
        assert net.slots.physical[3] == (3, 7)
        assert net._logical(7) == 3

    def test_replication_sends_more_traffic(self):
        spec, vals = self.logical_case(4)
        c1 = Cluster(4)
        n1 = KylixAllreduce(c1, [2, 2])
        n1.allreduce(spec, vals)
        c2, n2 = self.make(8, [2, 2])
        n2.configure(spec)
        n2.reduce(vals)
        # s=2 replication: each logical message becomes ~s^2 physical ones
        # (s sender replicas x s destination replicas).
        assert c2.stats.total_messages() > 2 * c1.stats.total_messages()

    def test_results_identical_across_replicas(self):
        spec, vals = self.logical_case(4)
        cluster, net = self.make(8, [2, 2])
        net.configure(spec)
        # Each physical replica's own result, before collation.
        physical = cluster.run(net.node_reduce, vals, net.next_instance())
        for lr in range(4):
            np.testing.assert_array_equal(physical[lr], physical[lr + 4])

    def test_expected_failures_survived(self):
        assert expected_failures_survived(64, 2) == pytest.approx(8.0)
        assert expected_failures_survived(64, 1) == 0.0

    def test_racing_with_latency_jitter_still_correct(self):
        spec, vals = self.logical_case(4, seed=3)
        _, net = self.make(8, [2, 2], sigma=1.0)
        ref = dense_reduce(spec, vals)
        net.configure(spec)
        got = net.reduce(vals)
        for r in range(4):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)
