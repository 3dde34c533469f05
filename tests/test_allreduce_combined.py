"""Tests for combined configuration+reduction messaging (§III).

"For minibatch updates, the in and out vertices change on every
allreduce.  In that case, it is more efficient to do configuration and
reduction concurrently with combined network messages."
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allreduce import (
    CoverageError,
    KylixAllreduce,
    PHASE_COMBINED_DOWN,
    ReduceSpec,
    dense_reduce,
)
from repro.cluster import Cluster
from repro.faults import FaultPlan


def covered_case(m, n, rng, value_shape=(), op="sum"):
    in_idx = {r: rng.choice(n, size=max(1, n // 6), replace=False) for r in range(m)}
    out_idx = {
        r: np.concatenate([rng.choice(n, size=12), np.arange(r, n, m)]).astype(np.int64)
        for r in range(m)
    }
    spec = ReduceSpec(in_idx, out_idx, value_shape=value_shape, op=op)
    vals = {r: rng.normal(size=(len(out_idx[r]), *value_shape)) for r in range(m)}
    return spec, vals


class TestCombinedCorrectness:
    @pytest.mark.parametrize("m,degrees", [(2, [2]), (4, [2, 2]), (8, [4, 2]), (12, [3, 2, 2])])
    def test_matches_dense_reference(self, m, degrees):
        rng = np.random.default_rng(m)
        spec, vals = covered_case(m, 200, rng)
        net = KylixAllreduce(Cluster(m), degrees)
        got = net.allreduce_combined(spec, vals)
        ref = dense_reduce(spec, vals)
        for r in range(m):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)

    def test_matches_separate_path_exactly(self):
        rng = np.random.default_rng(5)
        m = 8
        spec, vals = covered_case(m, 300, rng)
        sep = KylixAllreduce(Cluster(m), [4, 2]).allreduce(spec, vals)
        comb = KylixAllreduce(Cluster(m), [4, 2]).allreduce_combined(spec, vals)
        for r in range(m):
            np.testing.assert_array_equal(sep[r], comb[r])

    def test_plan_reusable_for_plain_reduce(self):
        rng = np.random.default_rng(6)
        m = 4
        spec, vals = covered_case(m, 150, rng)
        net = KylixAllreduce(Cluster(m), [2, 2])
        net.allreduce_combined(spec, vals)
        vals2 = {r: rng.normal(size=v.shape) for r, v in vals.items()}
        got = net.reduce(vals2)
        ref = dense_reduce(spec, vals2)
        for r in range(m):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)

    def test_min_reduction(self):
        rng = np.random.default_rng(7)
        m = 4
        spec, vals = covered_case(m, 100, rng, op="min")
        got = KylixAllreduce(Cluster(m), [2, 2]).allreduce_combined(spec, vals)
        ref = dense_reduce(spec, vals)
        for r in range(m):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-12)

    def test_multidim_values(self):
        rng = np.random.default_rng(8)
        m = 4
        spec, vals = covered_case(m, 80, rng, value_shape=(3,))
        got = KylixAllreduce(Cluster(m), [4]).allreduce_combined(spec, vals)
        ref = dense_reduce(spec, vals)
        for r in range(m):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)

    def test_strict_coverage_enforced(self):
        m = 2
        spec = ReduceSpec(
            in_indices={r: np.array([999]) for r in range(m)},
            out_indices={r: np.array([r]) for r in range(m)},
        )
        vals = {r: np.array([1.0]) for r in range(m)}
        with pytest.raises(CoverageError):
            KylixAllreduce(Cluster(m), [2]).allreduce_combined(spec, vals)

    def test_replicated_combined_with_failures(self):
        rng = np.random.default_rng(9)
        spec, vals = covered_case(4, 150, rng)
        cluster = Cluster(8, failures=FaultPlan().kill(6))
        net = KylixAllreduce(cluster, [2, 2], replication=2)
        got = net.allreduce_combined(spec, vals)
        ref = dense_reduce(spec, vals)
        for r in range(4):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)

    def test_misaligned_values_rejected(self):
        m = 2
        spec = ReduceSpec(
            in_indices={r: np.array([1]) for r in range(m)},
            out_indices={r: np.array([1, 2]) for r in range(m)},
        )
        net = KylixAllreduce(Cluster(m), [2])
        with pytest.raises(ValueError):
            net.allreduce_combined(spec, {0: np.array([1.0]), 1: np.array([1.0, 2.0])})

    def test_rank_coverage_validated(self):
        net = KylixAllreduce(Cluster(2), [2])
        spec = ReduceSpec(in_indices={0: np.array([1])}, out_indices={0: np.array([1])})
        with pytest.raises(ValueError):
            net.allreduce_combined(spec, {0: np.array([1.0])})


class TestCombinedEfficiency:
    def test_fewer_messages_than_separate(self):
        rng = np.random.default_rng(10)
        m = 8
        spec, vals = covered_case(m, 400, rng)

        c_sep = Cluster(m)
        KylixAllreduce(c_sep, [4, 2]).allreduce(spec, vals)
        c_comb = Cluster(m)
        KylixAllreduce(c_comb, [4, 2]).allreduce_combined(spec, vals)

        assert c_comb.stats.total_messages() < c_sep.stats.total_messages()
        # one downward traversal saved: 2/3 of the downward messages
        sep_down = c_sep.stats.phase_bytes("config") + c_sep.stats.phase_bytes("reduce_down")
        comb_down = c_comb.stats.phase_bytes("combined_down")
        assert comb_down == pytest.approx(sep_down, rel=0.01)  # same bytes

    def test_faster_than_separate(self):
        rng = np.random.default_rng(11)
        m = 8
        spec, vals = covered_case(m, 400, rng)
        c_sep = Cluster(m)
        KylixAllreduce(c_sep, [4, 2]).allreduce(spec, vals)
        c_comb = Cluster(m)
        KylixAllreduce(c_comb, [4, 2]).allreduce_combined(spec, vals)
        assert c_comb.now < c_sep.now

    def test_combined_timing_recorded(self):
        rng = np.random.default_rng(12)
        m = 4
        spec, vals = covered_case(m, 100, rng)
        net = KylixAllreduce(Cluster(m), [2, 2])
        net.allreduce_combined(spec, vals)
        assert net.last_combined_timing.elapsed > 0

    def test_phase_accounting_uses_combined_phase(self):
        rng = np.random.default_rng(13)
        m = 4
        spec, vals = covered_case(m, 100, rng)
        cluster = Cluster(m)
        KylixAllreduce(cluster, [2, 2]).allreduce_combined(spec, vals)
        assert cluster.stats.phase_bytes(PHASE_COMBINED_DOWN) > 0
        assert cluster.stats.phase_bytes("config") == 0
        assert cluster.stats.phase_bytes("reduce_down") == 0
        assert cluster.stats.phase_bytes("gather_up") > 0


class TestSGDCombinedMode:
    def test_combined_sgd_matches_separate(self):
        from repro.apps import DistributedSGD
        from repro.data import MinibatchStream

        m, n, steps = 4, 48, 6
        stream = MinibatchStream(n, batch_size=16, nnz_per_example=6, seed=3)
        streams = {r: stream.node_stream(r, steps) for r in range(m)}

        res = {}
        for combined in (False, True):
            sgd = DistributedSGD(
                KylixAllreduce(Cluster(m), [2, 2]),
                n,
                learning_rate=0.3,
                combined=combined,
            )
            res[combined] = sgd.run(streams)
        np.testing.assert_allclose(res[True].weights, res[False].weights, atol=1e-12)
        assert res[True].comm_time < res[False].comm_time


@given(st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_prop_combined_equals_separate(seed):
    rng = np.random.default_rng(seed)
    m = 4
    spec, vals = covered_case(m, 60, rng)
    sep = KylixAllreduce(Cluster(m), [2, 2]).allreduce(spec, vals)
    comb = KylixAllreduce(Cluster(m), [2, 2]).allreduce_combined(spec, vals)
    for r in range(m):
        np.testing.assert_array_equal(sep[r], comb[r])
