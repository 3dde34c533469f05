"""Correctness tests for the Kylix sparse allreduce and degenerate variants.

Every test compares protocol output — produced by actual message exchange
on the simulated cluster — against the dense reference reduction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allreduce import (
    CoverageError,
    KylixAllreduce,
    ReduceSpec,
    binary_degrees,
    dense_reduce,
)
from repro.cluster import Cluster
from repro.faults import FaultPlan, PeerFailedError, RetryPolicy
from repro.sparse import IdentityHasher


def random_spec(m, n, rng, *, value_shape=(), cover=True):
    in_idx = {
        r: rng.choice(n, size=int(rng.integers(1, max(2, n // 4))), replace=False)
        for r in range(m)
    }
    out_idx = {}
    for r in range(m):
        extra = rng.choice(n, size=int(rng.integers(1, max(2, n // 4))))
        home = np.arange(r, n, m) if cover else np.empty(0, dtype=np.int64)
        out_idx[r] = np.concatenate([extra, home]).astype(np.int64)
    spec = ReduceSpec(in_idx, out_idx, value_shape=value_shape)
    vals = {
        r: rng.normal(size=(len(out_idx[r]), *value_shape)) for r in range(m)
    }
    return spec, vals


def assert_matches_reference(net, spec, vals):
    ref = dense_reduce(spec, vals)
    got = net.allreduce(spec, vals)
    for r in spec.ranks:
        np.testing.assert_allclose(got[r], ref[r], atol=1e-9, err_msg=f"rank {r}")


DEGREE_STACKS = [
    (1, [1]),
    (2, [2]),
    (4, [4]),
    (4, [2, 2]),
    (8, [8]),
    (8, [4, 2]),
    (8, [2, 4]),
    (8, [2, 2, 2]),
    (12, [3, 2, 2]),
    (16, [4, 4]),
    (16, [16]),
    (24, [4, 3, 2]),
]


class TestKylixCorrectness:
    @pytest.mark.parametrize("m,degrees", DEGREE_STACKS)
    def test_matches_dense_reference(self, m, degrees):
        rng = np.random.default_rng(m * 1000 + len(degrees))
        spec, vals = random_spec(m, 300, rng)
        net = KylixAllreduce(Cluster(m), degrees)
        assert_matches_reference(net, spec, vals)

    def test_repeated_reduce_with_fixed_config(self):
        """PageRank's pattern: configure once, reduce every iteration."""
        rng = np.random.default_rng(7)
        m = 8
        spec, vals = random_spec(m, 200, rng)
        net = KylixAllreduce(Cluster(m), [4, 2])
        net.configure(spec)
        for it in range(3):
            vals_it = {r: rng.normal(size=v.shape) for r, v in vals.items()}
            ref = dense_reduce(spec, vals_it)
            got = net.reduce(vals_it)
            for r in range(m):
                np.testing.assert_allclose(got[r], ref[r], atol=1e-9)

    def test_reconfigure_with_new_index_sets(self):
        """Minibatch pattern: in/out sets change every allreduce."""
        rng = np.random.default_rng(13)
        m = 4
        net = KylixAllreduce(Cluster(m), [2, 2])
        for epoch in range(3):
            spec, vals = random_spec(m, 150, rng)
            assert_matches_reference(net, spec, vals)

    def test_multidim_values(self):
        """Bit-string / gradient-block style (nnz, k) value rows."""
        rng = np.random.default_rng(3)
        m = 8
        spec, vals = random_spec(m, 120, rng, value_shape=(5,))
        net = KylixAllreduce(Cluster(m), [4, 2])
        assert_matches_reference(net, spec, vals)

    def test_duplicate_out_indices_summed(self):
        m = 2
        spec = ReduceSpec(
            in_indices={0: np.array([7]), 1: np.array([7])},
            out_indices={0: np.array([7, 7, 7]), 1: np.array([7])},
        )
        vals = {0: np.array([1.0, 2.0, 3.0]), 1: np.array([10.0])}
        net = KylixAllreduce(Cluster(m), [2])
        got = net.allreduce(spec, vals)
        assert got[0][0] == pytest.approx(16.0)
        assert got[1][0] == pytest.approx(16.0)

    def test_duplicate_in_indices_replicated(self):
        m = 2
        spec = ReduceSpec(
            in_indices={0: np.array([3, 3, 5]), 1: np.array([5])},
            out_indices={0: np.array([3, 5]), 1: np.array([3, 5])},
        )
        vals = {0: np.array([1.0, 2.0]), 1: np.array([4.0, 8.0])}
        got = KylixAllreduce(Cluster(m), [2]).allreduce(spec, vals)
        np.testing.assert_allclose(got[0], [5.0, 5.0, 10.0])

    def test_unsorted_input_indices(self):
        m = 2
        spec = ReduceSpec(
            in_indices={0: np.array([9, 1, 4]), 1: np.array([4])},
            out_indices={0: np.array([4, 9, 1]), 1: np.array([1, 4, 9])},
        )
        vals = {0: np.array([1.0, 2.0, 3.0]), 1: np.array([30.0, 10.0, 20.0])}
        got = KylixAllreduce(Cluster(m), [2]).allreduce(spec, vals)
        np.testing.assert_allclose(got[0], [22.0, 33.0, 11.0])
        np.testing.assert_allclose(got[1], [11.0])

    def test_empty_in_set_on_some_node(self):
        m = 4
        spec = ReduceSpec(
            in_indices={0: np.array([1]), 1: np.empty(0, np.int64),
                        2: np.array([2]), 3: np.empty(0, np.int64)},
            out_indices={r: np.array([1, 2]) for r in range(4)},
        )
        vals = {r: np.array([1.0, 2.0]) for r in range(4)}
        got = KylixAllreduce(Cluster(m), [2, 2]).allreduce(spec, vals)
        np.testing.assert_allclose(got[0], [4.0])
        assert got[1].size == 0
        np.testing.assert_allclose(got[2], [8.0])

    def test_identity_hasher_bounded_space(self):
        rng = np.random.default_rng(5)
        m, n = 4, 64
        spec, vals = random_spec(m, n, rng)
        net = KylixAllreduce(Cluster(m), [2, 2], hasher=IdentityHasher(n))
        assert_matches_reference(net, spec, vals)

    def test_large_sparse_indices(self):
        """Indices far beyond cluster size (web-graph vertex ids)."""
        m = 4
        big = np.array([10**12, 10**15, 7, 10**18], dtype=np.int64)
        spec = ReduceSpec(
            in_indices={r: big for r in range(m)},
            out_indices={r: big for r in range(m)},
        )
        vals = {r: np.full(4, float(r + 1)) for r in range(m)}
        got = KylixAllreduce(Cluster(m), [4]).allreduce(spec, vals)
        np.testing.assert_allclose(got[2], [10.0, 10.0, 10.0, 10.0])


class TestCoverage:
    def _uncovered_spec(self, m=4):
        return ReduceSpec(
            in_indices={r: np.array([999]) for r in range(m)},
            out_indices={r: np.array([r]) for r in range(m)},
        )

    def test_strict_coverage_raises(self):
        spec = self._uncovered_spec()
        vals = {r: np.array([1.0]) for r in range(4)}
        net = KylixAllreduce(Cluster(4), [2, 2], strict_coverage=True)
        with pytest.raises(CoverageError):
            net.allreduce(spec, vals)

    def test_lenient_coverage_returns_zeros(self):
        spec = self._uncovered_spec()
        vals = {r: np.array([1.0]) for r in range(4)}
        net = KylixAllreduce(Cluster(4), [2, 2], strict_coverage=False)
        got = net.allreduce(spec, vals)
        for r in range(4):
            np.testing.assert_array_equal(got[r], [0.0])

    def test_spec_level_coverage_check(self):
        spec = self._uncovered_spec()
        with pytest.raises(CoverageError):
            spec.validate_coverage()


class TestCollation:
    """Every entry point returns one value per logical slot, read from
    the slot's first live replica; a slot with none is an error unless
    degraded completion reports it lost."""

    M, DEGREES, DEAD = 8, [4, 2], 3

    def _run(self, op, failures=None, **kw):
        rng = np.random.default_rng(5)
        spec, vals = random_spec(self.M, 400, rng)
        cluster = Cluster(self.M, failures=failures)
        net = KylixAllreduce(cluster, self.DEGREES, **kw)
        if op == "reduce":
            net.configure(spec)
            start = cluster.now
            out = net.reduce(vals)
        else:
            start = cluster.now
            out = net.allreduce_combined(spec, vals)
        return spec, net, out, (start, cluster.now)

    def _dies_late(self, op):
        """Node 3 dies at 90% of the fault-free run's window: after its
        last send, before its own result."""
        *_, (t0, t1) = self._run(op)
        return FaultPlan({self.DEAD: t0 + 0.9 * (t1 - t0)})

    @pytest.mark.parametrize("op", ["reduce", "combined"])
    def test_strict_run_raises_for_a_slot_without_a_live_replica(self, op):
        with pytest.raises(PeerFailedError) as ei:
            self._run(op, self._dies_late(op))
        assert ei.value.slot == self.DEAD
        assert f"slot {self.DEAD}" in str(ei.value)

    @pytest.mark.parametrize("op", ["reduce", "combined"])
    def test_degraded_run_reports_the_whole_slice_lost(self, op):
        spec, net, out, _ = self._run(
            op, self._dies_late(op), degrade=True, retry=RetryPolicy()
        )
        assert sorted(out) == [r for r in range(self.M) if r != self.DEAD]
        np.testing.assert_array_equal(
            np.sort(net.last_report.lost_indices[self.DEAD]),
            np.sort(spec.in_indices[self.DEAD]),
        )

    @pytest.mark.parametrize("op", ["reduce", "combined"])
    def test_degrade_alone_implies_the_default_retry_policy(self, op):
        """``degrade=True`` with no ``retry=``: the
        run degrades exactly as with ``retry=RetryPolicy()`` instead of
        raising PeerFailedError with no report."""
        plan = self._dies_late(op)
        spec, net, out, _ = self._run(op, plan, degrade=True)
        _, ref_net, ref_out, _ = self._run(op, plan, degrade=True, retry=RetryPolicy())
        report, ref = net.last_report, ref_net.last_report
        assert report is not None and not report.complete
        assert report.dead_members == ref.dead_members
        assert sorted(report.lost_indices) == sorted(ref.lost_indices) == [self.DEAD]
        np.testing.assert_array_equal(
            np.sort(report.lost_indices[self.DEAD]), np.sort(spec.in_indices[self.DEAD])
        )
        assert sorted(out) == sorted(ref_out) == [r for r in range(self.M) if r != self.DEAD]
        for r in out:
            np.testing.assert_array_equal(out[r], ref_out[r])


class TestValidation:
    def test_reduce_before_configure_rejected(self):
        net = KylixAllreduce(Cluster(2), [2])
        with pytest.raises(RuntimeError):
            net.reduce({0: np.array([1.0]), 1: np.array([1.0])})

    def test_spec_rank_mismatch_rejected(self):
        spec = ReduceSpec(
            in_indices={0: np.array([1])}, out_indices={0: np.array([1])}
        )
        with pytest.raises(ValueError):
            KylixAllreduce(Cluster(2), [2]).configure(spec)

    def test_misaligned_values_rejected(self):
        m = 2
        spec = ReduceSpec(
            in_indices={r: np.array([1]) for r in range(m)},
            out_indices={r: np.array([1, 2]) for r in range(m)},
        )
        net = KylixAllreduce(Cluster(m), [2])
        net.configure(spec)
        with pytest.raises(ValueError):
            net.reduce({0: np.array([1.0]), 1: np.array([1.0, 2.0])})

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            ReduceSpec(
                in_indices={0: np.array([-1])}, out_indices={0: np.array([1])}
            )

    def test_float_indices_rejected(self):
        with pytest.raises(ValueError):
            ReduceSpec(
                in_indices={0: np.array([1.5])}, out_indices={0: np.array([1])}
            )

    def test_in_out_rank_sets_must_match(self):
        with pytest.raises(ValueError):
            ReduceSpec(
                in_indices={0: np.array([1])},
                out_indices={0: np.array([1]), 1: np.array([2])},
            )

    def test_degree_product_must_equal_cluster(self):
        with pytest.raises(ValueError):
            KylixAllreduce(Cluster(8), [4, 4])

    @pytest.mark.parametrize("entry", ["configure", "allreduce_combined"])
    def test_a_failed_plan_build_keeps_the_previous_spec(self, monkeypatch, entry):
        """A configuration run that raises leaves the previous spec beside
        the previous plans: the next reduce sums A, not B's maxima through
        A's maps."""
        spec_a, vals = random_spec(4, 60, np.random.default_rng(3))
        spec_b = ReduceSpec(spec_a.in_indices, spec_a.out_indices, op="max")
        net = KylixAllreduce(Cluster(4), [2, 2])
        plans = net.configure(spec_a)

        def failing_run(*args, **kwargs):
            raise RuntimeError("configuration pass failed")

        with monkeypatch.context() as patch:
            patch.setattr(net, "_run", failing_run)
            with pytest.raises(RuntimeError):
                if entry == "configure":
                    net.configure(spec_b)
                else:
                    net.allreduce_combined(spec_b, vals)
        assert net.spec is spec_a and net.plans is plans
        ref, got = dense_reduce(spec_a, vals), net.reduce(vals)
        for r in spec_a.ranks:
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)


class TestBaselineVariants:
    def test_direct_equals_kylix_single_layer(self):
        rng = np.random.default_rng(11)
        m = 8
        spec, vals = random_spec(m, 200, rng)
        ref = dense_reduce(spec, vals)
        got = KylixAllreduce(Cluster(m), [m]).allreduce(spec, vals)
        for r in range(m):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)

    def test_binary_butterfly(self):
        rng = np.random.default_rng(12)
        m = 16
        spec, vals = random_spec(m, 200, rng)
        ref = dense_reduce(spec, vals)
        got = KylixAllreduce(Cluster(m), binary_degrees(m)).allreduce(spec, vals)
        for r in range(m):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)

    def test_binary_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            KylixAllreduce(Cluster(6), binary_degrees(6))


class TestTiming:
    def test_phase_timings_recorded(self):
        rng = np.random.default_rng(2)
        m = 8
        spec, vals = random_spec(m, 300, rng)
        net = KylixAllreduce(Cluster(m), [4, 2])
        net.configure(spec)
        assert net.config_timing is not None and net.config_timing.elapsed > 0
        net.reduce(vals)
        assert net.last_reduce_timing.elapsed > 0
        assert net.last_reduce_timing.start >= net.config_timing.end

    def test_traffic_recorded_per_phase_and_layer(self):
        rng = np.random.default_rng(4)
        m = 8
        spec, vals = random_spec(m, 300, rng)
        cluster = Cluster(m)
        net = KylixAllreduce(cluster, [4, 2])
        net.allreduce(spec, vals)
        assert cluster.stats.layers("config") == [1, 2]
        assert cluster.stats.layers("reduce_down") == [1, 2]
        assert cluster.stats.layers("gather_up") == [1, 2]
        assert cluster.stats.phase_bytes("config") > 0

    def test_kylix_volume_decreases_down_layers_on_overlapping_data(self):
        """The 'Kylix shape': with heavy index collisions, lower layers
        carry less reduce traffic than the top layer."""
        rng = np.random.default_rng(9)
        m, n = 16, 400
        # every node touches a similar head set -> high collision rate
        idx = {r: np.unique(np.concatenate([
            rng.zipf(1.5, size=600) % n, np.arange(r, n, m)
        ])) for r in range(m)}
        spec = ReduceSpec(idx, idx)
        vals = {r: rng.normal(size=len(idx[r])) for r in range(m)}
        cluster = Cluster(m)
        net = KylixAllreduce(cluster, [4, 4])
        net.allreduce(spec, vals)
        down = cluster.stats.bytes_by_layer("reduce_down")
        assert down[2] < down[1]


# ---------------------------------------------------------------------------
# Property-based protocol correctness
# ---------------------------------------------------------------------------


@st.composite
def spec_and_values(draw):
    m, degrees = draw(
        st.sampled_from([(2, [2]), (4, [4]), (4, [2, 2]), (8, [2, 2, 2]), (6, [3, 2])])
    )
    n = draw(st.integers(4, 60))
    in_idx, out_idx, vals = {}, {}, {}
    for r in range(m):
        ins = draw(st.lists(st.integers(0, n - 1), max_size=15))
        outs = draw(st.lists(st.integers(0, n - 1), max_size=15))
        # guarantee coverage: rank r contributes its residue class
        home = list(range(r, n, m))
        out_idx[r] = np.array(outs + home, dtype=np.int64)
        in_idx[r] = np.array(ins, dtype=np.int64)
        vals[r] = np.array(
            draw(
                st.lists(
                    st.floats(-100, 100),
                    min_size=len(out_idx[r]),
                    max_size=len(out_idx[r]),
                )
            )
        )
    return m, degrees, ReduceSpec(in_idx, out_idx), vals


@given(spec_and_values())
@settings(max_examples=25, deadline=None)
def test_prop_kylix_matches_dense_reference(case):
    m, degrees, spec, vals = case
    net = KylixAllreduce(Cluster(m), degrees)
    ref = dense_reduce(spec, vals)
    got = net.allreduce(spec, vals)
    for r in range(m):
        np.testing.assert_allclose(got[r], ref[r], atol=1e-6)
