"""Schedule-perturbation determinism checks.

``repro.simul.engine`` promises that ties in simulated time are broken by
scheduling order, making seeded runs bit-identical; and protocol results
must not depend on the order node processes happen to be created in.
Both promises are checked here: identical runs must produce identical
results *and* identical engine event traces, and shuffled
process-creation order must leave the numbers (and the traffic content)
unchanged even though event timing legitimately shifts.
"""

import numpy as np
import pytest

from repro import Cluster, KylixAllreduce, ReduceSpec, dense_reduce


def small_workload(m=8, n=120, seed=11):
    rng = np.random.default_rng(seed)
    in_idx = {r: rng.choice(n, size=10, replace=False) for r in range(m)}
    out_idx = {r: np.arange(r, n, m) for r in range(m)}
    vals = {r: rng.normal(size=out_idx[r].size) for r in range(m)}
    return ReduceSpec(in_idx, out_idx), vals


def run_once(creation_order=None, *, m=8, degrees=(2, 2, 2)):
    spec, vals = small_workload(m)
    cluster = Cluster(
        m, creation_order=creation_order, record_trace=True, seed=3, observe=True
    )
    net = KylixAllreduce(cluster, list(degrees))
    net.configure(spec)
    result = net.reduce(vals)
    traffic = sorted(
        (r.src, r.dst, r.phase, r.layer, r.nbytes) for r in cluster.obs.messages
    )
    return result, list(cluster.engine.trace), traffic


class TestIdenticalRuns:
    def test_same_run_twice_is_bit_identical(self):
        res_a, trace_a, traffic_a = run_once()
        res_b, trace_b, traffic_b = run_once()
        for r in res_a:
            np.testing.assert_array_equal(res_a[r], res_b[r])
        assert trace_a == trace_b, "engine event traces diverged between identical runs"
        assert traffic_a == traffic_b
        assert len(trace_a) > 0


class TestShuffledCreationOrder:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_results_invariant_under_creation_order(self, seed):
        m = 8
        spec, vals = small_workload(m)
        ref = dense_reduce(spec, vals)
        perm = list(np.random.default_rng(seed).permutation(m))
        shuffled, _, traffic_s = run_once(creation_order=perm)
        baseline, _, traffic_b = run_once()
        for r in range(m):
            np.testing.assert_array_equal(shuffled[r], baseline[r])
            np.testing.assert_allclose(shuffled[r], ref[r], atol=1e-9)
        # The traffic *content* (who sends what to whom, per phase/layer)
        # is a protocol property, independent of process-creation order.
        assert traffic_s == traffic_b

    def test_identical_shuffles_give_identical_traces(self):
        perm = [5, 0, 7, 2, 6, 1, 4, 3]
        res_a, trace_a, _ = run_once(creation_order=perm)
        res_b, trace_b, _ = run_once(creation_order=perm)
        for r in res_a:
            np.testing.assert_array_equal(res_a[r], res_b[r])
        assert trace_a == trace_b

    def test_creation_order_must_be_a_permutation(self):
        with pytest.raises(ValueError):
            Cluster(4, creation_order=[0, 1, 2, 2])
        with pytest.raises(ValueError):
            Cluster(4, creation_order=[0, 1])


class TestTraceOffByDefault:
    def test_no_trace_unless_requested(self):
        cluster = Cluster(2)
        assert cluster.engine.trace is None
