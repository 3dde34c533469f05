"""The allreduce service (docs/service.md): config-cache keying and
bit-identical plan reuse, drift invalidation, concurrent named streams
under a jittered scheduler, bounded-queue backpressure, minibatch
pipelining, the throughput benchmark's acceptance numbers, and the
service-fed SGD loop."""

import threading

import numpy as np
import pytest

from repro.allreduce import KylixAllreduce, ReduceSpec, dense_reduce
from repro.apps import ServiceSGD
from repro.cluster import Cluster
from repro.data import FixedPatternStream
from repro.service import (
    ConfigCache,
    ReduceService,
    ServiceClosed,
    ServiceOverloaded,
    run_service_benchmark,
    spec_fingerprint,
)
from repro.simul import JitterScheduler


def random_spec(m, n, density, seed):
    rng = np.random.default_rng(seed)
    k = max(2, int(density * n))
    idx = {
        r: np.unique(np.concatenate([rng.choice(n, k), np.arange(r, n, m)]))
        for r in range(m)
    }
    return ReduceSpec(in_indices=idx, out_indices=idx)


def random_values(spec, seed):
    rng = np.random.default_rng(seed)
    return {r: rng.normal(size=spec.out_indices[r].size) for r in spec.ranks}


def one_bad_job_of_three(backend):
    """Three submits, the middle one missing a rank's values: it alone
    fails, with the ``KeyError`` of a missing rank, and the two good
    jobs complete exactly.  On the simulator all three share one wave
    (slots=4)."""
    m, degrees = 4, [2, 2]
    spec_0 = random_spec(m, 300, 0.1, 44)
    spec_1 = random_spec(m, 300, 0.1, 45)
    vals_0, vals_1 = random_values(spec_0, 91), random_values(spec_1, 92)
    short = {r: v for r, v in random_values(spec_1, 93).items() if r != m - 1}
    cluster = Cluster(m) if backend == "sim" else None
    with ReduceService(backend=backend, cluster=cluster, degrees=degrees, slots=4) as svc:
        svc.open_stream("s0", spec_0)
        svc.open_stream("s1", spec_1)
        futures = [
            svc.submit("s0", vals_0),
            svc.submit("s1", short),
            svc.submit("s1", vals_1),
        ]
        with pytest.raises(KeyError):
            futures[1].result()
        assert futures[0].done() and futures[2].done()
        for spec, vals, fut in ((spec_0, vals_0, futures[0]), (spec_1, vals_1, futures[2])):
            out, ref = fut.result(), dense_reduce(spec, vals)
            for r in range(m):
                np.testing.assert_allclose(out[r], ref[r], atol=1e-12)
        assert svc.stats["completed"] == 2


class TestSpecFingerprint:
    def test_equal_specs_equal_fingerprints(self):
        a = random_spec(8, 400, 0.1, 7)
        b = random_spec(8, 400, 0.1, 7)
        fp = spec_fingerprint(a, [4, 2])
        assert fp == spec_fingerprint(b, [4, 2])
        assert len(fp) == 64  # sha256 hex

    @pytest.mark.parametrize(
        "mutate",
        ["indices", "degrees", "op", "multiplier"],
    )
    def test_any_plan_visible_difference_changes_fingerprint(self, mutate):
        spec = random_spec(8, 400, 0.1, 7)
        fp = spec_fingerprint(spec, [4, 2])
        if mutate == "indices":
            other = spec_fingerprint(random_spec(8, 400, 0.1, 8), [4, 2])
        elif mutate == "degrees":
            other = spec_fingerprint(spec, [2, 2, 2])
        elif mutate == "op":
            drifted = ReduceSpec(
                in_indices=spec.in_indices, out_indices=spec.out_indices, op="max"
            )
            other = spec_fingerprint(drifted, [4, 2])
        else:
            other = spec_fingerprint(spec, [4, 2], multiplier=12345)
        assert fp != other


class TestConfigCache:
    def test_hit_miss_and_eviction_accounting(self):
        cache = ConfigCache(2)
        assert cache.lookup("a") is None
        cache.store("a", {"plan": 1})
        cache.store("b", {"plan": 2})
        assert cache.lookup("a").plans == {"plan": 1}
        cache.store("c", {"plan": 3})  # capacity 2: LRU out ('b')
        assert "b" not in cache and "a" in cache and "c" in cache
        s = cache.stats
        assert s["hits"] == 1 and s["misses"] == 1
        assert s["evictions"] == 1 and s["size"] == 2

    def test_invalidate_counts_drift_but_keeps_the_entry(self):
        """Fingerprint keying already guarantees a drifted pattern can
        never be served the superseded plans, so invalidation records the
        drift without dropping the entry — an A -> B -> A replay still
        hits.  Explicit eviction is separate."""
        cache = ConfigCache(4)
        cache.store("a", {})
        cache.invalidate("a")
        assert "a" in cache
        assert cache.stats["invalidations"] == 1
        assert cache.evict("a") is True
        assert "a" not in cache and cache.evict("a") is False
        assert cache.stats["size"] == 0


class TestCachedConfigBitIdentity:
    """Property: a reduce over adopted cached plans is bit-identical to a
    reduce over a fresh configuration, across random workloads."""

    @pytest.mark.parametrize(
        "m,degrees,density,seed",
        [
            (4, [2, 2], 0.05, 0),
            (8, [4, 2], 0.10, 1),
            (8, [2, 2, 2], 0.30, 2),
            (16, [4, 4], 0.02, 3),
            (9, [3, 3], 0.15, 4),
        ],
    )
    def test_adopted_plans_reduce_bit_identical(self, m, degrees, density, seed):
        spec = random_spec(m, 600, density, seed)
        vals = random_values(spec, seed + 100)
        fresh = KylixAllreduce(Cluster(m), degrees=degrees)
        fresh.configure(spec)
        want = fresh.reduce(vals)

        adopted = KylixAllreduce(Cluster(m), degrees=degrees)
        adopted.adopt_plans(spec, fresh.plans)
        got = adopted.reduce(vals)
        for r in range(m):
            np.testing.assert_array_equal(got[r], want[r])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_service_cached_reduce_bit_identical_to_fresh(self, seed):
        m, degrees = 8, [4, 2]
        spec = random_spec(m, 500, 0.1, seed)
        svc = ReduceService(cluster=Cluster(m), degrees=degrees)
        stream = svc.open_stream("s", spec)
        rounds = [random_values(spec, seed * 10 + i) for i in range(4)]
        got = [svc.reduce(stream, vals) for vals in rounds]
        assert svc.cache.stats["misses"] == 1
        assert svc.cache.stats["hits"] == len(rounds) - 1
        for vals, out in zip(rounds, got):
            fresh = KylixAllreduce(Cluster(m), degrees=degrees)
            fresh.configure(spec)
            want = fresh.reduce(vals)
            for r in range(m):
                np.testing.assert_array_equal(out[r], want[r])


class TestDriftInvalidation:
    def test_drifted_pattern_is_never_served_stale(self):
        m, degrees = 8, [4, 2]
        spec_a = random_spec(m, 500, 0.1, 11)
        spec_b = random_spec(m, 500, 0.2, 12)
        svc = ReduceService(cluster=Cluster(m), degrees=degrees)
        stream = svc.open_stream("s", spec_a)

        vals_a = random_values(spec_a, 1)
        out_a = svc.reduce(stream, vals_a)
        ref_a = dense_reduce(spec_a, vals_a)
        for r in range(m):
            np.testing.assert_allclose(out_a[r], ref_a[r], atol=1e-12)

        # drift A -> B: the old binding must be invalidated, the new
        # pattern configured fresh (results match B's dense reference)
        vals_b = random_values(spec_b, 2)
        out_b = svc.reduce(stream, vals_b, spec=spec_b)
        ref_b = dense_reduce(spec_b, vals_b)
        for r in range(m):
            np.testing.assert_allclose(out_b[r], ref_b[r], atol=1e-12)
        assert svc.cache.stats["invalidations"] == 1
        assert stream.drifts == 1

        # drift back B -> A: fingerprint keying re-hits A's retained
        # entry — and still serves A's correct plans, never B's
        out_a2 = svc.reduce(stream, vals_a, spec=spec_a)
        for r in range(m):
            np.testing.assert_allclose(out_a2[r], ref_a[r], atol=1e-12)
        assert svc.cache.stats["misses"] == 2
        assert svc.cache.stats["hits"] == 1

    def test_a_drift_whose_configure_failed_is_never_served_stale(self, monkeypatch):
        m = 4
        spec_a = random_spec(m, 200, 0.1, 5)
        # B differs in its operator: run through A's plans it gives maxima.
        spec_b = ReduceSpec(spec_a.in_indices, spec_a.out_indices, op="max")
        svc = ReduceService(cluster=Cluster(m), degrees=[2, 2])
        stream = svc.open_stream("s", spec_a)
        vals_a = random_values(spec_a, 1)
        svc.reduce(stream, vals_a)

        def failing_run(*args, **kwargs):
            raise RuntimeError("configuration pass failed")

        with monkeypatch.context() as patch:
            patch.setattr(stream.net, "_run", failing_run)
            with pytest.raises(RuntimeError):
                svc.submit(stream, random_values(spec_b, 2), spec=spec_b)
        # Back to A: a cache hit on A's entry, and A's plans with A's spec.
        out, ref = svc.reduce(stream, vals_a, spec=spec_a), dense_reduce(spec_a, vals_a)
        for r in range(m):
            np.testing.assert_allclose(out[r], ref[r], atol=1e-12)

    def test_drift_runs_the_jobs_queued_on_the_old_pattern_first(self):
        m = 4
        spec_a = random_spec(m, 200, 0.1, 0)
        spec_b = random_spec(m, 200, 0.1, 1)
        svc = ReduceService(cluster=Cluster(m), degrees=[2, 2])
        stream = svc.open_stream("s", spec_a)
        vals_a, vals_b = random_values(spec_a, 1), random_values(spec_b, 2)
        fut_a = svc.submit(stream, vals_a)
        fut_b = svc.submit(stream, vals_b, spec=spec_b)
        for spec, vals, fut in ((spec_a, vals_a, fut_a), (spec_b, vals_b, fut_b)):
            out, ref = fut.result(), dense_reduce(spec, vals)
            for r in range(m):
                np.testing.assert_allclose(out[r], ref[r], atol=1e-12)

    def test_rebinding_name_to_new_pattern_requires_explicit_drift(self):
        svc = ReduceService(cluster=Cluster(4), degrees=[2, 2])
        svc.open_stream("s", random_spec(4, 200, 0.1, 0))
        with pytest.raises(ValueError):
            svc.open_stream("s", random_spec(4, 200, 0.1, 99))


class TestConcurrentStreams:
    @pytest.mark.parametrize("jitter_seed", [0, 1, 2])
    def test_concurrent_streams_bit_identical_to_sequential(self, jitter_seed):
        """K interleaved named streams through one fabric, with a jittered
        event scheduler, give exactly the results of K sequential
        fresh-net runs — reduction order is schedule-independent."""
        m, degrees = 8, [4, 2]
        specs = {f"s{i}": random_spec(m, 500, 0.05 * (i + 1), 20 + i) for i in range(3)}
        rounds = {
            name: [random_values(spec, 50 + 10 * i + j) for j in range(2)]
            for i, (name, spec) in enumerate(specs.items())
        }

        svc = ReduceService(
            cluster=Cluster(m, scheduler=JitterScheduler(seed=jitter_seed)),
            degrees=degrees,
            slots=6,
        )
        futures = []
        for name, spec in specs.items():
            svc.open_stream(name, spec)
        # interleave: round j of every stream before round j+1 of any
        for j in range(2):
            for name in specs:
                futures.append((name, j, svc.submit(name, rounds[name][j])))
        got = {(name, j): fut.result() for name, j, fut in futures}

        for name, spec in specs.items():
            seq = KylixAllreduce(Cluster(m), degrees=degrees)
            seq.configure(spec)
            for j in range(2):
                want = seq.reduce(rounds[name][j])
                for r in range(m):
                    np.testing.assert_array_equal(got[(name, j)][r], want[r])
        assert svc.stats["completed"] == 6

    def test_a_failing_job_fails_only_its_own_future_in_a_sim_wave(self):
        one_bad_job_of_three("sim")


class TestBackpressure:
    def test_overload_rejects_instead_of_queueing_unboundedly(self):
        m = 4
        spec = random_spec(m, 200, 0.1, 0)
        svc = ReduceService(cluster=Cluster(m), degrees=[2, 2], queue_depth=2)
        stream = svc.open_stream("s", spec)
        vals = random_values(spec, 1)
        f1 = svc.submit(stream, vals)
        f2 = svc.submit(stream, vals)
        cache_before = svc.cache.stats
        for respec in ({}, {"spec": random_spec(m, 200, 0.1, 9)}):
            with pytest.raises(ServiceOverloaded):
                svc.submit(stream, vals, **respec)
            # admission comes first: a rejected submit neither consults
            # the cache nor rebinds the stream
            assert svc.cache.stats == cache_before
            assert stream.spec is spec
        assert svc.stats["rejected"] == 2
        # draining the queue restores admission
        ref = dense_reduce(spec, vals)
        for fut in (f1, f2):
            out = fut.result()
            for r in range(m):
                np.testing.assert_allclose(out[r], ref[r], atol=1e-12)
        svc.submit(stream, vals).result()
        assert svc.stats["completed"] == 3

    def test_closed_service_rejects_submissions(self):
        svc = ReduceService(cluster=Cluster(4), degrees=[2, 2])
        stream = svc.open_stream("s", random_spec(4, 200, 0.1, 0))
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(stream, {})


class TestServiceSLO:
    """The service instruments its own SLOs (docs/service.md "Service
    telemetry"): queue depth sampled on every submit/completion, the
    per-stream reduce-latency histogram, and the cache hit-rate trend."""

    def test_slo_metrics_emitted_on_a_cached_run(self):
        m, degrees = 8, [4, 2]
        spec = random_spec(m, 500, 0.1, 3)
        cluster = Cluster(m, observe=True)
        svc = ReduceService(cluster=cluster, degrees=degrees)
        stream = svc.open_stream("grads", spec)
        for i in range(4):
            svc.reduce(stream, random_values(spec, i))
        obs = cluster.obs
        # everything drained: the sampled queue depth reads empty
        assert obs.gauge("service.queue.depth").value() == 0.0
        # 1 miss + 3 hits on one cached pattern
        assert obs.gauge("slo.cache.hit_rate").value() == pytest.approx(0.75)
        s = obs.histogram("slo.reduce_latency").summary(stream="grads")
        assert s["count"] == 4
        assert s["max"] > 0.0  # virtual seconds: reduces take sim time

    def test_unobserved_service_pays_nothing(self):
        m = 4
        spec = random_spec(m, 200, 0.1, 0)
        svc = ReduceService(cluster=Cluster(m), degrees=[2, 2])
        stream = svc.open_stream("s", spec)
        svc.reduce(stream, random_values(spec, 1))  # must not raise


class TestPipelining:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_pipelined_results_depth_invariant_and_exact(self, depth):
        m, degrees = 8, [4, 2]
        spec = random_spec(m, 500, 0.1, 31)
        rounds = [random_values(spec, 60 + j) for j in range(5)]
        svc = ReduceService(cluster=Cluster(m), degrees=degrees)
        stream = svc.open_stream("s", spec)
        got = svc.submit_pipelined(stream, rounds, depth=depth)

        seq = KylixAllreduce(Cluster(m), degrees=degrees)
        seq.configure(spec)
        for vals, out in zip(rounds, got):
            want = seq.reduce(vals)
            for r in range(m):
                np.testing.assert_array_equal(out[r], want[r])
        # one cache consult per batch: 1 miss + N-1 hits
        assert svc.cache.stats["misses"] == 1
        assert svc.cache.stats["hits"] == len(rounds) - 1

    def test_pipelining_overlaps_rounds_on_the_simulated_clock(self):
        """Depth-2 pipelining finishes the batch strictly faster than
        depth-1 (scatter of round k+1 overlaps allgather of round k)."""
        m, degrees = 8, [4, 2]
        spec = random_spec(m, 500, 0.1, 32)
        rounds = [random_values(spec, 70 + j) for j in range(6)]

        def sim_seconds(depth):
            cluster = Cluster(m)
            svc = ReduceService(cluster=cluster, degrees=degrees)
            svc.submit_pipelined(svc.open_stream("s", spec), rounds, depth=depth)
            return cluster.now

        assert sim_seconds(2) < sim_seconds(1)


class TestServiceBenchmark:
    def test_small_scale_benchmark_gates(self):
        rec = run_service_benchmark(
            m=16, degrees=(4, 4), reduces=10, n=400, seed=1, depth=2
        )
        assert rec["exact"] is True
        assert rec["cache_hits"] == 9 and rec["cache_misses"] == 1
        assert rec["speedup"] > 1.0
        assert rec["service_sim_seconds"] < rec["sequential_sim_seconds"]

    def test_rejects_degenerate_round_counts(self):
        with pytest.raises(ValueError):
            run_service_benchmark(m=4, degrees=(2, 2), reduces=1)


class TestServiceSGD:
    def test_sgd_over_the_service_converges_and_caches(self):
        m, n_features = 8, 256
        cluster = Cluster(m)
        svc = ReduceService(cluster=cluster, degrees=[4, 2])
        data = FixedPatternStream(
            n_features, pattern_size=48, batch_size=16, nnz_per_example=6, seed=5
        )
        streams = {r: data.node_stream(r, 4) for r in range(m)}
        sgd = ServiceSGD(svc, n_features, learning_rate=0.5)
        result = sgd.run(streams, epochs=3)
        assert result.steps == 12
        # logistic loss starts at ln 2 and must actually fall
        assert result.losses[0] == pytest.approx(np.log(2.0), rel=1e-3)
        assert result.losses[-1] < 0.9 * result.losses[0]
        assert result.comm_time > 0.0
        # one configuration for the whole run, every push a cache hit
        assert svc.cache.stats["misses"] == 1
        assert svc.cache.stats["hits"] == result.steps - 1

    def test_sgd_over_a_forked_service_equals_the_simulator(self):
        m, n_features = 4, 64
        data = FixedPatternStream(
            n_features, pattern_size=16, batch_size=8, nnz_per_example=4, seed=5
        )
        streams = {r: data.node_stream(r, 2) for r in range(m)}
        sim_svc = ReduceService(cluster=Cluster(m), degrees=[2, 2])
        sim = ServiceSGD(sim_svc, n_features, learning_rate=0.5).run(streams, epochs=2)
        with ReduceService(backend="local", degrees=[2, 2]) as svc:
            real = ServiceSGD(svc, n_features, learning_rate=0.5).run(streams, epochs=2)
            assert svc.cache.stats == sim_svc.cache.stats
        assert np.array_equal(real.weights, sim.weights)
        assert real.losses == sim.losses
        assert real.comm_time > 0.0  # wall-clock seconds

    def test_varying_pattern_stream_is_rejected(self):
        from repro.data import MinibatchStream

        m, n_features = 4, 128
        svc = ReduceService(cluster=Cluster(m), degrees=[2, 2])
        data = MinibatchStream(n_features, batch_size=8, nnz_per_example=4, seed=0)
        streams = {r: data.node_stream(r, 2) for r in range(m)}
        sgd = ServiceSGD(svc, n_features)
        with pytest.raises(ValueError):
            sgd.run(streams, epochs=1)


class TestLocalBackendService:
    @pytest.mark.parametrize("backend", ["local", "tcp"])
    def test_local_streams_and_pipelined_rounds_exact(self, backend):
        m, degrees = 4, [2, 2]
        spec = random_spec(m, 300, 0.1, 41)
        rounds = [random_values(spec, 80 + j) for j in range(3)]
        with ReduceService(backend=backend, degrees=degrees) as svc:
            stream = svc.open_stream("s", spec)
            got = svc.submit_pipelined(stream, rounds)
            single = svc.reduce(stream, rounds[0])
            assert svc.cache.stats["misses"] == 1
            assert svc.cache.stats["hits"] == len(rounds)
        for vals, out in zip(rounds, got):
            ref = dense_reduce(spec, vals)
            for r in range(m):
                np.testing.assert_allclose(out[r], ref[r], atol=1e-12)
        ref0 = dense_reduce(spec, rounds[0])
        for r in range(m):
            np.testing.assert_allclose(single[r], ref0[r], atol=1e-12)

    def test_forked_service_starts_no_thread(self):
        m, degrees = 4, [2, 2]
        spec = random_spec(m, 300, 0.1, 43)
        vals = random_values(spec, 90)
        threads = threading.active_count()
        with ReduceService(backend="local", degrees=degrees, slots=4) as svc:
            fut = svc.submit(svc.open_stream("s", spec), vals)
            assert threading.active_count() == threads
            out = fut.result()
            assert threading.active_count() == threads
        ref = dense_reduce(spec, vals)
        for r in range(m):
            np.testing.assert_allclose(out[r], ref[r], atol=1e-12)

    def test_a_failing_job_fails_only_its_own_future(self):
        one_bad_job_of_three("local")
