"""Tests for the message fabric's cost model and delivery semantics."""

import numpy as np
import pytest

from repro.allreduce import KylixAllreduce, ReduceSpec, dense_reduce
from repro.cluster import Cluster, Message, TrafficStats
from repro.faults import FaultPlan, FaultPlanError
from repro.netmodel import EC2_LIKE, LOW_LATENCY, NetworkParams


def make_cluster(n=4, **kw):
    return Cluster(n, **kw)


class TestDelivery:
    def test_payload_arrives_intact(self):
        c = make_cluster()
        arr = np.arange(10.0)
        results = {}

        def proto(node):
            if node.rank == 0:
                node.send(1, arr, tag="data")
            elif node.rank == 1:
                msg = yield node.recv(tag="data")
                results["got"] = msg.payload
            if False:
                yield

        c.run(proto)
        np.testing.assert_array_equal(results["got"], arr)

    def test_single_message_time_matches_model(self):
        params = NetworkParams(bandwidth=1e9, message_overhead=1e-3, base_latency=1e-4)
        c = make_cluster(2, params=params)
        nbytes = 10_000_000

        def proto(node):
            if node.rank == 0:
                node.send(1, None, nbytes=nbytes, tag="x")
            else:
                yield node.recv(tag="x")

        c.run(proto)
        expect = 1e-3 + 1e-4 + nbytes / 1e9
        assert c.now == pytest.approx(expect, rel=1e-6)

    def test_fan_in_serializes_at_receiver(self):
        params = NetworkParams(bandwidth=1e9, message_overhead=0.0, base_latency=0.0)
        m = 5
        c = make_cluster(m, params=params)
        nbytes = 1_000_000

        def proto(node):
            if node.rank > 0:
                node.send(0, None, nbytes=nbytes, tag="in")
            else:
                for _ in range(m - 1):
                    yield node.recv(tag="in")

        c.run(proto)
        # 4 concurrent senders into one NIC: total (m-1)*size/B seconds.
        assert c.now == pytest.approx((m - 1) * nbytes / 1e9, rel=1e-6)

    def test_fan_out_serializes_at_sender(self):
        params = NetworkParams(bandwidth=1e9, message_overhead=0.0, base_latency=0.0)
        m = 5
        c = make_cluster(m, params=params)
        nbytes = 1_000_000

        def proto(node):
            if node.rank == 0:
                for dst in range(1, m):
                    node.send(dst, None, nbytes=nbytes, tag="out")
            else:
                yield node.recv(tag="out")

        c.run(proto)
        assert c.now == pytest.approx((m - 1) * nbytes / 1e9, rel=1e-6)

    def test_threads_overlap_message_overheads(self):
        """With T threads, T per-message overheads run concurrently (Fig 7)."""
        params = NetworkParams(bandwidth=1e12, message_overhead=1e-3, base_latency=0.0)
        k = 8

        def proto(node):
            if node.rank == 0:
                for _ in range(k):
                    node.send(1, None, nbytes=8, tag="t")
            else:
                for _ in range(k):
                    yield node.recv(tag="t")

        c1 = make_cluster(2, params=params, threads=1)
        c1.run(proto)
        ck = make_cluster(2, params=params, threads=k)
        ck.run(proto)
        assert c1.now == pytest.approx(k * 1e-3, rel=1e-3)
        assert ck.now == pytest.approx(1e-3, rel=1e-3)

    def test_oversubscribed_threads_pay_penalty(self):
        params = NetworkParams(bandwidth=1e12, message_overhead=1e-3, base_latency=0.0)

        def proto(node):
            if node.rank == 0:
                node.send(1, None, nbytes=8, tag="t")
            else:
                yield node.recv(tag="t")

        c16 = make_cluster(2, params=params, threads=16, hw_threads=16)
        c16.run(proto)
        c64 = make_cluster(2, params=params, threads=64, hw_threads=16)
        c64.run(proto)
        assert c64.now > c16.now

    def test_self_message_is_free_of_network_time(self):
        c = make_cluster(2)

        def proto(node):
            if node.rank == 0:
                node.send(0, "hello", nbytes=1 << 20, tag="self")
                msg = yield node.recv(tag="self")
                return msg.payload

        out = c.run(proto, nodes=[0])
        assert out[0] == "hello"
        assert c.now < 1e-2  # memcpy-scale, far below wire time for 1MB

    def test_tag_and_src_filtering(self):
        c = make_cluster(3)
        got = []

        def proto(node):
            if node.rank in (0, 1):
                node.send(2, node.rank, tag=f"from{node.rank}")
            else:
                m1 = yield node.recv(tag="from1")
                m0 = yield node.recv(tag="from0", src=0)
                got.extend([m1.payload, m0.payload])
            if False:
                yield

        c.run(proto)
        assert got == [1, 0]

    def test_bad_endpoint_rejected(self):
        c = make_cluster(2)
        with pytest.raises(ValueError):
            c.fabric.send(0, 5, None, 8)

    def test_negative_nbytes_rejected(self):
        c = make_cluster(2)
        with pytest.raises(ValueError):
            c.fabric.send(0, 1, None, -1)


class TestMessageInFlight:
    def test_a_message_in_flight_is_one_object(self):
        """A queued delivery is the Message itself: it carries its payload,
        has nothing on its callback list and derives its footprint."""
        m = 8
        rng = np.random.default_rng(0)
        idx = {r: np.unique(rng.choice(200, 40)) for r in range(m)}
        spec = ReduceSpec(in_indices=idx, out_indices=idx)
        vals = {r: rng.integers(-9, 10, idx[r].size).astype(np.float64) for r in range(m)}
        c = make_cluster(m)
        net = KylixAllreduce(c, [2, 2, 2])
        net.configure(spec)
        inst = net.next_instance()
        procs = [c.engine.process(net.node_reduce(c.node(r), vals, inst)) for r in range(m)]
        # Start every node; each sends its two layer-1 parts, then waits.
        queue = c.engine._queue
        for _ in range(10 * m):
            if sum(isinstance(ev, Message) for _, _, ev in queue) == 2 * m:
                break
            c.engine.step()
        queued = [ev for _, _, ev in queue]
        assert len(queued) == 2 * m
        for msg in queued:
            assert type(msg) is Message
            assert isinstance(msg.payload, np.ndarray) and msg.payload.size
            assert msg.callbacks == []
            if msg.src == msg.dst:
                assert msg.footprint is None
            else:
                assert msg.footprint == ("mbox", msg.dst, "reduce_down", 1)
        c.engine.run_until_complete(*procs)
        ref = dense_reduce(spec, vals)
        for r, proc in enumerate(procs):
            np.testing.assert_array_equal(proc.value, ref[r])


class TestFailures:
    def test_send_to_dead_node_dropped(self):
        c = make_cluster(2, failures=FaultPlan().kill(1))

        def proto(node):
            node.send(1, None, nbytes=8, tag="x")
            if False:
                yield

        c.run(proto, nodes=[0])
        assert c.fabric.dropped == 1

    def test_dead_node_excluded_from_live_nodes(self):
        c = make_cluster(4, failures=FaultPlan().kill(2))
        assert c.live_nodes == [0, 1, 3]

    def test_mid_run_death_drops_in_flight_delivery(self):
        params = NetworkParams(bandwidth=1e6, message_overhead=0.0, base_latency=0.0)
        plan = FaultPlan({1: 0.5})  # dies while the message is in flight
        c = make_cluster(2, params=params, failures=plan)

        def sender(node):
            node.send(1, None, nbytes=1_000_000, tag="x")  # takes 1s > 0.5s
            if False:
                yield

        c.run(sender, nodes=[0])
        c.engine.run()  # drain the in-flight delivery past the death time
        assert c.fabric.dropped == 1

    def test_failure_plan_validation(self):
        with pytest.raises(FaultPlanError):
            FaultPlan({0: -1.0})
        with pytest.raises(FaultPlanError):
            FaultPlan().kill(0, at=-1.0)

    def test_kill_chainable(self):
        plan = FaultPlan().kill(3).kill(5, at=2.0)
        assert sorted(plan.deaths) == [3, 5]
        assert plan.is_alive(5, 1.0) and not plan.is_alive(5, 2.5)


class TestStats:
    def test_bytes_recorded_by_phase_and_layer(self):
        c = make_cluster(2)

        def proto(node):
            if node.rank == 0:
                node.send(1, None, nbytes=100, tag="a", phase="config", layer=1)
                node.send(1, None, nbytes=50, tag="b", phase="reduce", layer=1)
                node.send(0, None, nbytes=25, tag="c", phase="reduce", layer=2)
                yield node.recv(tag="c")
            else:
                yield node.recv(tag="a")
                yield node.recv(tag="b")

        c.run(proto)
        assert c.stats.phase_bytes("config") == 100
        assert c.stats.bytes_by_layer("reduce") == {1: 50, 2: 25}
        assert c.stats.cell("reduce", 2).self_bytes == 25
        assert c.stats.total_messages() == 3
        assert c.stats.total_bytes(include_self=False) == 150

    def test_merged_layers(self):
        s = TrafficStats()
        s.record(0, 1, 10, phase="down", layer=1)
        s.record(0, 1, 5, phase="up", layer=1)
        s.record(0, 1, 7, phase="down", layer=2)
        assert s.merged("down", "up") == {1: 15, 2: 7}

    def test_reset(self):
        s = TrafficStats()
        s.record(0, 1, 10, phase="p", layer=0)
        s.reset()
        assert s.total_bytes() == 0


class TestComputeModel:
    def test_compute_advances_clock_and_accounts(self):
        c = make_cluster(2, compute_rate=1e9)

        def proto(node):
            yield node.compute_bytes(2e9)

        c.run(proto, nodes=[0])
        assert c.now == pytest.approx(2.0)
        assert c.compute_seconds[0] == pytest.approx(2.0)
        assert c.total_compute_seconds == pytest.approx(2.0)

    def test_negative_compute_rejected(self):
        c = make_cluster(1)
        with pytest.raises(ValueError):
            c.node(0).compute(-1.0)

    def test_deterministic_given_seed(self):
        params = NetworkParams(
            bandwidth=1e9, message_overhead=1e-4, base_latency=1e-3, latency_sigma=0.8
        )

        def proto(node):
            if node.rank == 0:
                for i in range(10):
                    node.send(1, None, nbytes=1000, tag=i)
            else:
                for i in range(10):
                    yield node.recv(tag=i)

        times = []
        for _ in range(2):
            c = make_cluster(2, params=params, seed=123)
            c.run(proto)
            times.append(c.now)
        assert times[0] == times[1]
