"""The driver↔node session contract (repro.net.session).

Three angles: the node half driven in-process over a recording control
(frame order, done handshake, partial rounds on failure); the driver
half's decoding as pure unit cases; and the differential the contract
exists for — the same job gives the same bits and the same degraded
accounting on pipes, on loopback TCP and on the node-server cluster.
"""

import multiprocessing as mp
import multiprocessing.connection
import socket
import threading
import time

import numpy as np

from repro.allreduce import ReduceSpec, dense_reduce
from repro.faults import FaultPlan, LossRecord, PeerFailedError, RetryPolicy
from repro.net import LocalKylix, TcpKylix
from repro.net.cluster import ClusterKylix
from repro.net.session import NodeJob, SocketControl, collate, encode_error, failure, run_node
from repro.net.transport import SocketTransport
from repro.obs.runner import EXPERIMENTS
from repro.sparse import MultiplicativeHasher

from test_net_cluster import shutdown_node_threads, start_node_threads


def make_case(m, n, seed):
    rng = np.random.default_rng(seed)
    idx = {
        r: np.unique(np.concatenate([rng.choice(n, 50), np.arange(r, n, m)]))
        for r in range(m)
    }
    spec = ReduceSpec(in_indices=idx, out_indices=idx)
    vals = {r: rng.normal(size=idx[r].size) for r in range(m)}
    return spec, vals


class RecordingControl:
    """A control whose node→driver direction is a list; the driver→node
    direction is a real socket-pair control, so the node can wait on it."""

    def __init__(self):
        self.driver_end, self._node_end = map(SocketControl, socket.socketpair())
        self.sent = []

    def send(self, frame):
        self.sent.append(frame)

    def recv(self):
        return self._node_end.recv()

    def fileno(self):
        return self._node_end.fileno()

    def close(self):
        self.driver_end.close()
        self._node_end.close()

    def result(self):
        return next((f for f in self.sent if f[0] == "result"), None)


def run_nodes_on_threads(m, degrees, rounds, *, fail_at_round=None, **job_fields):
    """``m`` run_node bodies on threads over a socket-pair mesh; returns once
    every node has posted its result (and, by contract, is lingering)."""
    spec, vals = make_case(m, 120, 4)
    conns = {r: {} for r in range(m)}
    for i in range(m):
        for j in range(i + 1, m):
            conns[i][j], conns[j][i] = socket.socketpair()

    def open_transport(rank, plan, retry, obs):
        net = SocketTransport(rank, conns[rank], plan, retry, obs=obs)
        prune = net.prune_round

        def failing_prune(seq):
            if seq == fail_at_round:
                raise PeerFailedError("injected", slot=1, phase="down", layer=1)
            prune(seq)

        net.prune_round = failing_prune
        return net

    controls = {r: RecordingControl() for r in range(m)}
    threads = []
    for r in range(m):
        job = NodeJob.for_rank(
            r, spec, [vals] * rounds, degrees=tuple(degrees),
            hasher=MultiplicativeHasher(), retry=RetryPolicy(base_timeout=0.5),
            **job_fields,
        )
        t = threading.Thread(
            target=run_node, args=(r, job, open_transport, controls[r]), daemon=True
        )
        t.start()
        threads.append(t)
    for _ in range(600):
        if all(c.result() is not None for c in controls.values()):
            break
        time.sleep(0.05)
    assert all(c.result() is not None for c in controls.values()), "no result"
    return spec, vals, controls, threads


def finish(controls, threads):
    for c in controls.values():
        c.driver_end.send(("done",))
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads), "node outlived the done frame"
    for c in controls.values():
        c.close()


class TestRunNode:
    def test_telemetry_then_one_result_then_returns_on_done(self):
        spec, vals, controls, threads = run_nodes_on_threads(
            4, [2, 2], 3, observe=True, telemetry_interval=0.005
        )
        # Result is out, yet every node is still alive: it lingers,
        # servicing NACKs, until the driver says done.
        assert all(t.is_alive() for t in threads)
        finish(controls, threads)
        ref = dense_reduce(spec, vals)
        for r, c in controls.items():
            kinds = [f[0] for f in c.sent]
            assert kinds[-1] == "result" and kinds.count("result") == 1
            assert set(kinds[:-1]) == {"telemetry"}
            _, rank, err, rounds_out, snapshot, cache = c.result()
            assert (rank, err) == (r, None)
            assert len(rounds_out) == 3
            for result, lost_raw, losses in rounds_out:
                np.testing.assert_allclose(result, ref[r], atol=1e-9)
                assert lost_raw is None and losses == ()
            assert cache == {"hits": 2, "misses": 1}
            # The streamed samples also ride the snapshot home.
            streamed = [f[2].seq for f in c.sent[:-1]]
            assert [s.seq for s in snapshot["telemetry"]] == streamed

    def test_failure_in_round_2_of_3_keeps_rounds_0_and_1(self):
        spec, vals, controls, threads = run_nodes_on_threads(
            2, [2], 3, fail_at_round=2
        )
        finish(controls, threads)
        ref = dense_reduce(spec, vals)
        for r, c in controls.items():
            assert [f[0] for f in c.sent] == ["result"]
            _, _, err, rounds_out, snapshot, _ = c.result()
            assert err == ("peer", 1, "down", 1, "injected")
            assert snapshot is None
            assert len(rounds_out) == 2
            for result, _, _ in rounds_out:
                np.testing.assert_allclose(result, ref[r], atol=1e-9)


class TestCollect:
    def test_silent_controls_cost_one_wait(self, monkeypatch):
        from repro.net import session

        calls = []

        def wait(conns, timeout):
            calls.append(timeout)
            return mp.connection.wait(conns, timeout)

        monkeypatch.setattr(session, "wait", wait)
        # The node ends stay open and silent.
        pairs = {r: [SocketControl(s) for s in socket.socketpair()] for r in range(3)}
        frames = list(session.collect({r: ends[0] for r, ends in pairs.items()}, timeout=0.5))
        assert [(f[0], f[1]) for f in frames] == [("lost", 0), ("lost", 1), ("lost", 2)]
        assert len(calls) == 1


class TestCollate:
    spec = ReduceSpec(
        in_indices={0: np.array([1, 2, 3]), 1: np.array([2, 3, 4, 5])},
        out_indices={0: np.array([1, 2, 3]), 1: np.array([2, 3, 4, 5])},
    )

    @staticmethod
    def result(rank, rounds_out, err=None, cache=(0, 0)):
        return ("result", rank, err, rounds_out, None, {"hits": cache[0], "misses": cache[1]})

    def test_peer_error_round_trips_typed(self):
        exc = PeerFailedError("peer 3 silent", slot=3, phase="up", layer=2)
        back = failure(self.result(0, [], err=encode_error(exc)))
        assert isinstance(back, PeerFailedError)
        assert (str(back), back.slot, back.phase, back.layer) == (
            "peer 3 silent", 3, "up", 2,
        )

    def test_other_errors_travel_as_traceback_text(self):
        try:
            raise KeyError("boom")
        except KeyError as exc:
            err = encode_error(exc)
        back = failure(self.result(1, [], err=err))
        assert type(back) is RuntimeError
        assert "worker 1 failed: KeyError" in str(back) and "Traceback" in str(back)
        assert failure(self.result(1, [])) is None

    def test_dead_rank_loses_its_whole_slice_with_one_loss_record(self):
        records = {
            0: self.result(0, [(np.zeros(3), np.array([3]), (LossRecord(0, 1, "down", 1),))]),
            1: ("lost", 1, "node 1 exited before posting a result"),
        }
        out = collate(records, self.spec, 2, degrade=True)
        assert out.dead == [1] and sorted(out.rounds) == [0]
        assert isinstance(out.errors[1], PeerFailedError) and out.errors[1].slot == 1
        assert 0 not in out.errors
        np.testing.assert_array_equal(out.report.lost_indices[0], [3])
        np.testing.assert_array_equal(out.report.lost_indices[1], [2, 3, 4, 5])
        assert out.report.losses == (
            LossRecord(0, 1, "down", 1),
            LossRecord(1, 1, "combined_down", 0),
        )
        assert out.report.dead_members == (1,)
        # Strict sessions account the same way but issue no receipt.
        assert collate(records, self.spec, 2, degrade=False).report is None

    def test_partial_rounds_are_kept_next_to_the_error(self):
        two = [(np.ones(3), None, ()), (np.ones(3), None, ())]
        records = {
            0: self.result(0, two, err=("peer", 1, "down", 1, "gone"), cache=(1, 1)),
            1: self.result(1, two + two[:1], cache=(2, 1)),
        }
        out = collate(records, self.spec, 2, degrade=False)
        assert len(out.rounds[0]) == 2 and len(out.rounds[1]) == 3
        assert out.errors[0].slot == 1 and list(out.errors) == [0]
        assert out.dead == [] and out.cache == {"hits": 3, "misses": 2}


class TestOneContractThreeMedia:
    """ROADMAP item 5's oracle in miniature."""

    def test_same_seed_same_bits_on_pipes_tcp_and_cluster(self):
        w = EXPERIMENTS["quickstart"](5)
        spec = ReduceSpec(in_indices=w["in_idx"], out_indices=w["out_idx"])
        local = LocalKylix(w["degrees"]).allreduce(spec, w["values"])
        tcp = TcpKylix(w["degrees"]).allreduce(spec, w["values"])
        threads, manifest = start_node_threads(w["m"], once=True)
        try:
            cluster = ClusterKylix(
                manifest, w["degrees"], retry=RetryPolicy(base_timeout=0.25), timeout=60.0
            ).allreduce(spec, w["values"])
        finally:
            for t in threads:
                t.join(timeout=30.0)
        for r in range(w["m"]):
            assert np.array_equal(local[r], tcp[r])
            assert np.array_equal(local[r], cluster[r])

    def test_rounds_on_long_lived_nodes_match_pipes_bit_for_bit(self):
        w = EXPERIMENTS["quickstart"](6)
        spec = ReduceSpec(in_indices=w["in_idx"], out_indices=w["out_idx"])
        rounds = [w["values"]] * 2
        local = LocalKylix(w["degrees"]).allreduce_rounds(spec, rounds)
        threads, manifest = start_node_threads(w["m"], once=False)
        try:
            cluster = ClusterKylix(
                manifest, w["degrees"], retry=RetryPolicy(base_timeout=0.25), timeout=60.0
            ).allreduce_rounds(spec, rounds)
        finally:
            shutdown_node_threads(threads, manifest)
        assert len(cluster) == len(local) == 2
        for want, got in zip(local, cluster):
            for r in range(w["m"]):
                assert np.array_equal(want[r], got[r])

    def test_one_crash_schedule_one_report_on_pipes_and_tcp(self):
        spec, vals = make_case(4, 200, 11)
        reports = []
        for backend in (LocalKylix, TcpKylix):
            net = backend(
                [2, 2],
                faults=FaultPlan().kill_at_step(1, "down", 1),
                retry=RetryPolicy(base_timeout=0.2, max_retries=2),
                degrade=True,
                timeout=60.0,
            )
            out = net.allreduce(spec, vals)
            assert 1 not in out and sorted(out) == [0, 2, 3]
            reports.append(net.last_report)
        a, b = reports
        assert not a.complete and a.dead_members == b.dead_members == (1,)
        assert sorted(a.lost_indices) == sorted(b.lost_indices)
        for r in a.lost_indices:
            np.testing.assert_array_equal(a.lost_indices[r], b.lost_indices[r])
        assert a.losses == b.losses
        assert mp.active_children() == []
