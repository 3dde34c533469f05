"""The real-sockets backend (repro.net.TcpKylix) over loopback.

Everything here crosses actual TCP connections: framing, the one
pump per node, heartbeats, reconnect.  The acceptance contract is the
same as LocalKylix's — typed failures in bounded time, zero zombie
processes — plus the socket-specific clause: zero leaked file
descriptors in the parent across a run, including runs that end in a
SIGKILLed worker.
"""

import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.allreduce import ReduceSpec, dense_reduce
from repro.faults import FaultPlan, LinkFault, PeerFailedError, RetryPolicy
from repro.net import LocalKylix, TcpKylix


def covered_case(m, n, rng):
    in_idx = {r: rng.choice(n, size=max(2, n // 6), replace=False) for r in range(m)}
    out_idx = {
        r: np.concatenate([rng.choice(n, size=8), np.arange(r, n, m)]).astype(np.int64)
        for r in range(m)
    }
    spec = ReduceSpec(in_idx, out_idx)
    vals = {r: rng.normal(size=out_idx[r].size) for r in range(m)}
    return spec, vals


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def assert_no_children(budget=5.0):
    deadline = time.monotonic() + budget
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert mp.active_children() == []


class TestTcpCorrectness:
    @pytest.mark.parametrize("degrees", [[2], [4], [2, 2]])
    def test_matches_dense_reference(self, degrees):
        m = int(np.prod(degrees))
        rng = np.random.default_rng(m)
        spec, vals = covered_case(m, 150, rng)
        got = TcpKylix(degrees).allreduce(spec, vals)
        ref = dense_reduce(spec, vals)
        for r in spec.ranks:
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)
        assert_no_children()

    def test_agrees_with_local_backend(self):
        rng = np.random.default_rng(9)
        spec, vals = covered_case(4, 120, rng)
        tcp = TcpKylix([2, 2]).allreduce(spec, vals)
        local = LocalKylix([2, 2]).allreduce(spec, vals)
        for r in spec.ranks:
            np.testing.assert_allclose(tcp[r], local[r], atol=1e-12)

    def test_no_parent_fd_leak(self):
        rng = np.random.default_rng(10)
        spec, vals = covered_case(4, 100, rng)
        net = TcpKylix([2, 2])
        net.allreduce(spec, vals)  # warm any lazily-created fds
        before = open_fds()
        net.allreduce(spec, vals)
        assert open_fds() <= before


class TestTcpFaults:
    def test_recovers_from_seeded_chaos(self):
        rng = np.random.default_rng(11)
        spec, vals = covered_case(4, 150, rng)
        plan = FaultPlan(seed=5).with_rule(LinkFault(drop=0.10, duplicate=0.05))
        net = TcpKylix([2, 2], faults=plan, retry=RetryPolicy(base_timeout=0.3))
        got = net.allreduce(spec, vals)
        ref = dense_reduce(spec, vals)
        for r in spec.ranks:
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)
        assert_no_children()

    def test_crash_degrades_with_coverage_report(self):
        """A node dying before its first send: the survivors finish, the
        report accounts every lost index, and the kept indices equal the
        reduction over the other members (the victim's contributions
        reached nobody)."""
        rng = np.random.default_rng(12)
        spec, vals = covered_case(4, 150, rng)
        net = TcpKylix(
            [2, 2],
            faults=FaultPlan().kill_at_step(1, "down", 1),
            retry=RetryPolicy(base_timeout=0.2, max_retries=2),
            degrade=True,
            timeout=60.0,
        )
        got = net.allreduce(spec, vals)
        report = net.last_report
        assert report is not None
        assert 1 in report.dead_members
        ref_vals = dict(vals)
        ref_vals[1] = np.zeros_like(vals[1])
        ref = dense_reduce(spec, ref_vals)
        lost = report.lost_indices
        for r in spec.ranks:
            if got.get(r) is None:
                assert r in lost
                continue
            keep = ~np.isin(
                np.asarray(spec.in_indices[r]), np.asarray(lost.get(r, []))
            )
            np.testing.assert_allclose(got[r][keep], ref[r][keep], atol=1e-9)
        assert_no_children()

    def test_sigkill_mid_reduce_typed_error_no_zombies_no_leaked_sockets(self):
        """The ISSUE acceptance clause verbatim: SIGKILL a worker while
        the reduce is in flight; the parent must raise the typed
        PeerFailedError in bounded time, leave zero children, and leak
        zero parent file descriptors."""
        rng = np.random.default_rng(13)
        spec, vals = covered_case(4, 300, rng)
        # Warm-up run so multiprocessing/obs infrastructure fds exist.
        TcpKylix([2, 2]).allreduce(spec, vals)
        assert_no_children()
        fds_before = open_fds()

        net = TcpKylix(
            [2, 2],
            retry=RetryPolicy(base_timeout=0.3, max_retries=2),
            timeout=45.0,
            join_timeout=5.0,
        )
        caught = []

        def run():
            try:
                net.allreduce(spec, vals)
            except BaseException as exc:  # noqa: BLE001 - relayed to asserts
                caught.append(exc)

        t = threading.Thread(target=run)
        start = time.monotonic()
        t.start()
        victim = None
        while time.monotonic() - start < 10.0:
            kids = mp.active_children()
            if kids:
                victim = kids[0]
                break
            time.sleep(0.01)
        assert victim is not None, "no worker observed"
        os.kill(victim.pid, signal.SIGKILL)
        t.join(timeout=45.0)
        elapsed = time.monotonic() - start
        assert not t.is_alive(), "allreduce hung after SIGKILL"
        assert caught and isinstance(caught[0], PeerFailedError)
        assert elapsed < 40.0
        assert_no_children()
        # The exception's traceback and the Process handles held by this
        # frame (each keeps a sentinel pipe open) pin fds that are not
        # leaks; drop them so the census sees only what truly leaked.
        import gc

        caught.clear()
        del net, victim, kids
        gc.collect()
        assert open_fds() <= fds_before


def thread_census(run, interval=0.005):
    """Run ``run()`` on a thread; meanwhile sample the OS thread count of
    every worker process.  Returns (its result, the set of counts seen)."""
    box, counts = [], set()
    t = threading.Thread(target=lambda: box.append(run()))
    t.start()
    while t.is_alive():
        for child in mp.active_children():
            try:
                counts.add(len(os.listdir(f"/proc/{child.pid}/task")))
            except FileNotFoundError:
                pass  # it just exited
        time.sleep(interval)
    t.join(timeout=1.0)
    return box[0], counts


class TestOneThread:
    """A worker is one thread: the pump reads, writes, takes the
    telemetry samples and — over tcp — accepts, dials and keeps
    liveness."""

    @pytest.mark.parametrize("telemetry, threads", [(False, 1), (True, 1)])
    def test_a_worker_runs_one_thread(self, telemetry, threads):
        from repro.obs import Observer

        rng = np.random.default_rng(14)
        spec, vals = covered_case(4, 150, rng)
        extra = dict(observe=Observer(name="census"), telemetry_interval=0.05) if telemetry else {}
        net = TcpKylix([2, 2], **extra)
        rounds, counts = thread_census(lambda: net.allreduce_rounds(spec, [vals] * 150))
        ref = dense_reduce(spec, vals)
        for got in (rounds[0], rounds[-1]):
            for r in spec.ranks:
                np.testing.assert_allclose(got[r], ref[r], atol=1e-9)
        assert max(counts) == threads and counts <= {1, threads}
        assert_no_children()

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_a_local_worker_runs_one_thread(self, telemetry):
        from repro.obs import Observer

        rng = np.random.default_rng(15)
        spec, vals = covered_case(4, 150, rng)
        extra = dict(observe=Observer(name="census"), telemetry_interval=0.005) if telemetry else {}
        net = LocalKylix([2, 2], **extra)
        rounds, counts = thread_census(lambda: net.allreduce_rounds(spec, [vals] * 150))
        ref = dense_reduce(spec, vals)
        for r in spec.ranks:
            np.testing.assert_allclose(rounds[-1][r], ref[r], atol=1e-9)
        assert counts == {1}
        assert_no_children()
