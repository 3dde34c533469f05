"""How ``repro.net`` waits: blocked on what it awaits, never on a clock.

The receive loop (``BaseTransport.collect`` / ``audit`` over
``pump(timeout)``) is driven here on threads over real pipes, over a
recording medium whose ``_pump_once(timeout)`` is a ``queue.Queue``, and
over a loopback socket mesh — pinning that a wait ends when the awaited
thing arrives, that its timeout is the retry ladder's deadline, and that
teardown waits out no socket timeout.
"""

import multiprocessing as mp
import queue
import socket
import statistics
import threading
import time

import numpy as np
import pytest

from repro.faults import PeerFailedError, RetryPolicy
from repro.net.framing import FrameStream, encode_frame
from repro.net.local import LocalTransport
from repro.net.tcp import (
    HB_INTERVAL,
    RECONNECT_GRACE,
    TcpTransport,
    _Link,
    loopback_listener,
)
from repro.net.transport import BaseTransport

PART = (0, np.arange(4.0))


def pipe_pair(retry=RetryPolicy()):
    a, b = mp.Pipe(duplex=True)
    return LocalTransport(0, {1: a}, None, retry), LocalTransport(1, {0: b}, None, retry)


def on_thread(fn):
    """Run ``fn`` on a thread; ``finish()`` joins it and returns its value."""
    box = []
    t = threading.Thread(target=lambda: box.append(fn()), daemon=True)
    t.start()

    def finish():
        t.join(timeout=10.0)
        assert not t.is_alive() and box, "thread did not finish"
        return box[0]

    return finish


class QueueTransport(BaseTransport):
    """A medium made of one queue: records every timeout the receive
    loop hands ``_pump_once`` and every frame it sends."""

    def __init__(self, retry):
        super().__init__(0, None, retry)
        self.rx = queue.Queue()
        self.timeouts = []
        self.frames = []

    def _send_frame(self, member, frame):
        self.frames.append((member, frame))

    def _pump_once(self, timeout):
        self.timeouts.append(timeout)
        try:
            member, frame = self.rx.get(timeout=timeout) if timeout > 0 else self.rx.get_nowait()
        except queue.Empty:
            return []
        self._dispatch(member, frame)
        return []


class TestCollectBlocksOnArrival:
    def test_part_wakes_collect_and_nothing_sleeps(self, monkeypatch):
        slept = []
        monkeypatch.setattr("repro.net.transport.time.sleep", slept.append)
        net, peer = pipe_pair()
        barrier = threading.Barrier(2)

        def post_late():
            barrier.wait(timeout=5.0)
            threading.Event().wait(0.03)  # time.sleep is the thing under watch
            peer.post(0, "down", 1, PART, 0)
            peer.join_senders()

        finish = on_thread(post_late)
        barrier.wait(timeout=5.0)
        start = time.monotonic()
        got = net.collect([0, 1], "down", 1, 0)
        elapsed = time.monotonic() - start
        finish()
        np.testing.assert_array_equal(got[1][1], PART[1])
        assert slept == []
        # Woken by the arrival, well inside the first 0.25 s deadline.
        assert elapsed < 0.2

    def test_first_block_is_the_ladders_first_deadline(self):
        retry = RetryPolicy(base_timeout=0.4, jitter=0.5, jitter_seed=3)
        net = QueueTransport(retry)
        timer = threading.Timer(
            0.02, net.rx.put, [(1, ("msg", "down", 1, 0, PART, time.monotonic()))]
        )
        timer.start()
        got = net.collect([0, 1], "down", 1, 0)
        timer.join(timeout=5.0)
        assert got[1] is PART
        first = retry.local_timeout(0, net._jitter_salt("down", 1, 0))
        assert net.timeouts[0] == pytest.approx(first, abs=0.02)
        assert [f for _m, f in net.frames if f[0] == "nack"] == []

    def test_silent_peer_is_nacked_up_the_ladder_then_failed(self):
        retry = RetryPolicy(base_timeout=0.03, max_retries=3)
        net = QueueTransport(retry)
        start = time.monotonic()
        with pytest.raises(PeerFailedError) as err:
            net.collect([0, 1], "up", 2, 0)
        elapsed = time.monotonic() - start
        assert err.value.slot == 1
        assert elapsed < retry.local_budget() + 0.25
        # Exactly max_retries resend requests, attempt numbers rising.
        assert net.frames == [
            (1, ("nack", "up", 2, 0, attempt)) for attempt in range(1, retry.max_retries + 1)
        ]
        # Every block was bounded by the attempt's own deadline.
        assert max(net.timeouts) <= retry.local_timeout(retry.max_retries) + 1e-6


class TestAudit:
    def test_mutual_audits_both_answered(self):
        a, b = pipe_pair()
        a.audit_sent[(0, 1, 7)] = "keys a sent to 7"
        b.audit_sent[(0, 1, 9)] = "keys b sent to 9"
        barrier = threading.Barrier(2)

        def fetch(net, member, hole):
            barrier.wait(timeout=5.0)
            return net.audit(member, "sent", 1, 0, hole, timeout=5.0)

        finish = on_thread(lambda: fetch(b, 0, 7))
        assert fetch(a, 1, 9) == "keys b sent to 9"
        assert finish() == "keys a sent to 7"
        assert a._audit_replies == {} and b._audit_replies == {}

    def test_reply_after_its_fetch_timed_out_is_dropped(self):
        a, b = pipe_pair()
        b.audit_sent[(0, 1, 9)] = "late"
        assert a.audit(1, "sent", 1, 0, 9, timeout=0.05) is None  # b is not pumping
        b.pump(1.0)  # b answers now
        a.pump(1.0)  # the stale reply arrives
        assert a._audit_replies == {}


class TestTcpLiveness:
    def test_eof_link_is_declared_dead_by_one_long_pump(self):
        net = TcpTransport(0, None, RetryPolicy())
        try:
            link = _Link(1)
            link.down_at = time.monotonic()  # what a reader posts on EOF
            net._links[1] = link
            start = time.monotonic()
            dead = net.pump(timeout=10)
            elapsed = time.monotonic() - start
            assert dead == [1] and 1 in net.closed
            assert RECONNECT_GRACE - 0.01 <= elapsed <= RECONNECT_GRACE + HB_INTERVAL + 0.2
        finally:
            net.close()


class TestTcpLinks:
    def test_a_link_is_registered_only_once_it_is_usable(self):
        """Registered socketless, a link let mesh formation finish and the
        first post dial a *second* connection (no socket = lost link);
        the two ends then kept different connections and the exchange
        stalled past its retry budget — the partition test's flake."""

        class Checked(dict):
            def __setitem__(self, peer, link):
                assert link.sock is not None
                assert link.reader.is_alive() and link.sender.is_alive()
                super().__setitem__(peer, link)

        net = TcpTransport(0, None, RetryPolicy())
        net._links = Checked()
        ours, theirs = socket.socketpair()
        try:
            net._install(1, ours)
            assert 1 in net._links
        finally:
            net.close()
            theirs.close()


def loopback_mesh():
    """Two TcpTransports meshed over loopback; returns (nets, listeners)."""
    listeners = [loopback_listener() for _ in range(2)]
    addrs = {r: ("127.0.0.1", s.getsockname()[1]) for r, s in enumerate(listeners)}
    nets = [TcpTransport(r, None, RetryPolicy()) for r in range(2)]
    nets[1].keep_listener = True
    forming = [on_thread(lambda r=r: nets[r].form_mesh(listeners[r], addrs)) for r in range(2)]
    for finish in forming:
        finish()
    return nets, listeners


class TestTcpTeardown:
    def test_close_joins_every_thread_without_waiting_out_a_timeout(self):
        durations = []
        for _ in range(5):
            nets, listeners = loopback_mesh()
            try:
                threads = {
                    net.rank: [net._accept_thread, *(
                        t for link in net._links.values() for t in (link.sender, link.reader)
                    )]
                    for net in nets
                }
                assert all(t.is_alive() for ts in threads.values() for t in ts)
                for net in nets:
                    start = time.monotonic()
                    net.close()
                    durations.append(time.monotonic() - start)
                    assert not any(t.is_alive() for t in threads[net.rank])
                    net.close()  # idempotent
            finally:
                for s in listeners:
                    s.close()
        # It used to wait out the 0.1 s accept timeout (and a 0.2 s recv).
        assert statistics.median(durations) < 0.1

    def test_kept_listener_still_serves_after_close(self):
        nets, listeners = loopback_mesh()
        try:
            for net in nets:
                net.close()
            client = socket.create_connection(listeners[1].getsockname(), timeout=2.0)
            client.sendall(encode_frame(("ping",)))
            frame = None
            for _ in range(2):  # close()'s own knock may still be queued
                sock, _ = listeners[1].accept()
                ok, frame = FrameStream(sock).recv(timeout=2.0)
                sock.close()
                if ok:
                    break
            client.close()
            assert frame == ("ping",)
        finally:
            for s in listeners:
                s.close()
