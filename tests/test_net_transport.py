"""How ``repro.net`` waits: blocked on what it awaits, never on a clock.

The receive loop (``BaseTransport.collect`` / ``audit`` over
``pump(timeout)``) is driven here over real socket-pair links, over a
recording medium whose ``_pump_once(timeout)`` is a ``queue.Queue``, and
over a loopback socket mesh — pinning that a wait ends when the awaited
thing arrives, that its timeout is the retry ladder's deadline, that a
send neither blocks nor starts a thread nor sleeps, that tcp's liveness
rules fire on time inside one long pump, and that teardown waits out no
socket timeout.
"""

import os
import queue
import signal
import socket
import statistics
import threading
import time

import numpy as np
import pytest

from repro.faults import FaultPlan, LinkFault, PeerFailedError, RetryPolicy
from repro.net import tcp
from repro.net.framing import FrameStream
from repro.net.session import SocketControl, decode_ctl
from repro.net.tcp import HB_INTERVAL, RECONNECT_GRACE, TcpTransport, loopback_listener
from repro.net.transport import BaseTransport, SocketTransport
from repro.obs import NULL_OBSERVER, Observer

PART = (0, np.arange(4.0))


def link_pair(retry=RetryPolicy(), plan=None, obs=NULL_OBSERVER):
    """Ranks 0 and 1 as two in-process transports over one socket pair."""
    a, b = socket.socketpair()
    return (
        SocketTransport(0, {1: a}, plan, retry, obs=obs),
        SocketTransport(1, {0: b}, plan, retry, obs=obs),
    )


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


def control_pair():
    """A session control's two ends over a socket pair: (node's, driver's)."""
    a, b = socket.socketpair()
    return SocketControl(a), SocketControl(b)


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
            return False
        self._dispatch(member, frame)
        return True


class TestCollectBlocksOnArrival:
    def test_part_wakes_collect_and_nothing_sleeps(self, monkeypatch):
        slept = []
        monkeypatch.setattr("repro.net.transport.time.sleep", slept.append)
        net, peer = link_pair()
        barrier = threading.Barrier(2)

        def post_late():
            barrier.wait(timeout=5.0)
            threading.Event().wait(0.03)  # time.sleep is the thing under watch
            peer.post(0, "down", 1, PART, 0)

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


class TestSendPath:
    """A post runs on the caller's thread and never blocks; fault delays
    and resends are released by the pump, not slept out on a thread."""

    def test_no_thread_and_no_sleep_on_the_send_path(self, monkeypatch):
        slept, started = [], []
        monkeypatch.setattr("repro.net.transport.time.sleep", slept.append)
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t))
        delay = 0.15
        plan = FaultPlan(rules=[LinkFault(src=0, dst=1, phase="down", delay=delay)])
        obs = Observer(name="pair")
        # The first deadline (0.1 s) expires before the delayed part is
        # due: b NACKs, and a's resend draws the same delay.
        a, b = link_pair(RetryPolicy(base_timeout=0.1), plan, obs)
        threads = threading.active_count()
        counts = []
        own = b.pump

        def pump(timeout):
            # One thread plays both nodes: b's waits also run a's pump,
            # which services the NACK and releases the delayed copies.
            counts.append(threading.active_count())
            a.pump(0.0)
            return own(min(timeout, 0.005))

        b.pump = pump
        start = time.monotonic()
        a.post(1, "down", 1, PART, 0)
        posted = time.monotonic() - start
        got = b.collect([0, 1], "down", 1, 0)
        a.flush(1.0)  # the resend's delay is due after the collect
        metrics = obs.metrics
        resent = metrics.counter("faults.resent").total()
        dropped = metrics.counter("faults.duplicates_dropped")
        deadline = time.monotonic() + 2.0
        while dropped.total() < resent and time.monotonic() < deadline:
            own(0.1)  # the resent copies reach b and are deduped
        np.testing.assert_array_equal(got[0][1], PART[1])
        assert posted < delay / 3
        assert b.arrived[(0, "down", 1, 0)] - start >= delay
        assert resent >= 1 and dropped.total() == resent
        assert metrics.counter("faults.injected").value(kind="delayed") == 1 + resent
        assert not a._owed()
        assert slept == [] and started == []
        assert set(counts) == {threads} and threading.active_count() == threads

    def test_simultaneous_large_posts_do_not_deadlock(self):
        """Each side posts far more than a socket buffer holds before
        either collects: the pumps finish both writes while they read,
        and a collect returns only once its own side's part is written,
        so no peer waits on what the node does next."""
        a, b = link_pair()
        big = (0, np.ones(1 << 20))  # 8 MB
        barrier = threading.Barrier(2)

        def exchange(net, peer):
            barrier.wait(timeout=5.0)
            net.post(peer, "down", 1, big, 0)
            got = net.collect([0, 1], "down", 1, 0)[peer]
            assert not net._unsent()
            return got

        finish = on_thread(lambda: exchange(b, 0))
        np.testing.assert_array_equal(exchange(a, 1)[1], big[1])
        np.testing.assert_array_equal(finish()[1], big[1])

    def test_linger_flushes_a_pending_tail(self):
        a, b = link_pair()
        big = (0, np.ones(1 << 20))  # 8 MB
        a.post(1, "up", 1, big, 0)
        assert a._unsent()  # the link took only what its buffer holds
        finish = on_thread(lambda: b.collect([0, 1], "up", 1, 0)[0])
        over, done = control_pair()
        done.send(("done",))  # the run is already over
        a.linger(over, 5.0)
        assert not a._unsent()
        np.testing.assert_array_equal(finish()[1], big[1])

    def test_crash_point_writes_what_was_posted_before_it(self):
        """A node that reaches its crash point with part of an earlier
        post still unwritten writes it before it dies: the peer collects
        that part whole, as the simulator fabric delivers every part sent
        before a crash."""
        ours, theirs = socket.socketpair()
        plan = FaultPlan().kill_at_step(0, "down", 2)
        big = (0, np.ones(1 << 20))  # 8 MB, far more than a socket buffer
        pid = os.fork()
        if pid == 0:  # rank 0: post layer 1, then die at layer 2's first post
            try:
                theirs.close()
                net = SocketTransport(0, {1: ours}, plan, RetryPolicy())
                net.post(1, "down", 1, big, 0)
                net.post(1, "down", 2, big, 0)
            finally:
                os._exit(2)  # reached only if the crash point did not fire
        ours.close()
        b = SocketTransport(1, {0: theirs}, None, RetryPolicy())
        try:
            got = b.collect([0, 1], "down", 1, 0)
        finally:
            _, status = os.waitpid(pid, 0)
            b.close()
        assert os.waitstatus_to_exitcode(status) == 1
        np.testing.assert_array_equal(got[0][1], big[1])


    def test_crash_point_writes_what_was_posted_before_it_over_tcp(self):
        """The same over loopback TCP: the crash point writes the tail
        of the part posted before it, which only the pump writes."""
        listeners = [loopback_listener() for _ in range(2)]
        addrs = {r: ("127.0.0.1", s.getsockname()[1]) for r, s in enumerate(listeners)}
        plan = FaultPlan().kill_at_step(0, "down", 2)
        big = (0, np.ones(1 << 20))  # 8 MB, far more than a socket buffer
        pid = os.fork()
        if pid == 0:  # rank 0: post layer 1, then die at layer 2's first post
            try:
                listeners[1].close()
                net = TcpTransport(0, plan, RetryPolicy())
                net.form_mesh(listeners[0], addrs)
                net.post(1, "down", 1, big, 0)
                net.post(1, "down", 2, big, 0)
            finally:
                os._exit(2)  # reached only if the crash point did not fire
        listeners[0].close()
        b = TcpTransport(1, None, RetryPolicy())
        try:
            b.form_mesh(listeners[1], addrs)
            got = b.collect([0, 1], "down", 1, 0)
        finally:
            _, status = os.waitpid(pid, 0)
            b.close()
        assert os.waitstatus_to_exitcode(status) == 1
        np.testing.assert_array_equal(got[0][1], big[1])


class TestOneWait:
    """A node waits in one place: the selector its links are on."""

    def test_linger_wakes_only_for_its_done_frame(self, monkeypatch):
        a, _b = link_pair()
        selects = []
        select = a._selector.select
        monkeypatch.setattr(a._selector, "select", lambda t: selects.append(t) or select(t))
        over, done = control_pair()
        timer = threading.Timer(0.5, done.send, [("done",)])
        timer.start()
        start = time.monotonic()
        a.linger(over, 5.0)
        elapsed = time.monotonic() - start
        timer.join(timeout=5.0)
        assert 0.45 < elapsed < 2.0  # ended by the done frame, not the budget
        assert len(selects) <= 2

    def test_sampler_ticks_inside_one_idle_pump(self):
        from repro.obs.telemetry import Sampler, TelemetryAgent

        a, _b = link_pair()
        obs = Observer(name="ticks")
        sampler = Sampler(a, TelemetryAgent(obs, interval=0.2)).start()
        a.pump(1.0)
        times = [s.t for s in obs.telemetry]
        assert len(times) >= 4
        assert all(t1 - t0 >= 0.2 for t0, t1 in zip(times, times[1:]))
        sampler.stop(flush=False)
        assert not a._owed()  # its last tick is no frame owed
        start = time.monotonic()
        a.flush(5.0)
        assert time.monotonic() - start < 0.05


class TestAudit:
    def test_mutual_audits_both_answered(self):
        a, b = link_pair()
        a.audit_sent[(0, 1, 7)] = np.array([7, 70], dtype=np.uint64)  # keys a sent to 7
        b.audit_sent[(0, 1, 9)] = np.array([9, 90], dtype=np.uint64)  # keys b sent to 9
        barrier = threading.Barrier(2)

        def fetch(net, member, hole):
            barrier.wait(timeout=5.0)
            return net.audit(member, "sent", 1, 0, hole)

        finish = on_thread(lambda: fetch(b, 0, 7))
        assert fetch(a, 1, 9).tolist() == [9, 90]
        assert finish().tolist() == [7, 70]
        assert a._audit_replies == {} and b._audit_replies == {}

    def test_a_late_reply_is_waited_for(self):
        """A live peer's answer is data, however late: reading silence as
        "nothing retained" would under-report a degraded run's losses."""
        a, b = link_pair()
        b.audit_sent[(0, 1, 9)] = np.array([9], dtype=np.uint64)

        def answer_late():
            time.sleep(0.3)
            b.pump(2.0)

        finish = on_thread(answer_late)
        start = time.monotonic()
        assert a.audit(1, "sent", 1, 0, 9).tolist() == [9]
        assert time.monotonic() - start >= 0.3
        finish()
        assert a._audit_replies == {}

    def test_a_dead_peer_ends_the_fetch(self):
        a, b = link_pair()

        def die_late():
            time.sleep(0.2)
            b.close()

        finish = on_thread(die_late)
        assert a.audit(1, "sent", 1, 0, 9) is None
        assert 1 in a.closed
        finish()


def loopback_mesh():
    """Two TcpTransports meshed over loopback; returns (nets, listeners).
    Rank 1 keeps its listener, as the node server's sessions do."""
    listeners = [loopback_listener() for _ in range(2)]
    addrs = {r: ("127.0.0.1", s.getsockname()[1]) for r, s in enumerate(listeners)}
    nets = [TcpTransport(r, None, RetryPolicy()) for r in range(2)]
    nets[1].keep_listener = True
    forming = [on_thread(lambda r=r: nets[r].form_mesh(listeners[r], addrs)) for r in range(2)]
    for finish in forming:
        finish()
    return nets, listeners


def exchange(nets, layer=1):
    """Each rank posts its own part to the other and collects the
    other's, each on its own thread, then services NACKs until both are
    done, as a node lingers; returns ``{rank: part received}``."""
    parts = {r: (0, np.arange(4.0) + 10 * r) for r in range(2)}
    done = [control_pair() for _ in range(2)]  # (hears, says)

    def side(r):
        nets[r].post(1 - r, "down", layer, parts[r], 0)
        got = nets[r].collect([0, 1], "down", layer, 0)[1 - r]
        done[r][1].close()  # EOF: this side is done
        nets[r].linger(done[1 - r][0], 5.0)
        return got

    finishing = [on_thread(lambda r=r: side(r)) for r in range(2)]
    got = {r: finish() for r, finish in enumerate(finishing)}
    for r in range(2):
        np.testing.assert_array_equal(got[r][1], parts[1 - r][1])
    return got


def close_all(nets, listeners):
    for net in nets:
        net.close()
    for s in listeners:
        s.close()


class TestTcpLiveness:
    """The time-driven rules are pump deadlines: one long pump fires
    them, and nothing else runs meanwhile."""

    def test_eof_link_is_declared_dead_by_one_long_pump(self):
        nets, listeners = loopback_mesh()
        try:
            nets[1].close()  # rank 0 accepts from 1: it waits for a re-hello
            while 1 in nets[0].links:
                nets[0].pump(1.0)  # reads the EOF
            down_at = nets[0]._down_at[1]
            nets[0].pump(timeout=10)
            elapsed = time.monotonic() - down_at
            assert 1 in nets[0].closed and 1 not in nets[0]._down_at
            assert RECONNECT_GRACE <= elapsed <= RECONNECT_GRACE + HB_INTERVAL
        finally:
            close_all(nets, listeners)

    def test_a_re_hello_within_the_grace_revives_the_link(self):
        nets, listeners = loopback_mesh()
        try:
            old = [net.links[1 - net.rank] for net in nets]
            # Break the connection, not the nodes: rank 1 re-dials, rank 0
            # adopts the re-hello, and the round completes exactly.
            old[1].shutdown(socket.SHUT_RDWR)
            exchange(nets)
            for net in nets:
                peer = 1 - net.rank
                assert peer not in net.closed and peer not in net._down_at
                assert net.links[peer] is not old[net.rank]
            assert nets[0].links[1].getpeername() == nets[1].links[0].getsockname()
        finally:
            close_all(nets, listeners)

    def test_idle_pump_writes_a_heartbeat_every_interval(self, monkeypatch):
        nets, listeners = loopback_mesh()
        try:
            sent, seen = [], []
            send = nets[0]._send_frame
            monkeypatch.setattr(
                nets[0], "_send_frame",
                lambda m, f: (sent.append(time.monotonic()) if f[0] == "hb" else None, send(m, f)),
            )
            monkeypatch.setattr(nets[1], "_dispatch", lambda m, f: seen.append(f))
            nets[0].pump(4 * HB_INTERVAL + 0.1)  # one long pump: rank 1 is silent
            nets[1].pump(0.0)
            assert len(sent) >= 3 and seen == [("hb",)] * len(sent)
            gaps = np.diff(sent)  # never early; late only by a wake-up
            assert HB_INTERVAL - 0.01 <= gaps.min() and gaps.max() <= HB_INTERVAL + 0.1
        finally:
            close_all(nets, listeners)

    def test_sigstopped_peer_is_declared_half_open_dead(self, monkeypatch):
        """A stopped process keeps its sockets open and the kernel keeps
        acknowledging: only its silence tells."""
        monkeypatch.setattr(tcp, "HB_TIMEOUT", 1.0)  # the rule, not the constant
        listeners = [loopback_listener() for _ in range(2)]
        addrs = {r: ("127.0.0.1", s.getsockname()[1]) for r, s in enumerate(listeners)}
        pid = os.fork()
        if pid == 0:  # rank 1: mesh, then pump until stopped and killed
            try:
                listeners[0].close()
                peer = TcpTransport(1, None, RetryPolicy())
                peer.form_mesh(listeners[1], addrs)
                while True:
                    peer.pump(1.0)
            finally:
                os._exit(2)
        listeners[1].close()
        net = TcpTransport(0, None, RetryPolicy())
        try:
            net.form_mesh(listeners[0], addrs)
            net.pump(2 * HB_INTERVAL)  # a heartbeat or two arrive
            os.kill(pid, signal.SIGSTOP)
            net.pump(0.1)  # whatever it wrote before it stopped
            while 1 not in net.closed and time.monotonic() - net._last_rx[1] < 10:
                net.pump(10)  # woken only by the half-open rule
            silent = time.monotonic() - net._last_rx[1]
            assert 1 in net.closed
            assert tcp.HB_TIMEOUT <= silent <= tcp.HB_TIMEOUT + HB_INTERVAL
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            net.close()


class TestTcpLinks:
    def test_a_link_is_registered_only_once_it_is_usable(self):
        """A link is usable from the moment it is registered: the first
        post right behind mesh formation reaches the peer on the one
        connection the mesh made, with no second dial."""
        nets, listeners = loopback_mesh()
        try:
            socks = [net.links[1 - net.rank] for net in nets]
            for net, sock in zip(nets, socks):
                assert net._selector.get_key(sock).data == 1 - net.rank
                assert net._dials == {}
            exchange(nets)
            assert [net.links[1 - net.rank] for net in nets] == socks
        finally:
            close_all(nets, listeners)

    def test_a_silent_connection_delays_no_peer_and_is_closed_after_2s(self):
        """A connection that never says hello is closed after 2 s — and
        greeting it blocks nobody: the real peer behind it links at once."""
        listeners = [loopback_listener() for _ in range(2)]
        silent = socket.create_connection(listeners[0].getsockname(), timeout=5.0)
        opened = time.monotonic()
        try:
            addrs = {r: ("127.0.0.1", s.getsockname()[1]) for r, s in enumerate(listeners)}
            nets = [TcpTransport(r, None, RetryPolicy()) for r in range(2)]
            forming = [on_thread(lambda r=r: nets[r].form_mesh(listeners[r], addrs)) for r in range(2)]
            for finish in forming:
                finish()
            assert time.monotonic() - opened < 1.0
            finish = on_thread(lambda: nets[0].pump(3.0))  # nothing else wakes it
            assert silent.recv(1) == b""
            closed_after = time.monotonic() - opened
            finish()
            assert 2.0 <= closed_after <= 2.0 + HB_INTERVAL
            assert nets[0]._greetings == {}
        finally:
            silent.close()
            close_all(nets, listeners)


class TestTcpTeardown:
    def test_close_releases_every_socket_without_waiting(self):
        before = len(os.listdir("/proc/self/fd"))
        durations = []
        for _ in range(5):
            nets, listeners = loopback_mesh()
            for net in nets:
                start = time.monotonic()
                net.close()
                durations.append(time.monotonic() - start)
                net.close()  # idempotent
            assert listeners[0].fileno() == -1  # closed with its mesh
            listeners[1].close()  # kept: its owner closes it
        assert len(os.listdir("/proc/self/fd")) == before
        assert statistics.median(durations) < 0.01

    def test_kept_listener_still_serves_after_close(self):
        nets, listeners = loopback_mesh()
        try:
            for net in nets:
                net.close()
            assert listeners[1].gettimeout() == tcp._LISTENER_TIMEOUT
            client = SocketControl(
                socket.create_connection(listeners[1].getsockname(), timeout=2.0)
            )
            client.send(("ping",))
            frame = None
            for _ in range(2):  # a peer's mesh probe may still be queued
                sock, _ = listeners[1].accept()
                ok, frame = FrameStream(sock).recv(timeout=2.0)
                sock.close()
                if ok:
                    break
            client.close()
            assert decode_ctl(frame) == ("ping",)
        finally:
            for s in listeners:
                s.close()
