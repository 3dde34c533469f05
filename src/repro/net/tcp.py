"""Kylix over real TCP sockets: the commodity-cluster existence proof.

The paper's claim is *commodity clusters* — machines talking over plain
sockets, where peers die mid-frame, connections half-open, and accept
queues time out.  :class:`TcpTransport` is the socket medium under the
shared reliability layer (:mod:`repro.net.transport`) and protocol driver
(:mod:`repro.net.protocol`); :class:`TcpKylix` is the single-host
embedded backend (one forked process per node, loopback sockets) with
the exact API, fault semantics, and observability of
:class:`~repro.net.local.LocalKylix`.  The standalone multi-process
cluster — launcher, node server, experiment driver — lives in
:mod:`repro.net.cluster` on top of the same transport.

Medium mechanics:

* **Framing** — length-prefixed pickled frames
  (:mod:`repro.net.framing`); a peer dying mid-frame surfaces as
  :class:`~repro.net.framing.FrameTruncatedError` on the reader and is
  treated as connection loss, not corruption.
* **Mesh formation** — rank ``i`` *initiates* connections to every
  ``j < i`` and *accepts* (with a bounded-timeout accept loop) from
  every ``j > i``; the first frame on every connection is a
  ``("hello", rank)``.  Peers the fault plan declares dead at start are
  skipped; any other peer unreachable within the mesh deadline is
  marked closed, and the reliability layer converts that into a typed
  :class:`~repro.faults.PeerFailedError` (strict) or a coverage hole
  (degraded) — never a hang.
* **Per-peer sender threads** — each link has one long-lived sender
  thread owning the socket write side; it drains a frame queue, emits
  heartbeats when idle, and runs the reconnect-with-backoff dance on
  write failure.  Connection loss is message loss: whatever was in
  flight is recovered by the NACK/retry layer above, exactly like a
  dropped packet.
* **Liveness** — heartbeats every ``hb_interval``; a link silent for
  ``hb_timeout`` is declared half-open-dead even if the kernel never
  delivers an error (the classic silent-partition failure).  A clean
  EOF (peer SIGKILLed → kernel FIN/RST) closes much faster: the
  initiator side probes with a bounded reconnect burst, the acceptor
  side waits one ``reconnect_grace`` for a re-hello.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

from ..obs import NULL_OBSERVER
from ..verify.watchlock import watched_lock
from .base import ForkedKylixBase
from .framing import FrameDecoder, FrameError, FrameStream, FrameTruncatedError, encode_frame
from .transport import POLL_INTERVAL, BaseTransport

__all__ = ["TcpTransport", "TcpKylix", "loopback_listener"]

#: Sentinel frames on a sender queue.
_STOP = object()
_HB = object()


def loopback_listener(host: str = "127.0.0.1", port: int = 0, backlog: int = 64):
    """A bound, listening TCP socket with an explicit accept timeout.

    Every listener in this package goes through here: the accept loop
    must wake to notice shutdown, so a listener without a timeout is a
    bug (and the ``socket-timeout`` lint rule enforces it).
    """
    s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    s.settimeout(0.1)
    s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    s.bind((host, port))
    s.listen(backlog)
    return s


class _Link:
    """One peer connection: socket + sender thread + reader thread."""

    def __init__(self, peer: int):
        self.peer = peer
        self.q: "queue.Queue" = queue.Queue()
        self.sock: Optional[socket.socket] = None
        # Guards sock swaps vs writes, plus the liveness fields below.
        self.lock = watched_lock("net.tcp._Link.lock")
        self.sender: Optional[threading.Thread] = None
        self.reader: Optional[threading.Thread] = None
        self.last_seen = time.monotonic()
        self.down_at: Optional[float] = None  # reader saw EOF/error at this time
        self.failed = False  # reconnect exhausted: permanently dead


class TcpTransport(BaseTransport):
    """The shared reliability layer over framed TCP sockets."""

    def __init__(
        self,
        rank: int,
        plan,
        retry,
        obs=NULL_OBSERVER,
        *,
        hb_interval: float = 0.25,
        hb_timeout: float = 5.0,
        reconnect_attempts: int = 3,
        reconnect_backoff: float = 0.05,
        reconnect_grace: float = 0.5,
    ):
        super().__init__(rank, plan, retry, obs)
        if hb_interval <= 0 or hb_timeout <= hb_interval:
            raise ValueError("need 0 < hb_interval < hb_timeout")
        self._hb_interval = float(hb_interval)
        self._hb_timeout = float(hb_timeout)
        self._reconnect_attempts = int(reconnect_attempts)
        self._reconnect_backoff = float(reconnect_backoff)
        self._reconnect_grace = float(reconnect_grace)
        self._stop = threading.Event()
        self._links: Dict[int, _Link] = {}
        self._rx: "queue.Queue" = queue.Queue()
        self._listener = None
        self._accept_thread: Optional[threading.Thread] = None
        self._addrs: Dict[int, Tuple[str, int]] = {}
        #: When True, :meth:`close` leaves the listener open — the
        #: standalone node server owns one listener across many sessions.
        self.keep_listener = False
        #: Optional ``(frame, sock)`` callback for accepted connections
        #: whose first frame is not a peer hello.  The node server
        #: registers one so a driver control connection racing the tail
        #: of a session is stashed for later service instead of closed.
        self.on_stray = None

    # -- mesh formation ----------------------------------------------------
    def form_mesh(
        self,
        listener,
        addrs: Dict[int, Tuple[str, int]],
        *,
        timeout: float = 10.0,
        pending: Iterable[Tuple[int, socket.socket]] = (),
    ) -> None:
        """Connect to lower ranks, accept from higher ranks, bounded.

        ``pending`` carries peer connections someone already accepted on
        our behalf (the standalone node server stashes early hellos that
        raced its session setup).  Peers the fault plan kills at start
        are skipped; anyone else unreachable at the deadline is marked
        closed — the protocol then fails or degrades them, typed and
        bounded, exactly like a mid-run death.
        """
        self._listener = listener
        self._addrs = {int(r): (h, int(p)) for r, (h, p) in addrs.items()}
        for peer, sock in pending:
            self._install(int(peer), sock)
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

        expected = sorted(p for p in self._addrs if p != self.rank)
        deadline = time.monotonic() + timeout
        for peer in expected:
            if self.plan is not None and not self.plan.is_alive(peer, 0.0):
                self.closed.add(peer)  # dead at start: do not wait for it
        # Initiations run in parallel, one thread per lower peer: a dead
        # peer must not stall the links behind it in rank order (a
        # sequential loop would leave alive pairs unlinked and cascade
        # spurious abandonments through the whole reduction).
        initiators = []
        for peer in expected:
            if peer < self.rank and peer not in self.closed and peer not in self._links:
                t = threading.Thread(
                    target=self._initiate, args=(peer, deadline), daemon=True
                )
                t.start()
                initiators.append(t)
        # The accept side has no failure signal of its own: a dead higher
        # peer just never connects, and waiting out the whole mesh window
        # for it would stall this node into looking dead to *its* groups.
        # So probe silent peers' listeners while waiting — they are bound
        # for the node's whole lifetime, so repeated refusal means the
        # process is gone.  Probes hang up before the hello, which the
        # accept loop discards by design.
        probe_at: Dict[int, float] = {}
        refusals: Dict[int, int] = {}
        while time.monotonic() < deadline:
            missing = [
                p for p in expected
                if p not in self._links and p not in self.closed
            ]
            if not missing:
                break
            now = time.monotonic()
            for p in missing:
                if p < self.rank or now < probe_at.get(p, 0.0):
                    continue  # initiator threads fast-fail their own refusals
                probe_at[p] = now + 0.2
                try:
                    socket.create_connection(self._addrs[p], timeout=0.5).close()
                    refusals[p] = 0
                except ConnectionRefusedError:
                    refusals[p] = refusals.get(p, 0) + 1
                    if refusals[p] >= 3:
                        self.closed.add(p)
                except OSError:
                    pass
            time.sleep(POLL_INTERVAL)
        for peer in expected:
            if peer not in self._links and peer not in self.closed:
                self.closed.add(peer)  # accept-side timeout: peer never arrived

    def _initiate(self, peer: int, deadline: float) -> None:
        delay = self._reconnect_backoff
        refused = 0
        while time.monotonic() < deadline and not self._stop.is_set():
            try:
                sock = socket.create_connection(self._addrs[peer], timeout=1.0)
                sock.sendall(encode_frame(("hello", self.rank)))
                self._install(peer, sock)
                return
            except ConnectionRefusedError:
                # Peers bind their listeners before any mesh forms, so
                # refusal means the process is gone — not still starting.
                # A few quick confirmations, then declare it dead instead
                # of burning the whole mesh window.
                refused += 1
                if refused >= 3:
                    break
            except OSError:
                refused = 0
            time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
            delay = min(delay * 2, 0.5)
        self.closed.add(peer)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                # One frame exactly: the peer's first parts may be right
                # behind its hello, and they belong to the reader thread.
                ok, hello = FrameStream(sock).recv(timeout=2.0)
            except (OSError, FrameError):
                sock.close()
                continue
            if not ok or not isinstance(hello, tuple) or hello[0] != "hello":
                if ok and isinstance(hello, tuple) and self.on_stray is not None:
                    self.on_stray(hello, sock)
                else:
                    sock.close()  # not a peer: garbage or a lost stranger
                continue
            self._install(int(hello[1]), sock)

    def _install(self, peer: int, sock: socket.socket) -> None:
        """Adopt ``sock`` as the live connection for ``peer`` (fresh link
        or reconnect replacement)."""
        sock.settimeout(0.2)
        link = self._links.get(peer)
        if link is None:
            link = _Link(peer)
            self._links[peer] = link
            link.sender = threading.Thread(
                target=self._sender_loop, args=(link,), daemon=True
            )
            link.sender.start()
        with link.lock:
            old, link.sock = link.sock, sock
            # Reset liveness inside the same critical section: a pump
            # between the swap and the resets would see the new socket
            # with the old link's death certificate still attached.
            link.down_at = None
            link.failed = False
            link.last_seen = time.monotonic()
        link.reader = threading.Thread(
            target=self._reader_loop, args=(link, sock), daemon=True
        )
        link.reader.start()
        if old is not None:
            try:
                old.close()
            except OSError:  # pragma: no cover - close on a dead socket
                pass

    # -- sender side -------------------------------------------------------
    def _send_frame(self, member, frame) -> None:
        link = self._links.get(member)
        if link is None or link.failed or member in self.closed:  # conc: ok(racy read of failed; a stale False only queues one frame the drain reaps)
            return  # peer unreachable: the NACK layer cannot help a dead peer
        link.q.put(encode_frame(frame))

    def post(self, member, kind, layer, part, seq=0) -> None:
        """Cache + fault-inject off-thread; bytes go out on the per-peer
        sender thread (deadlock-free exchange, ordered per link)."""
        self.sent[(member, kind, layer, seq)] = part
        t = threading.Thread(
            target=self._transmit,
            args=(member, kind, layer, part, seq, 0, time.monotonic()),
        )
        t.daemon = True
        t.start()
        self.senders.append(t)

    def _sender_loop(self, link: _Link) -> None:
        last_tx = time.monotonic()
        while not self._stop.is_set() and not link.failed:  # conc: ok(exit-condition poll; only _write on this same thread sets failed)
            try:
                item = link.q.get(timeout=self._hb_interval)
            except queue.Empty:
                if time.monotonic() - last_tx < self._hb_interval:
                    continue
                item = _HB
            if item is _STOP:
                return
            data = (
                encode_frame(("hb", time.monotonic())) if item is _HB else item
            )
            if self._write(link, data):
                last_tx = time.monotonic()
            elif item is not _HB:
                return  # reconnect exhausted with a real frame pending

    def _write(self, link: _Link, data: bytes) -> bool:
        """One framed write; on failure, run the reconnect dance once."""
        for fresh in (False, True):
            # Read the socket inside the lock: snapshotting it outside
            # races _install's swap and can sendall() on the socket the
            # reconnect just retired, losing the frame on a live link.
            with link.lock:
                sock = link.sock
                if sock is not None:
                    try:
                        sock.sendall(data)
                        return True
                    except OSError:
                        pass
            if fresh or not self._reestablish(link):
                with link.lock:
                    link.failed = True
                return False
        return False  # pragma: no cover - loop always returns

    def _reestablish(self, link: _Link) -> bool:
        """Reconnect-with-backoff (initiator) or wait for the peer's
        re-hello (acceptor).  Bounded either way."""
        if self._stop.is_set():
            return False
        if link.peer < self.rank:
            delay = self._reconnect_backoff
            for _ in range(self._reconnect_attempts):
                if self._stop.is_set():
                    return False
                try:
                    sock = socket.create_connection(self._addrs[link.peer], timeout=1.0)
                    sock.sendall(encode_frame(("hello", self.rank)))
                    self._install(link.peer, sock)
                    return True
                except OSError:
                    time.sleep(delay)
                    delay *= 2
            return False
        old = link.sock  # conc: ok(poll baseline; waiting for _install's swap by identity)
        deadline = time.monotonic() + self._reconnect_grace
        while time.monotonic() < deadline and not self._stop.is_set():
            if link.sock is not old and link.sock is not None:  # conc: ok(poll for the swap; lock-free by design)
                return True
            time.sleep(POLL_INTERVAL)
        return False

    # -- reader side -------------------------------------------------------
    def _reader_loop(self, link: _Link, sock: socket.socket) -> None:
        dec = FrameDecoder()
        while not self._stop.is_set() and link.sock is sock:  # conc: ok(identity poll; a stale read costs one 0.2s recv timeout)
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                break
            if not chunk:
                try:
                    dec.eof()
                except FrameTruncatedError:
                    pass  # peer died mid-frame: same outcome as clean EOF
                break
            link.last_seen = time.monotonic()  # conc: ok(hot path; atomic float store and both writers store "now")
            try:
                msgs = dec.feed(chunk)
            except FrameError:
                break  # corrupt stream: treat as connection loss
            for msg in msgs:
                if msg[0] in ("hb", "hello"):
                    continue
                self._rx.put((link.peer, msg))
        with link.lock:
            # Atomic check-and-set: only the reader of the *current*
            # socket may post the death certificate, and the check must
            # not race an _install swap.
            if link.sock is sock and not self._stop.is_set():
                link.down_at = time.monotonic()

    # -- pump / liveness ---------------------------------------------------
    def _pump_once(self) -> List[int]:
        while True:
            try:
                peer, msg = self._rx.get_nowait()
            except queue.Empty:
                break
            self._dispatch(peer, msg)
        dead: List[int] = []
        now = time.monotonic()
        for peer, link in self._links.items():
            if peer in self.closed:
                continue
            with link.lock:
                last_seen, down_at, failed = link.last_seen, link.down_at, link.failed
            half_open = now - last_seen > self._hb_timeout
            eof_dead = down_at is not None and now - down_at > self._reconnect_grace
            if failed or eof_dead or half_open:
                self.closed.add(peer)
                dead.append(peer)
        return dead

    def prune_round(self, seq: int) -> None:
        """Per-round cleanup + drain dead links' queued frames.

        A failed link's sender thread has exited, so frames still queued
        to it (sends racing the failure, heartbeat NACK replies) would
        sit in its unbounded send queue for the life of the session.
        Also reaps finished post/resend threads, like the pipe transport.
        """
        for link in self._links.values():
            if not link.failed:  # conc: ok(racy read; a link that fails mid-drain is drained next round)
                continue
            while True:
                try:
                    link.q.get_nowait()
                except queue.Empty:
                    break
        self.senders = [t for t in self.senders if t.is_alive()]
        super().prune_round(seq)

    # -- teardown ----------------------------------------------------------
    def close(self) -> None:
        """Stop threads and close every socket.  Idempotent; afterwards
        the process holds no open sockets from this transport."""
        self._stop.set()
        for link in self._links.values():
            link.q.put(_STOP)
        if self._listener is not None and not self.keep_listener:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
        for link in self._links.values():
            if link.sender is not None:
                link.sender.join(timeout=1.0)
            with link.lock:
                sock = link.sock
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass
            if link.reader is not None:
                link.reader.join(timeout=1.0)


class TcpKylix(ForkedKylixBase):
    """Kylix over loopback TCP sockets, one forked process per node.

    The drop-in socket twin of :class:`~repro.net.local.LocalKylix`:
    same API, same :class:`~repro.faults.FaultPlan` semantics (identical
    deterministic schedules), same typed failures, same degraded
    completion and observability — but every message crosses a real TCP
    connection with framing, heartbeats, and reconnect.  The parent
    binds one loopback listener per rank *before* forking (race-free
    mesh bootstrap), hands each child its listener plus the full
    address map, and drops its own copies.

    Extra knobs over the base: ``hb_interval`` / ``hb_timeout`` (liveness
    detection), ``mesh_timeout`` (formation deadline).
    """

    _BACKEND_NAME = "tcp"

    def __init__(
        self,
        degrees,
        *,
        hb_interval: float = 0.25,
        hb_timeout: float = 5.0,
        mesh_timeout: float = 10.0,
        **kwargs,
    ):
        super().__init__(degrees, **kwargs)
        if mesh_timeout <= 0:
            raise ValueError("mesh_timeout must be positive")
        self.hb_interval = float(hb_interval)
        self.hb_timeout = float(hb_timeout)
        self.mesh_timeout = float(mesh_timeout)

    def _make_mesh(self, ctx):
        listeners: Dict[int, socket.socket] = {}
        addrs: Dict[int, Tuple[str, int]] = {}
        for rank in range(self.size):
            s = loopback_listener(backlog=self.size)
            listeners[rank] = s
            addrs[rank] = ("127.0.0.1", s.getsockname()[1])
        return listeners, addrs

    def _open_transport(self, mesh, rank, plan, retry, obs):
        listeners, addrs = mesh
        # Drop the other ranks' inherited listeners so a dead peer's
        # port actually refuses connections instead of queueing them
        # in a socket nobody will ever accept from.
        for r, s in listeners.items():
            if r != rank:
                s.close()
        t = TcpTransport(
            rank,
            plan,
            retry,
            obs=obs,
            hb_interval=self.hb_interval,
            hb_timeout=self.hb_timeout,
        )
        t.form_mesh(listeners[rank], addrs, timeout=self.mesh_timeout)
        return t

    def _release_mesh(self, mesh) -> None:
        listeners, _ = mesh
        for s in listeners.values():
            s.close()
