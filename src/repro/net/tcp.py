"""Kylix over real TCP sockets: the commodity-cluster existence proof.

The paper's claim is *commodity clusters* — machines talking over plain
sockets, where peers die mid-frame, connections half-open, and accept
queues time out.  :class:`TcpTransport` is the socket medium under the
shared reliability layer (:mod:`repro.net.transport`) and wire medium
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
  ``j < i`` and *accepts* from every ``j > i``; the first frame on every
  connection is a ``("hello", rank)``.  Peers the fault plan declares
  dead at start are skipped; any other peer unreachable within
  :data:`MESH_TIMEOUT` is marked closed, and the reliability layer
  converts that into a typed :class:`~repro.faults.PeerFailedError`
  (strict) or a coverage hole (degraded) — never a hang.
* **Per-peer sender threads** — a post runs on the protocol thread,
  like every post (:mod:`repro.net.transport`): it encodes the frame
  and enqueues it, which never blocks.  Each link has one long-lived
  sender thread owning the socket write side; it drains that frame
  queue, emits heartbeats when idle, and runs the reconnect-with-backoff
  dance on write failure.  Fault-delayed copies wait in the transport's
  heap until the pump releases them onto the queue.  Connection loss is
  message loss: whatever was in flight is recovered by the NACK/retry
  layer above, exactly like a dropped packet.
* **Receiving** — reader threads (they also drain heartbeats while the
  node computes) decode frames into one queue; the protocol thread
  blocks on that queue (``_pump_once``) and wakes on arrival.
* **Liveness** — heartbeats every :data:`HB_INTERVAL`; a link silent for
  :data:`HB_TIMEOUT` is declared half-open-dead even if the kernel never
  delivers an error (the classic silent-partition failure).  A clean
  EOF (peer SIGKILLed → kernel FIN/RST) closes much faster: the
  initiator side probes with a bounded reconnect burst, the acceptor
  side waits one :data:`RECONNECT_GRACE` for a re-hello.
* **Waiting** — whoever waits for a link (mesh formation, the acceptor
  side of a reconnect) blocks on one condition ``_install`` notifies; a
  socket is retired with ``shutdown`` before ``close`` so its reader
  wakes at once, and ``close()`` knocks on its own listener to wake the
  accept loop.  The socket timeouts (0.1 s accept, 0.2 s recv) are
  safety nets, not cadences.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from contextlib import suppress
from typing import Dict, Iterable, List, Optional, Tuple

from ..obs import NULL_OBSERVER
from ..verify.watchlock import watched_lock
from .base import ForkedKylixBase
from .framing import FrameDecoder, FrameError, FrameStream, FrameTruncatedError, encode_frame
from .transport import BaseTransport

__all__ = ["TcpTransport", "TcpKylix", "loopback_listener"]

#: Timing of the socket medium, in seconds (table: ``docs/faults.md``).
#: Constants, not options: no caller ever ran anything else.
HB_INTERVAL = 0.25  # idle-sender heartbeat; also the pump's liveness re-check period
HB_TIMEOUT = 5.0  # silence after which a link is half-open-dead
MESH_TIMEOUT = 10.0  # mesh formation deadline
RECONNECT_ATTEMPTS = 3  # initiator side of a lost link: this many dials,
RECONNECT_BACKOFF = 0.05  # pausing this long before the second, doubling
RECONNECT_GRACE = 0.5  # acceptor side: wait this long for the peer's re-hello
_PROBE_INTERVAL = 0.2  # mesh formation re-probes a silent higher peer's listener

#: Sentinel frames on a sender queue.
_STOP = object()
_HB = object()


def loopback_listener(host: str = "127.0.0.1", port: int = 0, backlog: int = 64):
    """A bound, listening TCP socket with an explicit accept timeout.

    Every listener in this package goes through here: no socket in
    ``net/`` may block forever (the ``socket-timeout`` lint rule).  The
    timeout is a safety net — :meth:`TcpTransport.close` wakes its
    accept loop explicitly instead of waiting it out.
    """
    s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    s.settimeout(0.1)
    s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    s.bind((host, port))
    s.listen(backlog)
    return s


def _retire(sock) -> None:
    """Shut ``sock`` down, then close it.  The shutdown is what wakes a
    reader thread blocked in ``recv`` on it (and sends the FIN now); a
    bare ``close`` leaves that thread blocked until its timeout."""
    with suppress(OSError):  # never connected, or the peer is already gone
        sock.shutdown(socket.SHUT_RDWR)
    with suppress(OSError):
        sock.close()


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

    def __init__(self, rank: int, plan, retry, obs=NULL_OBSERVER):
        super().__init__(rank, plan, retry, obs)
        self._stop = threading.Event()
        self._links: Dict[int, _Link] = {}
        #: Notified when a link is installed, a peer given up, or the
        #: transport closed.  Predicates waited on under it take no other
        #: lock, so the lock graph stays nesting-free.
        self._link_change = threading.Condition(
            watched_lock("net.tcp.TcpTransport._link_change")
        )
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
        pending: Iterable[Tuple[int, socket.socket]] = (),
    ) -> None:
        """Connect to lower ranks, accept from higher ranks, bounded by
        :data:`MESH_TIMEOUT`.

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
        deadline = time.monotonic() + MESH_TIMEOUT
        for peer in expected:
            if self.plan is not None and not self.plan.is_alive(peer, 0.0):
                self.closed.add(peer)  # dead at start: do not wait for it
        # Initiations run in parallel, one thread per lower peer: a dead
        # peer must not stall the links behind it in rank order (a
        # sequential loop would leave alive pairs unlinked and cascade
        # spurious abandonments through the whole reduction).
        for peer in expected:
            if peer < self.rank and peer not in self.closed and peer not in self._links:
                threading.Thread(
                    target=self._initiate, args=(peer, deadline), daemon=True
                ).start()
        # The accept side has no failure signal of its own: a dead higher
        # peer just never connects, and waiting out the whole mesh window
        # for it would stall this node into looking dead to *its* groups.
        # So probe silent peers' listeners while waiting — they are bound
        # for the node's whole lifetime, so repeated refusal means the
        # process is gone.  Probes hang up before the hello, which the
        # accept loop discards by design.
        def missing() -> List[int]:
            return [p for p in expected if p not in self._links and p not in self.closed]

        probe_at: Dict[int, float] = {}
        refusals: Dict[int, int] = {}
        while (silent := missing()) and (now := time.monotonic()) < deadline:
            for p in silent:
                if p < self.rank or now < probe_at.get(p, 0.0):
                    continue  # initiator threads fast-fail their own refusals
                probe_at[p] = now + _PROBE_INTERVAL
                try:
                    socket.create_connection(self._addrs[p], timeout=0.5).close()
                    refusals[p] = 0
                except ConnectionRefusedError:
                    refusals[p] = refusals.get(p, 0) + 1
                    if refusals[p] >= 3:
                        self.closed.add(p)
                except OSError:
                    pass
            # Sleep until the mesh is whole; otherwise until the next probe.
            with self._link_change:
                self._link_change.wait_for(
                    lambda: not missing(),
                    timeout=min(_PROBE_INTERVAL, deadline - now),
                )
        self.closed.update(missing())  # accept-side timeout: peer never arrived

    def _links_changed(self) -> None:
        with self._link_change:
            self._link_change.notify_all()

    def _initiate(self, peer: int, deadline: float) -> None:
        delay = RECONNECT_BACKOFF
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
        self._links_changed()

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
                    # Not a peer: garbage, a lost stranger, or close()'s
                    # wake-up connection.
                    sock.close()
            elif self._stop.is_set():
                sock.close()  # close() got there first: adopt nothing
            else:
                self._install(int(hello[1]), sock)

    def _install(self, peer: int, sock: socket.socket) -> None:
        """Adopt ``sock`` as the live connection for ``peer`` (fresh link
        or reconnect replacement)."""
        sock.settimeout(0.2)
        link = self._links.get(peer)
        fresh = link is None
        if fresh:
            link = _Link(peer)
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
        if fresh:
            link.sender = threading.Thread(
                target=self._sender_loop, args=(link,), daemon=True
            )
            link.sender.start()
            # Register the link last, complete.  Found socketless, it
            # let form_mesh return and the first post take "no socket"
            # for a lost connection and dial a second one; each end then
            # kept a different one of the two.
            self._links[peer] = link
        if old is not None:
            _retire(old)
        self._links_changed()

    # -- sender side -------------------------------------------------------
    def _send_frame(self, member, frame) -> None:
        """Enqueue for the link's sender thread: never blocks."""
        link = self._links.get(member)
        if link is None or link.failed or member in self.closed:  # conc: ok(racy read of failed; a stale False only queues one frame the drain reaps)
            return  # peer unreachable: the NACK layer cannot help a dead peer
        link.q.put(encode_frame(frame))

    def _sender_loop(self, link: _Link) -> None:
        last_tx = time.monotonic()
        while not self._stop.is_set() and not link.failed:  # conc: ok(exit-condition poll; only _write on this same thread sets failed)
            try:
                item = link.q.get(timeout=HB_INTERVAL)
            except queue.Empty:
                if time.monotonic() - last_tx < HB_INTERVAL:
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
            if fresh or not self._reestablish(link, sock):
                with link.lock:
                    link.failed = True
                return False
        return False  # pragma: no cover - loop always returns

    def _reestablish(self, link: _Link, failed: Optional[socket.socket]) -> bool:
        """Reconnect-with-backoff (initiator) or wait for the peer's
        re-hello to replace ``failed``, the socket the write failed on
        (acceptor).  Bounded either way.

        The acceptor waits for a swap *away from* ``failed``, not from
        whatever ``link.sock`` is by now: the peer's re-hello may have been
        installed between the failed write and this call, and waiting for
        a swap away from that fresh socket would fail a live link.
        """
        if self._stop.is_set():
            return False
        if link.peer < self.rank:
            delay = RECONNECT_BACKOFF
            for _ in range(RECONNECT_ATTEMPTS):
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
        def swapped() -> bool:
            return link.sock is not failed  # conc: ok(identity test for the swap; lock-free by design)

        with self._link_change:
            self._link_change.wait_for(
                lambda: swapped() or self._stop.is_set(), timeout=RECONNECT_GRACE
            )
        return swapped() and not self._stop.is_set()

    # -- reader side -------------------------------------------------------
    def _reader_loop(self, link: _Link, sock: socket.socket) -> None:
        dec = FrameDecoder()
        while not self._stop.is_set() and link.sock is sock:  # conc: ok(exit-condition read; whoever retires sock shuts it down, which ends the recv)
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
    def _pump_once(self, timeout: float) -> List[int]:
        """Block on the readers' queue, drain it fully on every wake,
        then apply the liveness rules.  Those are time-driven (an EOF
        closes a link one grace later, silence one ``HB_TIMEOUT`` later)
        and put nothing on the queue when due, so the block is cut into
        ``HB_INTERVAL`` slices: a dead peer is declared within grace plus
        one heartbeat however long the caller's timeout is."""
        deadline = time.monotonic() + timeout
        while True:
            block = min(deadline - time.monotonic(), HB_INTERVAL)
            arrived = False
            try:
                item = self._rx.get(timeout=block) if block > 0 else self._rx.get_nowait()
                while True:
                    arrived = True
                    self._dispatch(*item)
                    item = self._rx.get_nowait()
            except queue.Empty:
                pass
            dead: List[int] = []
            now = time.monotonic()
            for peer, link in self._links.items():
                if peer in self.closed:
                    continue
                with link.lock:
                    last_seen, down_at, failed = link.last_seen, link.down_at, link.failed
                half_open = now - last_seen > HB_TIMEOUT
                eof_dead = down_at is not None and now - down_at > RECONNECT_GRACE
                if failed or eof_dead or half_open:
                    self.closed.add(peer)
                    dead.append(peer)
            if arrived or dead or now >= deadline:
                return dead

    def prune_round(self, seq: int) -> None:
        """Per-round cleanup + drain dead links' queued frames.

        A failed link's sender thread has exited, so frames still queued
        to it (sends racing the failure, heartbeat NACK replies) would
        sit in its unbounded send queue for the life of the session.
        """
        for link in self._links.values():
            if not link.failed:  # conc: ok(racy read; a link that fails mid-drain is drained next round)
                continue
            while True:
                try:
                    link.q.get_nowait()
                except queue.Empty:
                    break
        super().prune_round(seq)

    # -- teardown ----------------------------------------------------------
    def close(self) -> None:
        """Stop threads and close every socket.  Idempotent; afterwards
        the process holds no open sockets from this transport.  Every
        blocked thread is woken first: no join waits out a timeout."""
        self._stop.set()
        self._links_changed()  # senders waiting out a reconnect grace
        if self._accept_thread is not None:
            # Closing a listener does not wake a thread blocked in its
            # accept(), and a keep_listener listener must stay open:
            # knock.  The loop reads EOF for a hello and sees _stop.
            with suppress(OSError):
                socket.create_connection(self._listener.getsockname(), timeout=1.0).close()
            self._accept_thread.join(timeout=1.0)
            self._accept_thread = None
        if self._listener is not None and not self.keep_listener:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        for link in self._links.values():
            link.q.put(_STOP)
        for link in self._links.values():
            if link.sender is not None:
                link.sender.join(timeout=1.0)
            with link.lock:
                sock = link.sock
            if sock is not None:
                _retire(sock)
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
    address map, and drops its own copies.  Parameters: see
    :class:`~repro.net.base.ForkedKylixBase`.
    """

    _BACKEND_NAME = "tcp"

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
        t = TcpTransport(rank, plan, retry, obs=obs)
        t.form_mesh(listeners[rank], addrs)
        return t

    def _release_mesh(self, mesh) -> None:
        listeners, _ = mesh
        for s in listeners.values():
            s.close()
