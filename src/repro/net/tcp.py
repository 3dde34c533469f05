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

* **Framing** — typed raw-buffer frames (:mod:`repro.net.framing`),
  gather-written and read into their own buffers; a peer dying mid-frame
  surfaces as EOF inside a frame and is treated as connection loss, not
  corruption.  A link refuses a session-control (``ctl``) frame.
* **Mesh formation** — rank ``i`` *initiates* connections to every
  ``j < i`` and *accepts* from every ``j > i``; the first frame on every
  connection is a ``("hello", rank)``.  An accepted connection that
  opens with a ``ctl`` frame instead is handed on undecoded
  (:attr:`TcpTransport.on_stray`).  Peers the fault plan declares
  dead at start are skipped; any other peer unreachable within
  :data:`MESH_TIMEOUT` is marked closed, and the reliability layer
  converts that into a typed :class:`~repro.faults.PeerFailedError`
  (strict) or a coverage hole (degraded) — never a hang.
* **One thread** — the node's one thread runs everything on the shared
  socket pump (:class:`~repro.net.transport.SocketTransport`): a post
  writes what the link takes without blocking and leaves the rest to the
  pump, the pump reads every link, accepts on the listener, greets new
  connections and completes non-blocking dials, all in one ``selectors``
  call.  Connection loss is message loss: whatever was in flight is
  recovered by the NACK/retry layer above, exactly like a dropped packet.
* **Liveness** — a link writes a heartbeat :data:`HB_INTERVAL` after
  its last write; a link silent for :data:`HB_TIMEOUT` is declared
  half-open-dead even if the kernel never delivers an error (the classic
  silent-partition failure).  A lost connection (EOF, failed write)
  closes the link one :data:`RECONNECT_GRACE` later unless a new one
  replaces it: the initiator re-dials with backoff, the acceptor waits
  for the peer's re-hello.
* **Waiting** — every one of those rules, and every dial, probe and
  greeting, is a deadline the pump's block never outlasts; nothing
  sleeps.  A node that is computing (a merge) pumps nothing, so
  :data:`HB_TIMEOUT` is the longest merge its peers tolerate.
"""

from __future__ import annotations

import errno
import math
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, Optional, Tuple

from ..obs import NULL_OBSERVER
from .base import ForkedKylixBase
from .framing import LARGE_BODY, Ctl, FrameDecoder, FrameError, frame_views, read_some
from .transport import SocketTransport

__all__ = ["TcpTransport", "TcpKylix", "loopback_listener"]

#: Timing of the socket medium, in seconds (table: ``docs/faults.md``).
#: Constants, not options: no caller ever ran anything else.
HB_INTERVAL = 0.25  # a link writes a heartbeat this long after its last write
HB_TIMEOUT = 5.0  # silence after which a link is half-open-dead
MESH_TIMEOUT = 10.0  # mesh formation deadline
RECONNECT_ATTEMPTS = 3  # initiator side of a lost link: this many dials,
RECONNECT_BACKOFF = 0.05  # pausing this long before the second, doubling
RECONNECT_GRACE = 0.5  # a lost link closes this long after, unless replaced
_PROBE_INTERVAL = 0.2  # mesh formation re-probes a silent higher peer's listener
_REFUSALS = 3  # refused dials in a row that declare a peer's process gone
_HELLO_TIMEOUT = 2.0  # an accepted connection must say who it is by then
_LISTENER_TIMEOUT = 0.1  # a listener's accept timeout outside a mesh


def loopback_listener(host: str = "127.0.0.1", port: int = 0, backlog: int = 64):
    """A bound, listening TCP socket with an explicit accept timeout.

    Every listener in this package goes through here: no socket in
    ``net/`` may block forever (the ``socket-timeout`` lint rule).  A
    mesh runs its listener non-blocking under the pump and gives the
    timeout back on :meth:`TcpTransport.close`.
    """
    s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    s.settimeout(_LISTENER_TIMEOUT)
    s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    s.bind((host, port))
    s.listen(backlog)
    return s


@dataclass
class _Dial:
    """Dialling one peer: the connect in flight, or the pause before the
    next.  A probe hangs up once connected — it only asks whether the
    peer's listener is still there."""

    left: float = math.inf  # dials before the peer is given up
    probe: bool = False
    pause: float = RECONNECT_BACKOFF  # before the next dial; doubles, probes excepted
    sock: Optional[socket.socket] = None
    due: float = 0.0  # the first dial is due at once
    refused: int = 0  # refusals in a row


class TcpTransport(SocketTransport):
    """The shared socket pump over TCP: adds the listener, the dials and
    the liveness deadlines."""

    def __init__(self, rank: int, plan, retry, obs=NULL_OBSERVER):
        super().__init__(rank, {}, plan, retry, obs)
        self._listener = None
        self._addrs: Dict[int, Tuple[str, int]] = {}
        self._dials: Dict[int, _Dial] = {}
        #: Accepted connections waiting for their first frame, with the
        #: decoder reading it and the time they must have sent it by.
        self._greetings: Dict[socket.socket, Tuple[FrameDecoder, float]] = {}
        self._last_rx: Dict[int, float] = {}
        self._last_tx: Dict[int, float] = {}
        #: Links whose connection was lost, and when.
        self._down_at: Dict[int, float] = {}
        #: When True, :meth:`close` leaves the listener open — the
        #: standalone node server owns one listener across many sessions.
        self.keep_listener = False
        #: Optional ``(frame, sock)`` callback for accepted connections
        #: whose first frame is a ``ctl`` frame, handed over undecoded.
        #: The node server registers one so a driver control connection
        #: racing the tail of a session is stashed for later service
        #: instead of closed.
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
        listener.setblocking(False)
        self._selector.register(listener, selectors.EVENT_READ, self._accept)
        self._addrs = {int(r): (h, int(p)) for r, (h, p) in addrs.items()}
        for peer, sock in pending:
            self._install(int(peer), sock)
        expected = sorted(p for p in self._addrs if p != self.rank)
        # Dial every lower peer at once: a dead one must not stall the
        # links behind it.  A higher peer just never connects when dead,
        # and waiting out the whole mesh window for it would stall this
        # node into looking dead to *its* groups — so probe its listener
        # meanwhile: it is bound for the node's whole lifetime, so
        # repeated refusal means the process is gone.
        for peer in expected:
            if self.plan is not None and not self.plan.is_alive(peer, 0.0):
                self.closed.add(peer)  # dead at start: do not wait for it
            elif peer not in self.links:
                probe = peer > self.rank
                self._dials[peer] = _Dial(probe=probe, pause=_PROBE_INTERVAL) if probe else _Dial()
        self._wake = 0.0
        deadline = time.monotonic() + MESH_TIMEOUT

        def missing():
            return [p for p in expected if p not in self.links and p not in self.closed]

        while missing() and (left := deadline - time.monotonic()) > 0:
            self._pump_once(left)
        for peer in missing():
            self._lose(peer)  # never arrived

    def _accept(self, events) -> None:
        """The listener is readable: greet every waiting connection."""
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # none left (or the listener is gone)
                return
            sock.setblocking(False)
            self._greetings[sock] = (FrameDecoder(ctl=True), time.monotonic() + _HELLO_TIMEOUT)
            self._selector.register(sock, selectors.EVENT_READ, partial(self._greet, sock))

    def _greet(self, sock, events) -> None:
        """Read an accepted connection's first frame, and not one byte
        more: a peer's first parts may be right behind its hello, and
        they belong to the link's decoder."""
        decoder, frames = self._greetings[sock][0], []
        try:
            while frames is not None and not frames:  # None: hung up first (a probe, or a quitter)
                frames, _ = read_some(sock, decoder, min(decoder.missing, LARGE_BODY))
        except BlockingIOError:
            return  # the rest of it has not arrived yet
        except (OSError, FrameError, MemoryError):
            pass
        del self._greetings[sock]
        self._selector.unregister(sock)
        first = frames[0] if frames else None
        if isinstance(first, tuple) and first[0] == "hello":
            self._install(int(first[1]), sock)
        elif isinstance(first, Ctl) and self.on_stray is not None:
            sock.settimeout(_HELLO_TIMEOUT)
            self.on_stray(first, sock)
        else:
            sock.close()  # not a peer: garbage, a probe, or a lost stranger

    def _dial(self, peer: int, dial: _Dial) -> None:
        """Start the due dial to ``peer``.  A connect still pending when
        the mesh window or the link's grace ends is cancelled with it."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(0.0)  # non-blocking: the pump waits for the connect
        err = sock.connect_ex(self._addrs[peer])
        if err in (0, errno.EINPROGRESS):
            dial.sock = sock
            self._selector.register(sock, selectors.EVENT_WRITE, partial(self._connected, peer, sock))
        else:
            sock.close()
            self._dial_failed(peer, dial, err)

    def _connected(self, peer: int, sock, events) -> None:
        """A dial's connect finished, one way or the other."""
        dial = self._dials.get(peer)
        if dial is None or dial.sock is not sock:
            return  # cancelled earlier in this wake
        self._selector.unregister(sock)
        dial.sock = None
        err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if not err and not dial.probe:
            self._install(peer, sock, hello=True)
            return
        sock.close()
        if err:
            self._dial_failed(peer, dial, err)
        else:  # the listener answered: the peer is alive, not yet dialling
            dial.refused, dial.due = 0, time.monotonic() + dial.pause

    def _dial_failed(self, peer: int, dial: _Dial, err: int) -> None:
        # Peers bind their listeners before any mesh forms, so refusal
        # means the process is gone — not still starting.  A few quick
        # confirmations, then declare it dead.
        dial.refused = dial.refused + 1 if err == errno.ECONNREFUSED else 0
        dial.left -= 1
        if dial.refused >= _REFUSALS or dial.left <= 0:
            self._lose(peer)
            return
        dial.due = time.monotonic() + dial.pause
        if not dial.probe:
            dial.pause = min(2 * dial.pause, 0.5)

    def _cancel_dial(self, peer: int) -> None:
        dial = self._dials.pop(peer, None)
        if dial is not None and dial.sock is not None:
            self._selector.unregister(dial.sock)
            dial.sock.close()

    def _install(self, peer: int, sock: socket.socket, hello: bool = False) -> None:
        """Adopt ``sock`` as ``peer``'s link — a fresh one, or a lost
        one's replacement; it is usable at once.  ``hello``: this side
        dialled, so the link's first frame says who we are."""
        if peer in self.closed:
            sock.close()  # given up already: a late connection revives nothing
            return
        self._cancel_dial(peer)
        self._detach(peer)
        self._down_at.pop(peer, None)
        self._last_rx[peer] = self._last_tx[peer] = time.monotonic()
        if hello:
            self._tails.setdefault(peer, deque()).appendleft(frame_views(("hello", self.rank)))
        self._attach(peer, sock)

    # -- the link's life ---------------------------------------------------
    def _flush_tail(self, member) -> None:
        self._last_tx[member] = time.monotonic()
        super()._flush_tail(member)

    def _drain(self, member) -> bool:
        self._last_rx[member] = time.monotonic()
        return super()._drain(member)

    def _link_down(self, member) -> None:
        """A lost connection is message loss, not yet a dead peer: the
        initiator re-dials at once, the acceptor waits for a re-hello,
        and either way the link closes one grace later unless replaced."""
        self._detach(member)
        self._down_at[member] = time.monotonic()
        if member < self.rank:
            self._dials[member] = _Dial(left=RECONNECT_ATTEMPTS)
        self._wake = 0.0  # it may be down outside the pump: tick at once

    def _lose(self, member) -> None:
        super()._lose(member)
        self._cancel_dial(member)
        self._down_at.pop(member, None)

    def _tick(self, now: float) -> float:
        """The time-driven rules: heartbeats, half-open and lost-link
        deaths, due dials, silent greetings.  Returns the next deadline."""
        for peer in list(self.links):
            if now - self._last_rx[peer] > HB_TIMEOUT:
                self._lose(peer)  # half-open: silent though never closed
            elif now - self._last_tx[peer] >= HB_INTERVAL:
                self._last_tx[peer] = now  # a link with a tail is not idle
                if not self._tails[peer]:
                    self._send_frame(peer, ("hb",))
        for peer, at in list(self._down_at.items()):
            if now - at > RECONNECT_GRACE:
                self._lose(peer)
        for peer, dial in list(self._dials.items()):
            if dial.sock is None and now >= dial.due:
                self._dial(peer, dial)
        for sock, (_, at) in list(self._greetings.items()):
            if now >= at:  # it never said who it is
                del self._greetings[sock]
                self._selector.unregister(sock)
                sock.close()
        return min(
            (
                *(self._last_tx[p] + HB_INTERVAL for p in self.links),
                *(self._last_rx[p] + HB_TIMEOUT for p in self.links),
                *(at + RECONNECT_GRACE for at in self._down_at.values()),
                *(d.due for d in self._dials.values() if d.sock is None),
                *(at for _, at in self._greetings.values()),
            ),
            default=math.inf,
        )

    # -- teardown ----------------------------------------------------------
    def close(self) -> None:
        """Close every socket this transport opened or adopted.
        Idempotent; a ``keep_listener`` listener stays open, with its
        accept timeout back, for whoever accepts on it next."""
        for sock in [*self._greetings, *(d.sock for d in self._dials.values() if d.sock)]:
            sock.close()
        self._greetings.clear()
        self._dials.clear()
        super().close()  # the selector first: it lets go of the listener
        if self._listener is not None and self.keep_listener:
            self._listener.settimeout(_LISTENER_TIMEOUT)
        elif self._listener is not None:
            self._listener.close()
        self._listener = None


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

    def _make_mesh(self):
        listeners = {rank: loopback_listener(backlog=self.size) for rank in range(self.size)}
        addrs = {rank: ("127.0.0.1", s.getsockname()[1]) for rank, s in listeners.items()}
        return (listeners, addrs), list(listeners.values())

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
