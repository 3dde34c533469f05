"""Transport-agnostic reliability layer shared by the real backends.

:class:`BaseTransport` is the piece of ``repro.net`` that makes a lossy,
crash-prone medium look like "one logical message per (peer, kind,
layer, seq)" to the wire medium in :mod:`repro.net.protocol`:

* **Fault injection** — sender paths consult the installed
  :class:`~repro.faults.FaultPlan` oracle per message and drop,
  duplicate, or delay accordingly, with the same decision inputs as the
  simulator fabric (so schedules reproduce bit-identically across all
  backends).
* **NACK/retry** — :meth:`BaseTransport.collect` is the blocking runner
  of the one :class:`~repro.faults.ReceiveLadder`: it blocks on arrival
  (:meth:`BaseTransport.pump`) with the ladder's current deadline (wall
  clock + seeded jitter) as the timeout, and the ladder decides whom to
  NACK and when to give up.  Senders service resends from their send
  cache.
* **Dedupe** — retransmitted or fault-duplicated copies are dropped by
  (peer, kind, layer, seq), transport-wide.
* **Bounded failure** — a peer EOF or an exhausted retry budget either
  raises a typed :class:`~repro.faults.PeerFailedError` (strict mode) or
  leaves a hole (degraded completion: the caller accounts it in a
  :class:`~repro.faults.CoverageReport`).  Never a hang.

Every send happens on the caller's thread: :meth:`BaseTransport.post`
draws the fault decision, caches the part and hands each copy to the
medium's ``_send_frame``, which never blocks; NACK resends take the
same path.  Timers — a fault-delayed copy, a telemetry tick — are one
heap of due calls (:meth:`BaseTransport.schedule_at`) that
:meth:`BaseTransport.pump` runs, never blocking past the next.  Nothing
here sleeps, starts a thread or takes a lock.

Both real backends share one medium, :class:`SocketTransport`: a
non-blocking stream socket per peer under one selector, pumped by the
node's one thread.  :class:`~repro.net.local.LocalKylix` hands it a
socket-pair mesh; :class:`~repro.net.tcp.TcpTransport` adds the
listener, the dials and the liveness rules, as pump deadlines.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import selectors
import socket
import time
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..allreduce.base import PHASE_COMBINED_DOWN, PHASE_GATHER_UP, PHASE_REDUCE_DOWN
from ..cluster.node import payload_nbytes
from ..faults import LossRecord, ReceiveLadder, RetainedKeys, RetryPolicy
from ..faults.ladder import SENT, first_copy
from ..faults.plan import _PHASE_ID, canonical_phase
from ..obs import NULL_OBSERVER
from ..verify.errors import ProtocolInvariantError
from .framing import FrameDecoder, FrameError, frame_views, read_some, write_some

__all__ = ["BaseTransport", "PHASE_OF", "SocketTransport"]

#: Wire kind -> canonical observer phase for message events.  The real
#: backends run the combined protocol, so the downward exchange reports
#: as ``combined_down`` (matching the simulator's combined variant).
PHASE_OF = {"down": PHASE_COMBINED_DOWN, "rd": PHASE_REDUCE_DOWN, "up": PHASE_GATHER_UP}

#: Seconds an audit fetch's pump blocks per wait; the fetch itself waits
#: for the reply or the peer's death (:meth:`BaseTransport.audit`).
_AUDIT_WAKE = 1.0

#: One logical message slot on a link.
_Key = Tuple[int, str, int, int]  # (member, kind, layer, seq)


class BaseTransport:
    """One node's fault-wrapped, retrying view of its peer links.

    Owns the send cache that services NACKs and the receive inbox with
    (peer, kind, layer, seq) dedupe.  One thread owns a transport: it
    posts, pumps, and so writes every metric.  Subclasses provide the
    medium:

    ``_send_frame(member, frame)``
        Transmit one frame *without blocking*: write what the link takes
        now and keep the rest for the pump.  Per-link frame order is
        preserved.  Swallow peer-already-gone errors (the reliability
        layer recovers or reports them) and mark the peer closed on hard
        loss.
    ``_pump_once(timeout)``
        The one receive path.  Block until a frame arrives on *any* open
        link, a peer is newly seen dead, pending bytes can be written,
        or ``timeout`` seconds pass (``<= 0``: do not block); then drain
        everything that is ready, calling :meth:`_dispatch` per frame on
        the caller's thread.  A dead peer lands in :attr:`closed`.
        Return False only if the timeout passed with nothing to do.
    ``_unsent()``
        Whether frames handed to ``_send_frame`` still wait for the
        pump to write them (default: never).
    """

    def __init__(self, rank: int, plan, retry: RetryPolicy, obs=NULL_OBSERVER):
        self.rank = int(rank)
        self.plan = plan
        self._step_kill = plan.step_kill_for(self.rank) if plan is not None else None
        self.retry = retry
        self.obs = obs
        self.sent: Dict[_Key, Any] = {}
        self.inbox: Dict[_Key, Any] = {}
        self.arrived: Dict[_Key, float] = {}
        #: Keys a NACKed peer answered "alive, not produced yet" for —
        #: the cascade signal :meth:`collect` hands the ladder.
        self.waiting: Dict[_Key, float] = {}
        self.seen: Set[_Key] = set()
        self.closed: Set[int] = set()
        #: Members declared unrecoverable by an earlier degraded collect:
        #: later layers fail them immediately instead of re-burning the
        #: whole retry ladder on a peer already known dead.
        self.abandoned: Set[int] = set()
        #: The hole policy's retained keys (degraded completion): the
        #: out-key slice of every down part sent, and the raw-key
        #: piggyback of every layer-1 part received, per ``(seq, layer,
        #: peer)``.  Peers fetch them with audit frames (:meth:`audit`).
        self.retained = RetainedKeys()
        # Its two stores, by the direction names the audit frames use.
        self.audit_sent, self.audit_recv = self.retained.sent, self.retained.recv
        self._audit_replies: Dict[int, Any] = {}
        self._audit_tokens = itertools.count(1)
        #: Calls due at a time, ``(due, order, fn)``: a heap the pump
        #: runs (``order`` keeps equal due times FIFO).
        self._due: List[Tuple[float, int, Callable[[], None]]] = []
        self._due_order = itertools.count()
        #: How many of those calls are fault-delayed copies: frames owed.
        self._delayed = 0

    # -- medium (subclass responsibilities) --------------------------------
    def _send_frame(self, member: int, frame: Any) -> None:
        raise NotImplementedError

    def _pump_once(self, timeout: float) -> bool:
        raise NotImplementedError

    def _unsent(self) -> bool:
        return False

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """The clock :meth:`schedule_at` counts in (``Engine.now``'s twin)."""
        return time.monotonic()

    def schedule_at(self, due: float, fn: Callable[[], None]) -> None:
        """Have the first :meth:`pump` that reaches ``due`` call ``fn()``."""
        heapq.heappush(self._due, (due, next(self._due_order), fn))

    # -- sending -----------------------------------------------------------
    def post(self, member: int, kind: str, layer: int, part, seq: int = 0) -> None:
        """Cache the payload, then fault-inject and send it on the
        caller's thread.  Never blocks: the medium writes without
        blocking, and the pump finishes the write while it waits for
        anything else, so simultaneous exchanges cannot deadlock on
        transport buffers — §VI-B's concurrent sends, with no thread.

        The part's arrays are written from where they lie, not copied,
        and the send cache keeps them for resends: a caller must not
        mutate a posted array afterwards.  The passes never do — every
        part they post is freshly built or a slice of an array they
        replace, never update.

        The fault plan's crash point is here, as in ``Fabric.send``: a
        node scheduled to die at a (phase, layer) exits right before its
        first post there (a node's own part is never posted), once the
        parts it posted earlier are written."""
        if self._step_kill == (canonical_phase(kind), layer):
            # Every part handed to the link before the crash reaches the
            # peer, as on the simulator fabric: a fault-delayed copy is on
            # the wire already, so it is released at its due time too.
            self.flush(self.retry.local_budget())
            os._exit(1)  # the SIGKILL-equivalent: no goodbye frames
        self.sent[(member, kind, layer, seq)] = part
        self._transmit(member, kind, layer, part, seq)

    def _transmit(self, member, kind, layer, part, seq=0, attempt=0) -> None:
        """Consult the fault oracle, then send or schedule each copy.

        The wire frame is stamped now, *before* any fault-injected
        delay, so the delay shows up as delivery latency at the receiver
        — same accounting as the simulator fabric.  A delayed copy is a
        call due ``delay`` seconds on.
        """
        sent_at = time.monotonic()
        decision = None
        if self.plan is not None:
            decision = self.plan.decide(self.rank, member, kind, layer, seq, attempt)
        copies, delay = 1, 0.0
        if decision is not None:
            if self.obs.enabled:
                if decision.drop:
                    self.obs.counter("faults.injected").inc(kind="dropped")
                if decision.delay > 0.0:
                    self.obs.counter("faults.injected").inc(kind="delayed")
                if decision.duplicates:
                    self.obs.counter("faults.injected").inc(
                        decision.duplicates, kind="duplicated"
                    )
            copies += decision.duplicates - decision.drop
            delay = decision.delay
        frame = ("msg", kind, layer, seq, part, sent_at)
        for _ in range(copies):
            if delay > 0.0:
                self._delayed += 1
                self.schedule_at(sent_at + delay, partial(self._send_delayed, member, frame))
            else:
                self._send_frame(member, frame)

    def _send_delayed(self, member: int, frame: Any) -> None:
        self._delayed -= 1
        self._send_frame(member, frame)

    def _owed(self) -> bool:
        """Frames posted but not yet written: delayed or unsent."""
        return self._delayed > 0 or self._unsent()

    def _write_unsent(self, budget: float) -> None:
        """Pump until the medium has written every frame handed to it, or
        ``budget`` seconds pass.  Due calls wait: delayed copies too."""
        deadline = time.monotonic() + budget
        while self._unsent() and (left := deadline - time.monotonic()) > 0:
            self._pump_once(left)

    def flush(self, budget: float) -> None:
        """Pump until every posted frame is written — delayed copies
        released, unsent bytes handed to the link — or ``budget``
        seconds pass.  A peer too slow to take them within it is past
        any receiver's patience; its bytes stay behind."""
        deadline = time.monotonic() + budget
        while self._owed() and (left := deadline - time.monotonic()) > 0:
            self.pump(left)

    # -- receiving ---------------------------------------------------------
    def _dispatch(self, member: int, obj) -> None:
        if obj[0] == "msg":
            _, kind, layer, seq, part, sent_at = obj
            key = (member, kind, layer, seq)
            if not first_copy(self.seen, key):
                self.obs.counter("faults.duplicates_dropped").inc(
                    phase=PHASE_OF[kind], layer=layer
                )
                return
            now = time.monotonic()
            self.inbox[key] = part
            self.arrived[key] = now
            if self.obs.enabled:
                self.obs.message_delivered(
                    member,
                    self.rank,
                    payload_nbytes(part),
                    sent_at,
                    now,
                    phase=PHASE_OF[kind],
                    layer=layer,
                )
        elif obj[0] == "nack":
            _, kind, layer, seq, attempt = obj
            part = self.sent.get((member, kind, layer, seq))
            if part is not None:
                self.obs.counter("faults.resent").inc(
                    phase=PHASE_OF[kind], layer=layer
                )
                # The retransmission gets an independent fault draw
                # (attempt bumps the oracle) and the post path's delays.
                self._transmit(member, kind, layer, part, seq, attempt)
            else:
                # We have not produced that message yet (e.g. we are
                # stuck one layer back burning our own retry budget on a
                # dead upstream peer).  Tell the requester we are alive
                # and slow, so its pending-wait patience is spent only on
                # live cascades.  The reply takes the same fault draw the
                # retransmission would have taken: on a partitioned link
                # it is swallowed and the requester gives up fast.
                decision = None
                if self.plan is not None:
                    decision = self.plan.decide(
                        self.rank, member, kind, layer, seq, attempt
                    )
                if decision is None or not decision.drop:
                    self._send_frame(member, ("wait", kind, layer, seq))
        elif obj[0] == "wait":
            _, kind, layer, seq = obj
            self.waiting[(member, kind, layer, seq)] = time.monotonic()
        elif obj[0] == "audit-req":
            # Control plane, like NACKs: answered inline from the
            # retained key stores, never fault-injected.
            _, token, direction, layer, seq, hole = obj
            keys = self.retained.get(direction, seq, layer, hole)
            self._send_frame(member, ("audit-rep", token, keys))
        elif obj[0] == "audit-rep":
            _, token, keys = obj
            self._audit_replies[token] = keys
        elif obj[0] != "hb":  # a heartbeat's bytes refreshed the link; nothing else
            raise ProtocolInvariantError(
                f"rank {self.rank}: unknown frame {obj[0]!r} from {member}",
                invariant="message-order",
            )

    def pump(self, timeout: float) -> None:
        """Block up to ``timeout`` seconds for something to arrive on any
        link, then drain everything readable; a peer seen dead lands in
        :attr:`closed`.  ``timeout <= 0`` drains without blocking.  Calls
        that fall due meanwhile run on the way, and one that hands a
        delayed copy to the medium ends the pump too: a frame owed is
        gone."""
        end = time.monotonic() + timeout
        due = self._due
        while True:
            woke = self._pump_once((min(end, due[0][0]) if due else end) - time.monotonic())
            delayed, now = self._delayed, time.monotonic()
            while due and due[0][0] <= now:
                heapq.heappop(due)[2]()
            if woke or self._delayed < delayed or now >= end:
                return

    def _jitter_salt(self, kind: str, layer: int, seq: int) -> tuple:
        # Per-(node, phase, layer, seq) salt: peers that all lost the
        # same message draw *different* deadlines and do not stampede
        # the recovering sender with synchronized NACKs.
        return (self.rank, _PHASE_ID.get(canonical_phase(kind), 0), layer, seq)

    def collect(
        self,
        members: Sequence[int],
        kind: str,
        layer: int,
        seq: int = 0,
        *,
        missing_ok: bool = False,
    ):
        """Block until one (kind, layer, seq) message from every member:
        the blocking runner of the :class:`~repro.faults.ReceiveLadder`.

        The ladder decides; this loop feeds it what the links delivered
        — parts from the inbox, "alive, not produced yet" answers
        (``wait`` frames), peers seen closed, members an earlier layer
        gave up — and otherwise blocks in ``pump(deadline − now)``.  The
        deadline is absolute, one per ladder step (wall clock plus seeded
        jitter); an expiry NACKs every missing peer.  A member given up
        raises :class:`PeerFailedError` or — with ``missing_ok`` — is a
        hole, and later layers give it up at once.  Bounded time either
        way.  It returns once this node's own posts are written too.

        Returns ``{member: payload}`` without ``missing_ok``;
        ``({member: payload}, losses)`` with it, one
        :class:`~repro.faults.LossRecord` per hole.
        """
        retry = self.retry
        salt = self._jitter_salt(kind, layer, seq)
        losses: List[LossRecord] = []
        ladder = ReceiveLadder(
            members, rank=self.rank, phase=PHASE_OF[kind], layer=layer,
            max_retries=retry.max_retries, degrade=missing_ok,
            reset_on_arrival=False, losses=losses,
            awaited=[q for q, m in enumerate(members) if m != self.rank],
        )
        deadline = time.monotonic() + retry.local_timeout(ladder.step, salt)
        while True:
            for q in list(ladder.open):
                m = members[q]
                key = (m, kind, layer, seq)
                if m in self.abandoned:
                    ladder.dead(q)
                elif key in self.inbox:
                    ladder.arrive(q, self.inbox[key])
                elif m in self.closed:
                    ladder.dead(q)
                elif self.waiting.pop(key, None) is not None:
                    ladder.note(q)
            if ladder.done:
                break
            if time.monotonic() >= deadline:
                ladder.expire(partial(self._nack, members, kind, layer, seq))
                deadline = time.monotonic() + retry.local_timeout(ladder.step, salt)
                continue
            # Block on arrival, with the ladder's current deadline as the
            # timeout.  The pump waits on *every* link, not just the
            # missing peers': NACKs for our earlier sends arrive on links
            # this collect is not waiting on, and leaving them unread
            # deadlocks chains of stuck groups (each blocked node reads
            # only the peers it waits for, so nobody services anybody's
            # resend requests).
            self.pump(deadline - time.monotonic())
        # What follows (a merge) does not pump: finish writing this node's
        # own posts first, so no peer's receive waits on that merge.
        self._write_unsent(retry.local_budget())
        self.abandoned.update(members[q] for q in ladder.holes)
        got = {members[q]: part for q, part in ladder.parts.items()}
        if self.obs.enabled:
            # Queue wait: dispatch time -> consumption time, mirroring the
            # simulator fabric's mailbox accounting.
            now = time.monotonic()
            for m in got:
                arr = self.arrived.get((m, kind, layer, seq))
                if arr is not None:
                    self.obs.histogram("net.queue_wait").observe(
                        max(now - arr, 0.0),
                        node=self.rank,
                        phase=PHASE_OF[kind],
                        layer=layer,
                    )
        return (got, losses) if missing_ok else got

    def _nack(self, members, kind: str, layer: int, seq: int, q: int, attempt: int):
        """The blocking runner's resend request: a NACK frame to the member
        at position ``q``.  The frame was sent; what the peer makes of it
        comes back later, if at all (a part, or a ``wait`` frame)."""
        self._send_frame(members[q], ("nack", kind, layer, seq, attempt))
        return SENT

    def audit(
        self, member: int, direction: str, layer: int, seq: int, hole: int
    ) -> Optional[Any]:
        """Fetch retained audit keys about ``hole`` from ``member``.

        ``direction`` is ``"sent"`` (the out-key slice ``member`` sent to
        ``hole`` at ``layer``) or ``"recv"`` (the raw-key piggyback
        ``member`` received from ``hole`` at layer 1).  Returns ``None``
        when the peer has nothing retained or is dead — the caller
        degrades to a partial reconstruction.  A live peer is waited for
        however late it answers: reading a late answer as "nothing
        retained" would shrink the dead partial's key set, and its keys
        would then be lost without being reported.
        """
        if member == self.rank:
            return self.retained.get(direction, seq, layer, hole)
        if member in self.closed or member in self.abandoned:
            return None
        token = next(self._audit_tokens)
        self._send_frame(member, ("audit-req", token, direction, layer, seq, hole))
        # Replies only surface through our own pump, and it serves every
        # link: two peers auditing each other's holes simultaneously keep
        # answering one another while they wait.  The peer's death ends
        # the wait the way it ends a receive: its link lands in `closed`.
        while token not in self._audit_replies and member not in self.closed:
            self.pump(_AUDIT_WAKE)
        return self._audit_replies.pop(token, None)

    def prune_round(self, seq: int) -> None:
        """Drop per-round message state older than the previous round.

        The send cache, inbox, arrival stamps, wait notes, and dedupe set
        are keyed ``(member, kind, layer, seq)`` and only ever grow; a
        long-lived transport running many rounds (the cluster driver, the
        reduce service) leaks without this.  One round of history is
        kept — a slow peer may still NACK the previous round's sends.
        """
        for store in (self.sent, self.inbox, self.arrived, self.waiting):
            for k in [k for k in store if k[3] < seq - 1]:
                del store[k]
        self.seen = {k for k in self.seen if k[3] >= seq - 1}
        self.retained.prune(seq)

    def close(self) -> None:
        """Release medium resources (sockets, selectors).  Idempotent."""


#: Bytes asked of a readable link per ``recv``.
_CHUNK = 1 << 18


class SocketTransport(BaseTransport):
    """The reliability layer over one non-blocking stream socket per
    peer (``links``), pumped by the owning thread under one selector.

    A send gather-writes what the socket takes of the frame's buffers
    (:func:`~repro.net.framing.frame_views`) and keeps the rest as the
    link's unsent tail, in order; :meth:`_pump_once` flushes tails as
    sockets turn writable and feeds reads to each link's
    :class:`~repro.net.framing.FrameDecoder`, a large body straight into
    its own buffer.  EOF, a corrupt frame or a
    failed write downs a link (:meth:`_link_down`: here, the peer is
    lost).  A medium may register sockets of its own with a callback
    ``fn(events)`` as their data, and keep time-driven rules in
    :meth:`_tick`, whose returned deadline the pump never blocks past.
    """

    def __init__(self, rank, links, plan, retry, obs=NULL_OBSERVER):
        super().__init__(rank, plan, retry, obs)
        self.links: Dict[int, socket.socket] = {}
        #: Per link, the frames not yet written: each a list of buffers.
        self._tails: Dict[int, Deque[List[memoryview]]] = {}
        #: Links whose first tail frame is partly written.
        self._started: Set[int] = set()
        self._decoders: Dict[int, FrameDecoder] = {}
        self._selector = selectors.DefaultSelector()
        #: When :meth:`_tick` wants to run next.
        self._wake = math.inf
        for member, sock in links.items():
            self._attach(member, sock)

    def _attach(self, member, sock) -> None:
        """Make ``sock`` ``member``'s link, and write what its tail holds."""
        sock.setblocking(False)
        self.links[member] = sock
        self._decoders[member] = FrameDecoder()
        self._selector.register(sock, selectors.EVENT_READ, member)
        if self._tails.setdefault(member, deque()):
            self._flush_tail(member)

    def _detach(self, member) -> None:
        """Close ``member``'s socket, if it has one.  A frame it had
        written in part is lost with it; whole frames wait for the next."""
        sock = self.links.pop(member, None)
        if sock is not None:
            self._selector.unregister(sock)
            sock.close()
        if member in self._started:
            self._started.discard(member)
            self._tails[member].popleft()  # its rest would garble the next socket's stream

    def _send_frame(self, member, frame) -> None:
        tail = self._tails.get(member)
        if tail is None or member in self.closed:
            return  # never linked, or gone: the reliability layer reports it
        tail.append(frame_views(frame))
        if len(tail) == 1 and member in self.links:
            self._flush_tail(member)  # nothing queued ahead: write what fits now

    def _unsent(self) -> bool:
        return any(self._tails[m] for m in self.links)

    def _pump_once(self, timeout) -> bool:
        """``select`` over every link (and the medium's own sockets),
        flush the writable tails, drain the readable links, run the
        medium's due rules; repeat until something was ready, a peer was
        lost, or ``timeout`` passed.  EOF also reads as "readable", so a
        death wakes the wait like an arrival does."""
        end = time.monotonic() + timeout
        while True:
            lost = len(self.closed)
            ready = self._selector.select(max(min(end, self._wake) - time.monotonic(), 0.0))
            for key, events in ready:
                member, sock = key.data, key.fileobj
                if member.__class__ is not int:
                    member(events)  # one of the medium's own sockets
                    continue
                if events & selectors.EVENT_WRITE and self.links.get(member) is sock:
                    self._flush_tail(member)
                if events & selectors.EVENT_READ and self.links.get(member) is sock:
                    # A reply written while draining may have downed it already.
                    if not self._drain(member) and self.links.get(member) is sock:
                        self._link_down(member)
            now = time.monotonic()
            self._wake = self._tick(now)
            woke = bool(ready) or len(self.closed) > lost
            if woke or now >= end:
                return woke

    def _tick(self, now: float) -> float:
        """Run the medium's rules due by ``now``; return when the next
        one is due."""
        return math.inf

    def _flush_tail(self, member) -> None:
        """Write as much of ``member``'s tail as its socket takes now, and
        wait for write readiness on it only while some is left."""
        sock, tail = self.links[member], self._tails[member]
        try:
            while tail:  # until the socket refuses more (BlockingIOError)
                if write_some(sock, tail[0]):
                    tail.popleft()
                    self._started.discard(member)
                else:
                    self._started.add(member)
        except BlockingIOError:
            pass
        except OSError:
            self._link_down(member)
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if tail else 0)
        if self._selector.get_key(sock).events != events:
            self._selector.modify(sock, events, member)

    def _drain(self, member) -> bool:
        """Read and dispatch everything ``member``'s link holds; False
        once it reached EOF or carried a corrupt frame."""
        sock, decoder = self.links[member], self._decoders[member]
        try:
            while True:
                frames, short = read_some(sock, decoder, _CHUNK)
                if frames is None:
                    return False  # EOF, at a frame boundary or mid-frame
                for frame in frames:
                    self._dispatch(member, frame)
                if short:
                    return True
        except BlockingIOError:
            return True
        except (OSError, FrameError):
            return False

    def _link_down(self, member) -> None:
        """``member``'s connection broke; on a fixed mesh the peer is lost."""
        self._lose(member)

    def _lose(self, member) -> None:
        """``member`` is gone for good: close its link, drop its tail."""
        self.closed.add(member)
        self._detach(member)
        self._tails.pop(member, None)

    def linger(self, control, budget: float) -> None:
        """After finishing: keep servicing NACKs until everyone is done.

        ``control`` (anything with ``fileno()`` and ``recv()``) joins the
        links on the selector, so one blocking call waits for a
        straggler's NACK and for the driver's done frame or EOF, which
        ends the linger.  Frames still owed then get one more second.
        """
        over = []

        def hear(events) -> None:
            try:
                control.recv()  # lint: ok — selector-guarded: the done frame, or EOF
            except (EOFError, OSError):
                pass
            over.append(True)

        self._selector.register(control, selectors.EVENT_READ, hear)
        try:
            deadline = time.monotonic() + budget
            while not over and (left := deadline - time.monotonic()) > 0:
                self.pump(left)
        finally:
            self._selector.unregister(control)
        self.flush(1.0)

    def close(self) -> None:
        self._selector.close()
        for sock in self.links.values():
            sock.close()
        self.links.clear()
