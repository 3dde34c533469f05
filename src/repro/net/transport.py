"""Transport-agnostic reliability layer shared by the real backends.

:class:`BaseTransport` is the piece of ``repro.net`` that makes a lossy,
crash-prone medium look like "one logical message per (peer, kind,
layer, seq)" to the protocol driver in :mod:`repro.net.protocol`:

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

Concrete transports implement the medium: pipe send/receive for
:class:`~repro.net.local.LocalKylix`, framed sockets with per-peer
sender threads for :class:`~repro.net.tcp.TcpKylix`.
"""

from __future__ import annotations

import itertools
import threading
import time
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..allreduce.base import PHASE_COMBINED_DOWN, PHASE_GATHER_UP, PHASE_REDUCE_DOWN
from ..cluster.node import payload_nbytes
from ..faults import LossRecord, ReceiveLadder, RetainedKeys, RetryPolicy
from ..faults.ladder import SENT, first_copy
from ..faults.plan import _PHASE_ID, canonical_phase
from ..obs import NULL_OBSERVER
from ..verify.errors import ProtocolInvariantError
from ..verify.watchlock import watched_lock

__all__ = ["BaseTransport", "PHASE_OF"]

#: Wire kind -> canonical observer phase for message events.  The real
#: backends run the combined protocol, so the downward exchange reports
#: as ``combined_down`` (matching the simulator's combined variant).
PHASE_OF = {"down": PHASE_COMBINED_DOWN, "rd": PHASE_REDUCE_DOWN, "up": PHASE_GATHER_UP}

#: One logical message slot on a link.
_Key = Tuple[int, str, int, int]  # (member, kind, layer, seq)


class BaseTransport:
    """One node's fault-wrapped, retrying view of its peer links.

    Owns the send cache that services NACKs and the receive inbox with
    (peer, kind, layer, seq) dedupe.  Subclasses provide the medium:

    ``_send_frame(member, frame)``
        Transmit one frame; swallow peer-already-gone errors (the
        reliability layer recovers or reports them) and mark the peer
        closed on hard loss.
    ``_pump_once(timeout)``
        The one receive path.  Block until a frame arrives on *any* open
        link, a peer is newly seen dead, or ``timeout`` seconds pass
        (``<= 0``: do not block); then drain everything that is ready,
        calling :meth:`_dispatch` per frame on the caller's thread, and
        return the members newly seen dead (EOF / stale).
    """

    def __init__(self, rank: int, plan, retry: RetryPolicy, obs=NULL_OBSERVER):
        self.rank = int(rank)
        self.plan = plan
        self.retry = retry
        self.obs = obs
        # Fault decisions happen on sender threads; metric dicts are not
        # thread-safe, so their updates serialise through this lock.
        self._obs_lock = watched_lock("net.transport.BaseTransport._obs_lock")
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
        #: The one fetch :meth:`audit` is blocked on; a reply for any
        #: other token (its fetch timed out) is dropped on arrival.
        self._audit_pending: Optional[int] = None
        self._audit_tokens = itertools.count(1)
        self.senders: List[threading.Thread] = []

    # -- medium (subclass responsibilities) --------------------------------
    def _send_frame(self, member: int, frame: Any) -> None:
        raise NotImplementedError

    def _pump_once(self, timeout: float) -> List[int]:
        raise NotImplementedError

    # -- sending -----------------------------------------------------------
    def post(self, member: int, kind: str, layer: int, part, seq: int = 0) -> None:
        """Cache the payload; fault-inject and send it on a fresh
        thread, so simultaneous exchanges cannot deadlock on transport
        buffers ("threads to send all messages concurrently", §VI-B)."""
        self.sent[(member, kind, layer, seq)] = part
        t = threading.Thread(
            target=self._transmit,
            args=(member, kind, layer, part, seq, 0, time.monotonic()),
        )
        t.daemon = True
        t.start()
        self.senders.append(t)

    def _transmit(
        self, member, kind, layer, part, seq=0, attempt=0, sent_at=None
    ) -> None:
        """Consult the fault oracle, then send (runs on a sender thread).

        ``sent_at`` stamps the wire frame (captured *before* any
        fault-injected delay, so the delay shows up as delivery latency
        at the receiver — same accounting as the simulator fabric).
        """
        if sent_at is None:
            sent_at = time.monotonic()
        decision = None
        if self.plan is not None:
            decision = self.plan.decide(self.rank, member, kind, layer, seq, attempt)
        if decision is not None and self.obs.enabled:
            with self._obs_lock:
                if decision.drop:
                    self.obs.counter("faults.injected").inc(kind="dropped")
                if decision.delay > 0.0:
                    self.obs.counter("faults.injected").inc(kind="delayed")
                if decision.duplicates:
                    self.obs.counter("faults.injected").inc(
                        decision.duplicates, kind="duplicated"
                    )
        if decision is not None and decision.delay > 0.0:
            time.sleep(decision.delay)
        copies = 1 + (decision.duplicates if decision is not None else 0)
        if decision is not None and decision.drop:
            copies -= 1
        frame = ("msg", kind, layer, seq, part, sent_at)
        for _ in range(copies):
            self._send_frame(member, frame)

    def join_senders(self, budget: Optional[float] = None) -> None:
        """Join in-flight sender threads.

        The default budget is the retry policy's full receive budget
        (:meth:`~repro.faults.RetryPolicy.local_budget`): a sender
        stalled longer than any receiver could still be waiting is
        abandoned, never waited on forever — and an aggressive retry
        configuration grows the join window with it instead of outliving
        a hard-coded constant.
        """
        if budget is None:
            budget = self.retry.local_budget()
        deadline = time.monotonic() + budget
        for t in self.senders:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        self.senders = [t for t in self.senders if t.is_alive()]

    # -- receiving ---------------------------------------------------------
    def _dispatch(self, member: int, obj) -> None:
        if obj[0] == "msg":
            _, kind, layer, seq, part, sent_at = obj
            key = (member, kind, layer, seq)
            if not first_copy(self.seen, key):
                with self._obs_lock:
                    self.obs.counter("faults.duplicates_dropped").inc(
                        phase=PHASE_OF[kind], layer=layer
                    )
                return
            now = time.monotonic()
            self.inbox[key] = part
            self.arrived[key] = now
            if self.obs.enabled:
                with self._obs_lock:
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
                with self._obs_lock:
                    self.obs.counter("faults.resent").inc(
                        phase=PHASE_OF[kind], layer=layer
                    )
                # Service the resend off-thread; the retransmission gets
                # an independent fault draw (attempt bumps the oracle).
                t = threading.Thread(
                    target=self._transmit,
                    args=(member, kind, layer, part, seq, attempt),
                )
                t.daemon = True
                t.start()
                self.senders.append(t)
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
            if token == self._audit_pending:
                self._audit_replies[token] = keys
        else:
            raise ProtocolInvariantError(
                f"rank {self.rank}: unknown frame {obj[0]!r} from {member}",
                invariant="message-order",
            )

    def pump(self, timeout: float) -> List[int]:
        """Block up to ``timeout`` seconds for something to arrive on any
        link, then drain everything readable; returns peers newly seen
        dead.  ``timeout <= 0`` drains without blocking."""
        return self._pump_once(timeout)

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
        way.

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
        self.abandoned.update(members[q] for q in ladder.holes)
        got = {members[q]: part for q, part in ladder.parts.items()}
        if self.obs.enabled:
            # Queue wait: dispatch time -> consumption time, mirroring the
            # simulator fabric's mailbox accounting.
            now = time.monotonic()
            with self._obs_lock:
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
        self, member: int, direction: str, layer: int, seq: int, hole: int,
        timeout: float,
    ) -> Optional[Any]:
        """Fetch retained audit keys about ``hole`` from ``member``.

        ``direction`` is ``"sent"`` (the out-key slice ``member`` sent to
        ``hole`` at ``layer``) or ``"recv"`` (the raw-key piggyback
        ``member`` received from ``hole`` at layer 1).  Returns ``None``
        when the peer has nothing retained or does not answer within
        ``timeout`` — the caller degrades to a partial reconstruction.
        """
        if member == self.rank:
            return self.retained.get(direction, seq, layer, hole)
        if member in self.closed or member in self.abandoned:
            return None
        token = self._audit_pending = next(self._audit_tokens)
        self._send_frame(member, ("audit-req", token, direction, layer, seq, hole))
        deadline = time.monotonic() + timeout
        # Replies only surface through our own pump, and it serves every
        # link: two peers auditing each other's holes simultaneously keep
        # answering one another while they wait.
        while token not in self._audit_replies and (
            remaining := deadline - time.monotonic()
        ) > 0:
            self.pump(remaining)
        self._audit_pending = None
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

    def linger(self, done, budget: float) -> None:
        """After finishing: keep servicing NACKs until everyone is done.

        ``done(timeout)`` waits up to ``timeout`` seconds and says
        whether the run is over (the driver's done frame, or its loss).
        No one call blocks on both that and the links, so the block is on
        ``done`` — what ends the linger — and the links, where only a
        straggler's NACK (already a deadline late) can arrive, are
        drained between short slices of it.
        """
        deadline = time.monotonic() + budget
        while time.monotonic() < deadline:
            self.pump(0.0)
            if done(0.02):
                break
        self.join_senders(budget=1.0)

    def close(self) -> None:
        """Release medium resources (sockets, threads).  Idempotent."""
