"""One receive ladder for every medium: §V's bounded resend, sans IO.

A group receive waits for one part per group position.  What happens
when a deadline passes — whom to NACK and with which attempt number,
when a member that is alive but behind stops being charged, when to give
up and what giving up is — is decided here, once, for the simulator and
for the real transports.  The ladder holds no clock, engine, socket,
thread or sleep: a *runner* feeds it what it observed and carries out
what it decides.

Inputs (one receive):

* ``arrive(pos, part, key)`` — a copy of position ``pos``'s part arrived;
* ``expire(nack)`` — the current deadline passed.  ``nack(pos, attempt)``
  is the runner's resend request; it returns the member's resend status:
  :data:`SENT`, :data:`DEAD`, or :data:`NOT_YET` (alive, has not produced
  the part yet);
* ``note(pos)`` — the member answered an earlier NACK with "not yet";
* ``dead(pos)`` — the member is known dead.

Outputs: the ``nack`` calls, :attr:`ReceiveLadder.step` (the ladder step
the next deadline is sized by), and, once :attr:`~ReceiveLadder.done`,
the parts and holes by position.  A give-up raises
:class:`~repro.faults.PeerFailedError` in strict mode; under degraded
completion it appends a :class:`~repro.faults.LossRecord` and leaves a
hole.

Two runners: the simulator medium's ``recv``
(:mod:`repro.allreduce.kylix`) waits per message on the virtual clock,
:meth:`repro.net.transport.BaseTransport.collect` blocks in
``pump(deadline - now)``.
Where the two media legitimately differ, the difference is constructor
data or an input only one medium produces — never a branch on the
caller; the table is in ``docs/protocol.md`` §4.

The module also holds the two other things both runners read: the
replica :class:`SlotMap` and the hole policy's :class:`RetainedKeys`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .errors import PeerFailedError
from .report import LossRecord

__all__ = [
    "ReceiveLadder", "SlotMap", "RetainedKeys", "first_copy", "slot_status",
    "SENT", "DEAD", "NOT_YET", "NEW", "DUPLICATE", "SETTLED",
]

#: Resend statuses of a NACKed member (the fabric's tri-state).
SENT, DEAD, NOT_YET = True, False, None

#: What :meth:`ReceiveLadder.arrive` made of a copy.
NEW, DUPLICATE, SETTLED = "new", "duplicate", "settled"


def first_copy(seen: set, key: Hashable) -> bool:
    """Dedupe: True for the first copy of ``key`` in ``seen``'s scope.

    Retransmits and injected duplicates carry the original's key.  The
    scope is the caller's set: one receive on the simulator, the whole
    transport (trimmed per round) on the wire.
    """
    if key in seen:
        return False
    seen.add(key)
    return True


def slot_status(statuses: Sequence[Optional[bool]]) -> Optional[bool]:
    """A slot's resend status from its replicas' (§V): sent if any
    replica resends, not yet if any is alive without the part, dead only
    when every replica is."""
    if any(s is SENT for s in statuses):
        return SENT
    if any(s is NOT_YET for s in statuses):
        return NOT_YET
    return DEAD


class ReceiveLadder:
    """The state of one group receive.

    Parameters
    ----------
    group:
        Member id per group position (error and loss records name it).
    rank, phase, layer:
        The receiver and its protocol position, for the records.
    max_retries:
        Resend requests charged to a member before it is given up.
    degrade:
        Give up with a :class:`LossRecord` and a hole (True) or raise
        :class:`PeerFailedError` (False).
    reset_on_arrival:
        Whether a new part restarts the ladder at step 0 (the simulator:
        each wait is one message's) or not (the wire: the steps count the
        receive's NACK rounds).
    losses:
        Where loss records go, in give-up order.
    awaited:
        The positions to wait for; default all (a real transport hands a
        node its own part directly).
    """

    def __init__(
        self, group: Sequence[int], *, rank: int, phase: str, layer: int,
        max_retries: int, degrade: bool, reset_on_arrival: bool,
        losses: List[LossRecord], awaited: Optional[Iterable[int]] = None,
    ):
        self.group = group
        self.rank, self.phase, self.layer = rank, phase, layer
        self.max_retries = max_retries
        self.degrade = degrade
        self.reset_on_arrival = reset_on_arrival
        self.losses = losses
        self.open: List[int] = list(range(len(group)) if awaited is None else awaited)
        self.parts: Dict[int, Any] = {}
        self.holes: List[int] = []
        self.tries = dict.fromkeys(self.open, 0)  # resend requests charged
        self.notes: set = set()  # positions that answered "not yet"
        self.seen: set = set()
        self.expiries = 0
        # A member can be late because *its* upstream peer died and it is
        # burning its own retry budget.  Such waits are not charged to the
        # member, but capped, so a cascade of failures still resolves in
        # bounded time.
        self.pending_waits = 0
        self.max_pending = 4 * (max_retries + 1)

    @property
    def done(self) -> bool:
        """Every awaited position is filled or given up."""
        return not self.open

    @property
    def step(self) -> int:
        """The ladder step that sizes the next deadline."""
        return min(self.expiries, self.max_retries)

    def arrive(self, pos: int, part: Any, key: Optional[Hashable] = None) -> str:
        """A copy of ``pos``'s part: :data:`NEW` fills the position,
        :data:`DUPLICATE` was seen before under ``key`` (None: the medium
        deduped it already), :data:`SETTLED` lost the race to an earlier
        copy — another replica's, say — or came after a give-up."""
        if key is not None and not first_copy(self.seen, key):
            return DUPLICATE
        if pos not in self.open:
            return SETTLED
        self.open.remove(pos)
        self.parts[pos] = part
        if self.reset_on_arrival:
            self.expiries = 0
        return NEW

    def note(self, pos: int) -> None:
        """``pos`` answered a NACK with "alive, not produced yet"."""
        if pos in self.open:
            self.notes.add(pos)

    def dead(self, pos: int) -> None:
        """``pos`` is known dead: give it up now."""
        if pos in self.open:
            self._give_up(pos, dead=True)

    def expire(self, nack: Callable[[int, int], Optional[bool]]) -> None:
        """The deadline passed: NACK every open position, in position
        order, or give it up.

        A member is NACKed with attempt ``tries + 1`` and charged only if
        the resend was sent.  Past ``max_retries`` it is given up — unless
        it answered "not yet" since, which buys it one uncharged re-NACK.
        Every expiry that finds a member not yet produced is a pending
        wait; past the cap every open position is given up.
        """
        self.expiries += 1
        pending = False
        for pos in list(self.open):
            tries = self.tries[pos]
            if tries >= self.max_retries:
                if pos in self.notes:
                    self.notes.discard(pos)
                    nack(pos, tries)
                    pending = True
                else:
                    self._give_up(pos)
                continue
            status = nack(pos, tries + 1)
            if status is SENT:
                self.tries[pos] = tries + 1
            elif status is DEAD:
                self._give_up(pos, dead=True)
            else:
                pending = True
        if pending:
            self.pending_waits += 1
            if self.pending_waits > self.max_pending:
                for pos in list(self.open):
                    self._give_up(pos)

    def _give_up(self, pos: int, dead: bool = False) -> None:
        member = self.group[pos]
        if not self.degrade:
            why = "is dead" if dead else (
                f"did not answer {self.max_retries} resend requests"
            )
            raise PeerFailedError(
                f"rank {self.rank}: slot {member} {why} "
                f"({self.phase} layer {self.layer})",
                slot=member, phase=self.phase, layer=self.layer,
            )
        self.losses.append(LossRecord(self.rank, member, self.phase, self.layer))
        self.open.remove(pos)
        self.holes.append(pos)


class SlotMap:
    """Logical slot -> physical replicas (§V), first copy per slot wins.

    With replication ``s`` the ``m`` physical nodes host ``m / s``
    logical slots: node ``p`` is replica ``p // size`` of slot
    ``p % size``.  The send loop fans out over :attr:`physical`, the
    receive's slot function folds a replica's copy onto its slot, and a
    NACK goes to every replica (:func:`slot_status` combines them).
    """

    def __init__(self, nodes: int, replication: int = 1):
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if nodes % replication:
            raise ValueError(
                f"cluster size {nodes} not divisible by replication {replication}"
            )
        self.replication = replication
        self.size = nodes // replication
        #: Per logical slot, its physical replicas (built once: the send
        #: loop reads it per message).
        self.physical: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(slot + r * self.size for r in range(replication))
            for slot in range(self.size)
        )

    def logical(self, node: int) -> int:
        """The logical slot a physical node hosts."""
        return node % self.size

    def slot_fn(self, pos_of: Dict[int, int]) -> Callable[[int], int]:
        """The receive's slot function: physical sender -> group position
        of its logical slot."""
        if self.replication == 1:
            return pos_of.__getitem__
        size = self.size
        return lambda src: pos_of[src % size]


class RetainedKeys:
    """The hole policy's retained keys on one node (docs/faults.md).

    Both stores are keyed ``(round, layer, peer)``:

    * ``sent`` — the out-key slice this node sent ``peer`` at ``layer``;
    * ``recv`` — ``peer``'s raw out keys, as this node learned them at
      layer 1.  On the wire that is the piggyback of ``peer``'s layer-1
      part; on the simulator, whose parts carry none, a node keeps only
      its own (``peer`` = itself).

    :func:`repro.allreduce.core.tombstone_part` reads them through one
    lookup; the simulator answers it from the peer's store in memory, a
    real transport through audit frames.
    """

    def __init__(self):
        self.sent: Dict[Tuple[int, int, int], Any] = {}
        self.recv: Dict[Tuple[int, int, int], Any] = {}

    def get(self, direction: str, round: int, layer: int, peer: int) -> Optional[Any]:
        """Retained keys, ``direction`` ``"sent"`` or ``"recv"``; None if
        nothing was retained."""
        store = self.sent if direction == "sent" else self.recv
        return store.get((round, layer, peer))

    def prune(self, round: int) -> None:
        """Drop what is older than the previous round."""
        for store in (self.sent, self.recv):
            for k in [k for k in store if k[0] < round - 1]:
                del store[k]
