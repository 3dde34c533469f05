"""The wire medium of the protocol's exchange step, shared by the real backends.

The protocol — split, scatter, union and memoise maps on the way
down, replay the maps back up — is :mod:`repro.allreduce.core`, the same
sans-IO generators the simulator runs, and so is the step that drives
them (:func:`~repro.allreduce.core.drive`: sends, receives, the hole
policy, spans and accounting).  This module is the step's second medium,
over any :class:`~repro.net.transport.BaseTransport`: a send posts a part
to its member (the node's own part is handed straight back), a receive
blocks in ``collect`` until one part arrived from every member — slotted
by the link it arrived on — and the node's own posts are written, and a
merge is charged nothing.  The socket-pair backend
(:mod:`repro.net.local`) and the TCP backend (:mod:`repro.net.tcp`) run
this one medium, and the simulator runs the same step: the protocol
cannot drift between media, and every guarantee pinned on one backend
(NACK recovery, typed failure, degraded completion, observability
parity) is pinned on all by construction.

Degraded completion is the core's: validity masks ride the parts, an
unrecoverable member is a hole, incomplete aggregates are masked out at
the bottom projection.  What this medium adds is how a combined-down
hole learns what the dead partial held (:func:`~repro.allreduce.core.
dead_partial_keys`): layer-1 parts piggyback the sender's full raw key
set, and the step's tombstone fetches retained keys from the hole's
earlier-layer group members through the transport's audit control
frames.  The caller turns the returned per-index losses into a
:class:`~repro.faults.CoverageReport`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..allreduce import core
from ..allreduce.base import ReduceSpec
from ..allreduce.topology import ButterflyTopology
from ..cluster.node import payload_nbytes
from ..faults import LossRecord, SlotMap
from ..obs import NULL_OBSERVER
from ..sparse import MultiplicativeHasher
from ..verify.errors import ProtocolInvariantError
from .transport import PHASE_OF, BaseTransport

__all__ = ["run_rounds"]

#: Observer phase -> wire kind: the transport's frame kind, which is also
#: the fault plan's crash-point name.
_KIND_OF = {phase: kind for kind, phase in PHASE_OF.items()}


class _Wire:
    """The wire medium of :func:`~repro.allreduce.core.drive`: one node's
    transport for one round ``seq``.  It never suspends the step."""

    piggyback = True  # layer-1 parts carry the sender's raw keys

    def __init__(self, rank, net: BaseTransport, topo, spec, *, obs, seq, degrade):
        self.rank, self.net, self.topo, self.spec = rank, net, topo, spec
        self.obs, self.round, self.degrade = obs, seq, degrade
        self.slots = SlotMap(topo.num_nodes, 1)
        self.retained = net.retained
        self.losses: List[LossRecord] = []
        self._own = None

    def send(self, sends, phase: str, layer: int) -> None:
        kind = _KIND_OF[phase]
        for dst, part in sends:
            self.obs.message_sent(self.rank, dst, payload_nbytes(part), phase=phase, layer=layer)
            if dst == self.rank:
                self._own = part  # never touches the wire
            else:
                self.net.post(dst, kind, layer, part, self.round)

    def recv(self, ex: core.Exchange, pos_of):
        """Block until one part per member arrived (or, degraded, was
        given up); parts are slotted by the link they arrived on."""
        net, group, kind = self.net, ex.group, _KIND_OF[ex.phase]
        if self.degrade:
            got, lost = net.collect(group, kind, ex.layer, self.round, missing_ok=True)
            self.losses.extend(sorted(lost, key=lambda e: e.member))
        else:
            got = net.collect(group, kind, ex.layer, self.round)
        slot = self.slots.slot_fn(pos_of)
        parts: List[Optional[tuple]] = [None] * len(group)
        parts[slot(self.rank)] = self._own
        for member, part in got.items():
            parts[slot(member)] = part
        return parts, 0  # nothing charges the wire's merge: no byte count
        yield  # a generator, like every medium's receive, that never suspends

    def fetch(self, holder: int, direction: str, layer: int, about: int):
        # A hole that died before sending anything left its raw keys with
        # *nobody*, so a fetch that finds none is exact, not lossy.
        return self.net.audit(holder, direction, layer, self.round, about)

    def charge(self, nbytes: int, d: int, building: bool) -> None:
        return None  # a real merge took the time it took


def _complete(step):
    """Run one exchange step over the wire, which never suspends it."""
    try:
        next(step)
    except StopIteration as stop:
        return stop.value
    raise ProtocolInvariantError(
        "the wire medium suspended an exchange step", invariant="message-order"
    )


def run_rounds(
    rank: int,
    net: BaseTransport,
    topo: ButterflyTopology,
    hasher: MultiplicativeHasher,
    spec: ReduceSpec,
    rounds_values: Sequence[np.ndarray],
    *,
    strict: bool,
    obs=NULL_OBSERVER,
    degrade: bool = False,
) -> Iterator[
    Tuple[np.ndarray, Optional[np.ndarray], Tuple[LossRecord, ...], Optional[bool]]
]:
    """One reduction per entry of ``rounds_values`` over one live
    transport: combined once, then values-only over the cached plan.
    ``spec`` need only hold ``rank``'s own index sets.

    Yields ``(result, lost_raw, losses, cached)`` per round (the round
    number is the transport ``seq``).  A clean session — no fault plan,
    strict mode — configures once: ``cached`` is False for the combined
    round that built the plan (a config-cache miss) and True for every
    replay of it (a hit).  A fault session runs the combined protocol
    every round and reports ``cached=None``: the fault oracle's decisions
    are keyed by (kind, seq), so a cached replay would silently change
    the schedule being driven.
    """
    cacheable = net.plan is None and not degrade  # net.plan: the fault plan
    cached = None
    for seq, values in enumerate(rounds_values):
        # Round-scoped transport state (send cache, inbox, dedupe, retained
        # keys) from rounds before the previous one is dead weight: drop it
        # so a thousand-round session runs in bounded memory.
        net.prune_round(seq)
        wire = _Wire(rank, net, topo, spec, obs=obs, seq=seq, degrade=degrade)
        if cached is not None:
            # Indices never leave the node again: every message carries
            # only a value slice, merged through the plan's memoised maps.
            reduce = core.reduce_pass(cached, spec, values, strict=strict)
            yield _complete(core.drive(reduce, wire)), None, (), True
            continue
        plan, v, v_mask = _complete(core.drive(
            core.down_pass(topo, hasher, spec, rank, values, degrade=degrade), wire
        ))
        r, r_mask = core.bottom_projection(plan, spec, v, v_mask, strict=strict)
        r, r_mask = _complete(core.drive(core.up_pass(plan, spec, r, r_mask), wire))
        lost_raw = None
        if degrade:
            lost_raw = np.unique(spec.in_indices[rank][~r_mask[plan.in_inverse]])
        if cacheable:
            cached = plan
        yield r[plan.in_inverse], lost_raw, tuple(wire.losses), False if cacheable else None
