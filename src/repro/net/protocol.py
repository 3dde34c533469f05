"""The blocking driver of the protocol core, shared by the real backends.

The protocol — split, scatter, union and memoise maps on the way
down, replay the maps back up — is :mod:`repro.allreduce.core`, the same
sans-IO generators the simulator runs.  This module pumps them over any
:class:`~repro.net.transport.BaseTransport`: per ``Exchange`` it posts
the parts (prefixed with the sender's group position), blocks in
``collect`` until one arrived from every member, joins the senders and
resumes the pass.  The pipe backend (:mod:`repro.net.local`) and the
socket backend (:mod:`repro.net.tcp`) execute *this exact pump* — the
protocol cannot drift between mediums or away from the simulator, and
every guarantee pinned on one backend (NACK recovery, typed failure,
degraded completion, observability parity) is pinned on all by
construction.

Degraded completion is the core's: validity masks ride the parts, an
unrecoverable member is a hole, incomplete aggregates are masked out at
the bottom projection.  What this driver adds is how a combined-down hole
learns what the dead partial held (:func:`~repro.allreduce.core.
dead_partial_keys`): every degrade-mode sender retains the out-key slice
of each down part, layer-1 parts piggyback the sender's full raw key set,
and a receiver that sees a hole fetches both from the hole's earlier-layer
group members through the transport's audit control frames before it
adopts the tombstone part.  The caller turns the returned per-index
losses into a :class:`~repro.faults.CoverageReport`.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..allreduce import core
from ..allreduce.base import PHASE_COMBINED_DOWN, ReduceSpec
from ..allreduce.topology import ButterflyTopology
from ..cluster.node import payload_nbytes
from ..faults import LossRecord, RetryPolicy
from ..obs import NULL_OBSERVER
from ..sparse import MultiplicativeHasher
from .transport import PHASE_OF, BaseTransport

__all__ = ["run_rounds", "run_combined", "run_reduce"]

#: Observer phase -> wire kind: the transport's frame kind, which is also
#: the fault plan's crash-point name.
_KIND_OF = {phase: kind for kind, phase in PHASE_OF.items()}


def _pump(
    rank: int,
    net: BaseTransport,
    gen,
    *,
    obs,
    seq: int,
    losses: Optional[List[LossRecord]] = None,
    tombstone: Optional[Callable[[int, int], tuple]] = None,
):
    """Drive one core pass to completion over ``net``; returns its value.

    A ``losses`` list switches on degraded completion: an unrecoverable
    member is recorded there and resumed as a hole instead of raising
    :class:`~repro.faults.PeerFailedError`; in a combined-down exchange
    the hole is replaced by ``tombstone(layer, member)`` and the key
    audit's retention runs (sent slices, layer-1 raw-key piggyback).
    """
    step_kill = net.plan.step_kill_for(rank) if net.plan is not None else None
    ex = next(gen)
    while ex is not None:
        phase, layer, group, pos = ex.phase, ex.layer, ex.group, ex.pos
        kind = _KIND_OF[phase]
        if step_kill == (kind, layer):
            # Crash point: die immediately before the first send at the
            # targeted (phase, layer) — same semantics as the simulator.
            os._exit(1)  # the SIGKILL-equivalent: no goodbye frames
        span = obs.begin(f"{phase} L{layer}", node=rank, phase=phase, layer=layer)
        audit = losses is not None and phase == PHASE_COMBINED_DOWN
        # Raw-key piggyback on layer-1 parts: lets any surviving peer
        # answer a dead-partial audit for this node's state 0.
        piggyback = (
            (np.concatenate([part[0] for part in ex.parts]),)
            if audit and layer == 1
            else ()
        )
        # Each message is prefixed with the *sender's* group position so
        # the receiver can index its merge maps.  Sends run on background
        # senders (deadlock-free exchange) and are joined before the
        # layer ends; the node's own part never touches the wire.
        for member, part in zip(group, ex.parts):
            arrays = part if isinstance(part, tuple) else (part,)
            wire = (pos, *map(np.ascontiguousarray, arrays), *piggyback)
            if audit:
                net.retained.sent[(seq, layer, member)] = part[0]
            obs.message_sent(
                rank, member, payload_nbytes(wire), phase=phase, layer=layer
            )
            if member != rank:
                net.post(member, kind, layer, wire, seq)
        if losses is None:
            got, lost = net.collect(group, kind, layer, seq), ()
        else:
            got, lost = net.collect(group, kind, layer, seq, missing_ok=True)
            losses.extend(sorted(lost, key=lambda e: e.member))
        parts: List[Optional[tuple]] = [None] * len(group)
        parts[pos] = ex.parts[pos]
        for member, wire in got.items():
            if piggyback:  # every peer's layer-1 part carries one too
                net.retained.recv[(seq, layer, member)] = wire[-1]
                wire = wire[:-1]
            parts[wire[0]] = wire[1:] if len(wire) > 2 else wire[1]
        net.join_senders()
        if audit:
            for e in lost:
                parts[group.index(e.member)] = tombstone(layer, e.member)
        try:
            ex = gen.send(parts)
        except StopIteration as stop:
            ex, result = None, stop.value
        obs.end(span)
    return result


def run_combined(
    rank: int,
    net: BaseTransport,
    topo: ButterflyTopology,
    hasher: MultiplicativeHasher,
    spec: ReduceSpec,
    values: np.ndarray,
    *,
    strict: bool,
    retry: RetryPolicy,
    obs=NULL_OBSERVER,
    degrade: bool = False,
    seq: int = 0,
) -> Tuple[np.ndarray, Optional[np.ndarray], List[LossRecord], core.NodePlan]:
    """One node's combined down/up protocol run over ``net``.

    ``spec`` need only hold ``rank``'s own index sets.  Returns
    ``(result, lost_raw, losses, plan)``: ``result`` aligns with
    ``spec.in_indices[rank]``; ``lost_raw`` is the sorted subset of those
    indices whose reduced values never arrived (``None`` outside degraded
    completion — without it, an unrecoverable peer raises
    :class:`~repro.faults.PeerFailedError` instead); ``losses`` are the
    individual loss events for the coverage report; ``plan`` is the
    routing plan the round built, which :func:`run_reduce` replays.  Only
    a clean run's plan is worth caching: a degraded round's unions carry
    the holes' tombstones, so replaying it would bake the failure into
    every round.

    ``seq`` namespaces one reduction round on a long-lived transport
    (the cluster driver runs many rounds over one socket mesh) and is
    the per-link sequence the fault oracle sees, so round ``r`` draws
    the same fault schedule on every backend.
    """
    losses: List[LossRecord] = []
    if degrade:
        net.retained.prune(seq)
    timeout = min(2.0, max(0.2, 2.0 * retry.local_timeout()))  # per audit fetch

    def tombstone(layer: int, hole: int) -> tuple:
        # The retained keys, fetched from their holders with audit frames.
        # A hole that died before sending anything left its raw keys with
        # *nobody*, so omitting them is exact, not lossy.
        return core.tombstone_part(
            topo, spec, rank, layer, hole,
            lambda p, direction, s, h: net.audit(p, direction, s, seq, h, timeout),
        )

    pump = partial(
        _pump, rank, net, obs=obs, seq=seq,
        losses=losses if degrade else None, tombstone=tombstone,
    )
    plan, v, v_mask = pump(
        core.down_pass(topo, hasher, spec, rank, values, degrade=degrade, obs=obs)
    )
    r, r_mask = core.bottom_projection(plan, spec, v, v_mask, strict=strict)
    r, r_mask = pump(core.up_pass(plan, spec, r, r_mask))
    lost_raw = None
    if degrade:
        lost_raw = np.unique(spec.in_indices[rank][~r_mask[plan.in_inverse]])
    return r[plan.in_inverse], lost_raw, losses, plan


def run_reduce(
    rank: int,
    net: BaseTransport,
    plan: core.NodePlan,
    spec: ReduceSpec,
    values: np.ndarray,
    *,
    strict: bool,
    obs=NULL_OBSERVER,
    seq: int = 0,
) -> np.ndarray:
    """One values-only reduction over a cached plan.

    The wire-side ``configure() once, reduce() many`` amortization:
    indices never leave the node again — every message carries only the
    sender's group position and a value slice, merged through the plan's
    memoised maps.  ``seq`` must be unique per round on the shared
    transport.

    Clean runs only: degraded completion needs the combined protocol's
    per-round key audit.
    """
    # Round-scoped transport state (send cache, inbox, dedupe) from
    # rounds before the previous one is dead weight: drop it so a
    # thousand-round service session runs in bounded memory.
    net.prune_round(seq)
    return _pump(
        rank, net, core.reduce_pass(plan, spec, values, strict=strict),
        obs=obs, seq=seq,
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
    retry: RetryPolicy,
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
        if cached is not None:
            result = run_reduce(
                rank, net, cached, spec, values, strict=strict, obs=obs, seq=seq
            )
            yield result, None, (), True
            continue
        result, lost_raw, losses, plan = run_combined(
            rank, net, topo, hasher, spec, values,
            strict=strict, retry=retry, obs=obs, degrade=degrade, seq=seq,
        )
        if cacheable:
            cached = plan
        yield result, lost_raw, tuple(losses), False if cacheable else None
