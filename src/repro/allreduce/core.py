"""The Kylix protocol core: one plan type, sans-IO per-node passes (§III).

The protocol in brief (node ``k``, degree stack ``d_1 × … × d_l``):

**Configuration** (downward only).  At layer ``i`` every node splits its
current in/out key sets into ``d_i`` equal hashed sub-ranges of the range
it shares with its layer-``i`` group, sends part ``q`` to the group member
at position ``q``, unions what it receives, and memoises the
position maps of each received part inside the union.  After ``l`` layers
node ``k`` owns the union of all contributions to its nested range.

**Reduction** (down then up, through the *same* groups — nesting).  Values
ride the memoised structure: downward, each received value part is
scatter-reduced into the node's partial via the stored maps; at the bottom
the partial is fully reduced over the whole cluster, and the node projects
it onto the in-keys it hosts.  Upward, each node extracts — again via the
stored maps — exactly the sub-vector each group member asked for during
configuration and sends it back; members reassemble by writing parts into
the contiguous slices the split produced.

This module is that protocol and nothing else.  Every pass is a
generator that ``yield``\\ s one :class:`Exchange` per layer — "deliver
``parts[q]`` to ``group[q]``" — and is resumed with the parts the node
received, indexed by sender group position (``None`` = the member is
unrecoverable).  A pass never sends, receives, waits or reads a clock.
:func:`drive` is the one exchange step that does, through a *medium*,
and there are two — :class:`~repro.allreduce.KylixAllreduce` runs it as
a simulator process on the virtual clock, :mod:`repro.net.protocol` over
a blocking pipe/TCP transport.  A test can pump the passes with a
for-loop (``tests/test_allreduce_core.py``).

A part is an array or a tuple of arrays, so its wire size is the sum of
their ``nbytes`` on every backend:

=================  ==================================================
``config``         ``(out_keys, in_keys)``
``combined_down``  ``(out_keys, in_keys, values)`` or ``(…, values, mask)``
``reduce_down``    ``values`` or ``(values, mask)``
``gather_up``      ``values`` or ``(values, mask)``
=================  ==================================================

The validity ``mask`` rides along under degraded completion only: a
position is valid iff every contribution it aggregates arrived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..sparse import IndexHasher, KeyRange, split_sorted, union_with_maps
from ..verify.errors import ProtocolInvariantError
from .base import (
    PHASE_COMBINED_DOWN,
    PHASE_CONFIG,
    PHASE_GATHER_UP,
    PHASE_REDUCE_DOWN,
    CoverageError,
    ReduceSpec,
    reduction_identity,
    reduction_ufunc,
)
from .topology import ButterflyTopology

__all__ = [
    "NodePlan",
    "LayerPlan",
    "Exchange",
    "drive",
    "down_pass",
    "value_down_pass",
    "bottom_projection",
    "up_pass",
    "reduce_pass",
    "in_order",
    "dead_partial_keys",
    "tombstone_part",
]


@dataclass
class LayerPlan:
    """Everything node ``k`` memoised about one communication layer."""

    group: List[int]  # member ids, position order
    pos: int  # our position (digit) in the group
    pos_of: Dict[int, int]  # member id -> position
    out_slices: List[slice]  # split of the previous out key array
    in_slices: List[slice]  # split of the previous in key array
    out_recv_maps: List[np.ndarray]  # per position: part -> out union positions
    in_recv_maps: List[np.ndarray]  # per position: part -> in union positions (f maps);
    # the out side's arrays where the group sent equal in and out keys
    out_union_size: int
    in_union_size: int
    in_prev_size: int  # length of the previous in key array (up-pass target)


@dataclass
class NodePlan:
    """Full per-node configuration state produced by a down pass."""

    rank: int
    out_inverse: np.ndarray  # original out positions -> unique sorted positions
    in_inverse: np.ndarray  # original in positions -> unique sorted positions
    n_out: int  # unique out keys at layer 0
    n_in: int  # unique in keys at layer 0
    layers: List[LayerPlan] = field(default_factory=list)
    bottom_pos: Optional[np.ndarray] = None  # in^l positions within out^l union
    bottom_hit: Optional[np.ndarray] = None  # coverage mask for bottom_pos
    bottom_out_keys: Optional[np.ndarray] = None  # hashed keys of out^l (sorted)

    @property
    def nbytes(self) -> int:
        """Bytes of array memory the plan holds, each buffer counted once:
        a view counts as the array it was cut from (one layer side's maps
        are slices of one array), and a side sharing the other's arrays
        adds nothing."""
        arrays = [
            self.out_inverse, self.in_inverse,
            self.bottom_pos, self.bottom_hit, self.bottom_out_keys,
        ]
        for lp in self.layers:
            arrays += lp.out_recv_maps + lp.in_recv_maps
        buffers = {}
        for a in arrays:
            if a is None:
                continue
            while isinstance(a.base, np.ndarray):
                a = a.base
            buffers[id(a)] = a.nbytes
        return sum(buffers.values())


class Exchange(NamedTuple):
    """One layer's group exchange: the only thing a pass asks of :func:`drive`.

    Deliver ``parts[q]`` to ``group[q]`` for every position (``parts[pos]``
    is the node's own part: the simulator sends it across the fabric, a
    real transport hands it straight back), then resume the pass with the
    received parts indexed by sender position.
    """

    phase: str  # PHASE_* tag of the pass
    layer: int  # 1-indexed
    group: List[int]  # member ids, position order
    pos: int  # this node's position in the group
    parts: list  # per position: an array or a tuple of arrays
    nbytes_hint: int  # size of the state being exchanged (sizes receive deadlines)
    plan: NodePlan  # the plan this pass builds (layer appended on resume) or replays


def drive(gen, medium):
    """The one exchange step: run a pass to completion over ``medium``;
    returns the pass's return value.

    Per :class:`Exchange`: send every part to every replica of its
    destination (``medium.slots.physical``) in one ``medium.send``,
    receive one part per group position, resume the pass and let the
    medium charge the merge.  An enabled observer (``obs.enabled``) sees
    the exchange as a ``{phase} L{layer}`` span around a ``merge
    L{layer}`` span (``kind="merge"``); a disabled one is never called.
    Under degraded completion (``medium.degrade``) a configuration or
    combined-down exchange runs the hole policy (``docs/faults.md``): the
    sent out-key slices and the node's raw keys at layer 1 are retained
    in ``medium.retained`` under ``(medium.round, layer, member)``, and
    every hole is resumed as :func:`tombstone_part` through
    ``medium.fetch`` (its key sets only, in configuration).  A medium with ``piggyback`` set also ships the raw
    keys on every layer-1 part, and each receiver retains the sender's.

    What a medium provides (``docs/protocol.md`` §4 decides every
    difference between the two): ``rank``, ``round``, ``obs``,
    ``degrade``, ``piggyback``, ``slots``, ``retained``, ``topo`` and
    ``spec`` as data; ``send(sends, phase, layer)``, the exchange's
    ``(dst, part)`` pairs in send order;
    ``recv(exchange, pos_of)``, a generator returning ``(parts, nbytes)``
    by group position (``None`` = a hole) — whatever it yields, this step
    yields; ``fetch(holder, direction, layer, about)``, the retained-key
    lookup; and ``charge(nbytes, d, building)``, which returns something
    for this step to yield, or ``None``.
    """
    rank, round, obs = medium.rank, medium.round, medium.obs
    traced = obs.enabled
    physical = medium.slots.physical
    ex = next(gen)
    while ex is not None:
        phase, layer, group, _, parts, _, plan = ex
        building = phase in (PHASE_CONFIG, PHASE_COMBINED_DOWN)
        if traced:
            span = obs.begin(f"{phase} L{layer}", node=rank, phase=phase, layer=layer)
        audit = medium.degrade and building
        if audit:
            kept = medium.retained
            raw = ()
            if layer == 1:
                # State 0: this node's partial starts as exactly its own
                # unique out keys, kept before any send, so survivors can
                # reconstruct what it held if it dies mid-protocol.
                keys = np.concatenate([part[0] for part in parts])
                kept.recv[(round, 1, rank)] = keys
                raw = (keys,) if medium.piggyback else ()
            for member, part in zip(group, parts):
                kept.sent[(round, layer, member)] = part[0]
            if raw:
                parts = [part + raw for part in parts]
        medium.send(
            [(dst, part) for member, part in zip(group, parts) for dst in physical[member]],
            phase, layer,
        )
        pos_of = (
            {member: q for q, member in enumerate(group)}
            if building  # the layer's LayerPlan exists only after the resume
            else plan.layers[layer - 1].pos_of
        )
        got, nbytes = yield from medium.recv(ex, pos_of)
        if audit:
            for q, part in enumerate(got):
                if part is None:
                    tomb = tombstone_part(
                        medium.topo, medium.spec, rank, layer, group[q], medium.fetch
                    )
                    # A configuration part is its two key sets only.
                    got[q] = tomb if phase == PHASE_COMBINED_DOWN else tomb[:2]
                elif raw:
                    kept.recv[(round, 1, group[q])] = part[-1]
                    got[q] = part[:-1]
        if traced:
            merge = obs.begin(
                f"merge L{layer}", node=rank, phase=phase, layer=layer, kind="merge"
            )
        try:
            ex = gen.send(got)
        except StopIteration as stop:
            ex, result = None, stop.value
        if traced and building:
            obs.histogram("config.merge_length").observe(
                plan.layers[layer - 1].out_union_size, phase=phase, layer=layer
            )
        charge = medium.charge(nbytes, len(group), building)
        if charge is not None:
            yield charge
        if traced:
            obs.end(merge)
            obs.end(span)
    return result


def down_pass(
    topo: ButterflyTopology,
    hasher: IndexHasher,
    spec: ReduceSpec,
    rank: int,
    values: Optional[np.ndarray] = None,
    *,
    degrade: bool = False,
):
    """The downward pass: build ``rank``'s routing plan, optionally
    carrying ``values`` (aligned with ``spec.out_indices[rank]``) in the
    same messages — §III's combined configuration and reduction for
    minibatch workloads.

    Returns ``(plan, v, v_mask)``: ``v`` is the node's fully reduced
    bottom-layer partial (``None`` in config-only mode) and ``v_mask`` its
    per-position validity (``None`` unless ``degrade``).

    A ``None`` part (unrecoverable member) contributes empty index sets.
    Under degraded completion the driver resumes no exchange with one: it
    substitutes :func:`tombstone_part` (in config-only mode its two key
    sets), so a key only the hole carried still gets a slot — which the
    reduce pass then masks — and the merge below never special-cases
    holes.

    Many callers ask for the keys they contribute.  Where the arrays in
    hand are equal, the in side is the out side: the layer-0 keys when
    ``spec``'s two index arrays are equal, and a layer's union and maps
    when every member sent equal in and out keys (a ``None`` part is
    empty on both sides).  One node's in = out at layer 0 is not enough
    for its later layers: their unions are equal only if every group
    member's received pair is.  The shared arrays are read-only; the
    per-side lists (maps, slices) are not shared.
    """
    out_keys, out_inverse = _unique_keys(hasher, spec.out_indices[rank])
    if np.array_equal(spec.in_indices[rank], spec.out_indices[rank]):
        in_keys, in_inverse = out_keys, out_inverse
    else:
        in_keys, in_inverse = _unique_keys(hasher, spec.in_indices[rank])
    plan = NodePlan(
        rank=rank,
        out_inverse=out_inverse,
        in_inverse=in_inverse,
        n_out=out_keys.size,
        n_in=in_keys.size,
    )
    combined = values is not None
    phase = PHASE_COMBINED_DOWN if combined else PHASE_CONFIG
    v = v_mask = None
    if combined:
        v = _aligned_out_values(plan, spec, values)
        v_mask = np.ones(v.shape[0], dtype=bool) if degrade else None

    rng = KeyRange.full(hasher.key_space)
    for layer in range(1, topo.num_layers + 1):
        d = topo.degrees[layer - 1]
        group = topo.group(rank, layer)
        pos = topo.position(rank, layer)
        out_slices = split_sorted(out_keys, rng, d)
        in_slices = split_sorted(in_keys, rng, d)
        parts = []
        for so, si in zip(out_slices, in_slices):
            part = (out_keys[so], in_keys[si])
            if combined:
                part += (v[so], v_mask[so]) if degrade else (v[so],)
            parts.append(part)
        got = yield Exchange(
            phase, layer, group, pos, parts, out_keys.nbytes + in_keys.nbytes, plan
        )

        # Union the received index sets; memoise position maps.
        out_union, out_maps = union_with_maps(
            [p[0] if p is not None else out_keys[:0] for p in got]
        )
        if all(p is None or np.array_equal(p[0], p[1]) for p in got):
            # Every member sent equal in and out keys, so the in union and
            # its maps equal the out side's: share the (read-only) arrays.
            in_union, in_maps = out_union, list(out_maps)
        else:
            in_union, in_maps = union_with_maps(
                [p[1] if p is not None else in_keys[:0] for p in got]
            )
        lp = LayerPlan(
            group=group,
            pos=pos,
            pos_of={member: q for q, member in enumerate(group)},
            out_slices=out_slices,
            in_slices=in_slices,
            out_recv_maps=out_maps,
            in_recv_maps=in_maps,
            out_union_size=out_union.size,
            in_union_size=in_union.size,
            in_prev_size=in_keys.size,
        )
        plan.layers.append(lp)
        if combined:
            v, v_mask = _scatter(
                lp, spec, [p[2:] if degrade else p[2] for p in got], degrade
            )
        out_keys, in_keys = out_union, in_union
        rng = rng.subrange(pos, d)

    # Bottom projection: where each hosted in-key sits in the reduced
    # out union (coverage holes surface here).
    where = np.searchsorted(out_keys, in_keys).astype(np.intp)
    plan.bottom_pos = np.minimum(where, max(out_keys.size - 1, 0))
    plan.bottom_hit = (
        (out_keys[plan.bottom_pos] == in_keys)
        if out_keys.size and in_keys.size
        else np.zeros(in_keys.size, dtype=bool)
    )
    plan.bottom_out_keys = out_keys
    return plan, v, v_mask


def value_down_pass(
    plan: NodePlan, spec: ReduceSpec, values: np.ndarray, *, degrade: bool = False
):
    """Values ride the memoised routes downward; returns the node's fully
    reduced bottom partial (aligned with ``plan.bottom_out_keys``) and its
    validity mask (``None`` unless ``degrade``)."""
    v = _aligned_out_values(plan, spec, values)
    v_mask = np.ones(v.shape[0], dtype=bool) if degrade else None
    for layer, lp in enumerate(plan.layers, start=1):
        if degrade:
            parts = [(v[sl], v_mask[sl]) for sl in lp.out_slices]
        else:
            parts = [v[sl] for sl in lp.out_slices]
        got = yield Exchange(
            PHASE_REDUCE_DOWN, layer, lp.group, lp.pos, parts, v.nbytes, plan
        )
        v, v_mask = _scatter(lp, spec, got, degrade)
    return v, v_mask


def bottom_projection(
    plan: NodePlan,
    spec: ReduceSpec,
    v: np.ndarray,
    v_mask: Optional[np.ndarray] = None,
    *,
    strict: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Project the fully reduced bottom partial onto hosted in-keys.

    Returns ``(r, r_mask)``; ``r_mask`` is None outside degraded
    completion (``v_mask is None``), where a requested key nobody
    contributes raises :class:`CoverageError` if ``strict``.  Under
    degradation, positions whose reduced value is incomplete (mask holes)
    or uncovered (spec coverage holes) hold the reduction identity and are
    reported, not raised.
    """
    degrade = v_mask is not None
    hit = plan.bottom_hit
    if not degrade and bool(hit.all()):
        return v[plan.bottom_pos], None  # every hosted key is covered
    if strict and not degrade:
        raise CoverageError(
            f"rank {plan.rank}: {int((~hit).sum())} requested indices have "
            "no contributor"
        )
    r = _identity_rows(spec, plan.bottom_pos.size)
    if degrade and v.size:
        hit = hit & v_mask[plan.bottom_pos]
    if v.size:
        # Broadcast the row mask over trailing value dimensions.
        where = hit.reshape(hit.shape + (1,) * (r.ndim - 1))
        np.copyto(r, v[plan.bottom_pos], where=where)
    return r, (hit.copy() if degrade else None)


def up_pass(
    plan: NodePlan,
    spec: ReduceSpec,
    r: np.ndarray,
    r_mask: Optional[np.ndarray] = None,
):
    """Upward allgather: return reduced values along the memoised routes.

    Returns ``(r, r_mask)``, aligned with the node's unique in keys.
    Under degraded completion (``r_mask`` given) every part carries its
    validity mask; a missing member (or one that never learned our keys
    because its config part from us was lost) leaves its whole slice
    invalid and identity-filled.  Outside it every member's part is
    required: a hole raises :class:`ProtocolInvariantError`.
    """
    degrade = r_mask is not None
    for layer in range(len(plan.layers), 0, -1):
        lp = plan.layers[layer - 1]
        if degrade:
            parts = [(r[m], r_mask[m]) for m in lp.in_recv_maps]
        else:
            parts = [r[m] for m in lp.in_recv_maps]
        got = yield Exchange(
            PHASE_GATHER_UP, layer, lp.group, lp.pos, parts, r.nbytes, plan
        )
        if degrade:
            out = _identity_rows(spec, lp.in_prev_size)
            out_mask = np.zeros(lp.in_prev_size, dtype=bool)
        else:
            # No fill: the in slices tile the array and every part is present.
            out = np.empty((lp.in_prev_size, *spec.value_shape), dtype=spec.dtype)
            out_mask = None
        for q, (sl, part) in enumerate(zip(lp.in_slices, got)):
            if part is None:
                if not degrade:
                    raise ProtocolInvariantError(
                        f"rank {plan.rank}: no gather_up L{layer} part from "
                        f"member {lp.group[q]} outside degraded completion",
                        invariant="up-reassembly",
                    )
                continue  # unrecoverable member: slice stays invalid
            if not degrade:
                out[sl] = part
            elif len(part[0]) == sl.stop - sl.start:
                out[sl] = part[0]
                out_mask[sl] = part[1]
            # else: the member never integrated our config part, so it
            # cannot return our keys — whole slice lost.
        r, r_mask = out, out_mask
    return r, r_mask


def reduce_pass(
    plan: NodePlan,
    spec: ReduceSpec,
    values: np.ndarray,
    *,
    degrade: bool = False,
    strict: bool = True,
):
    """One whole reduction over a memoised plan as a single pass:
    :func:`value_down_pass`, :func:`bottom_projection`, :func:`up_pass`.
    Returns :func:`in_order` of the gathered values."""
    v, v_mask = yield from value_down_pass(plan, spec, values, degrade=degrade)
    r, r_mask = bottom_projection(plan, spec, v, v_mask, strict=strict)
    return in_order(plan, *(yield from up_pass(plan, spec, r, r_mask)))


def in_order(plan: NodePlan, r: np.ndarray, r_mask: Optional[np.ndarray] = None):
    """Unique-in-key order -> the caller's ``in_indices`` order; paired
    with the validity mask under degraded completion."""
    if r_mask is None:
        return r[plan.in_inverse]
    return r[plan.in_inverse], r_mask[plan.in_inverse]


def dead_partial_keys(
    topo: ButterflyTopology,
    hole: int,
    upto: int,
    raw_of: Callable[[int], Optional[np.ndarray]],
    sent_to: Callable[[int, int, int], Optional[np.ndarray]],
) -> np.ndarray:
    """Exact key set of ``hole``'s lost partial after ``upto`` layers.

    A combined-down hole at layer ``l`` takes a partial with it — at layer
    1 the member's own raw contribution, deeper an *accumulated* partial
    carrying live members' earlier contributions.  The separate-pass
    protocol knows what that partial held (configuration gave every
    receiver the merge maps); the combined protocol reconstructs it::

        state(h, 0) = raw_of(h)             h's raw unique out keys
        state(h, s) = U_p sent_to(p, h, s)  U  (state(h, s-1) ^ range(h, s))

    ``sent_to(p, h, s)`` is the out-key slice live member ``p`` sent ``h``
    at layer ``s``.  Both look-ups return ``None`` for a piece nobody
    retained (its holder is dead itself; a live holder is waited for,
    however late it answers): the reconstruction
    degrades to a subset — under multi-failure schedules some incomplete
    aggregates may keep a valid mask, never the reverse.  The result is
    precisely the congruent-contributor interval terms of
    :func:`~repro.verify.flow.worst_case_loss`, so reported losses stay
    within the certified bound.
    """
    raw = raw_of(hole)
    keys = (
        np.asarray(raw, dtype=np.uint64)
        if raw is not None
        else np.empty(0, dtype=np.uint64)
    )
    for s in range(1, upto + 1):
        pieces = [keys[topo.key_range(hole, s).contains(keys)]]
        for p in topo.group(hole, s):
            if p == hole:
                continue
            piece = sent_to(p, hole, s)
            if piece is not None:
                pieces.append(np.asarray(piece, dtype=np.uint64))
        keys = union_with_maps(pieces)[0]
    return keys


def tombstone_part(
    topo: ButterflyTopology,
    spec: ReduceSpec,
    rank: int,
    layer: int,
    hole: int,
    fetch: Callable[[int, str, int, int], Optional[np.ndarray]],
) -> tuple:
    """The part ``rank`` adopts in place of ``hole``'s at a combined-down
    ``layer`` — the one hole policy, on every backend.

    ``fetch(holder, direction, layer, about)`` is the one lookup into the
    retained keys (:class:`~repro.faults.RetainedKeys`): ``"sent"`` is the
    out-key slice ``holder`` sent ``about`` at ``layer``, ``"recv"`` the
    raw keys of ``about`` that ``holder`` learned at layer 1.  The raw
    keys are asked of the hole's layer-1 group in position order: on a
    real network its live peers hold them (the layer-1 piggyback), on the
    simulator the hole's own store does.

    Some keys of the dead partial may not be carried by anyone else in
    this sub-range: if they simply vanished, their homes would aggregate
    the surviving contributions under a still-valid mask and the loss
    would never be reported.  So the observer adopts the slice of the
    reconstructed dead partial it was owed, as tombstones: the keys join
    the union with identity values and an all-False mask, and the
    invalidity rides the normal routing to each key's bottom home (and
    from there to every requester).  That covers both keys the hole shares
    with live parts (partial sums missing the dead contributions) and keys
    only the hole carried; a layer-1 hole's part is the dead member's raw
    out keys — its own contribution counts as lost, matching the
    separate-pass accounting.
    """

    def raw_of(h: int) -> Optional[np.ndarray]:
        for p in topo.group(h, 1):
            keys = fetch(p, "recv", 1, h)
            if keys is not None:
                return keys
        return None

    dead = dead_partial_keys(
        topo, hole, layer - 1, raw_of, lambda p, h, s: fetch(p, "sent", s, h)
    )
    keys = dead[topo.key_range(rank, layer).contains(dead)]
    return (
        keys, keys[:0], _identity_rows(spec, keys.size),
        np.zeros(keys.size, dtype=bool),
    )


def _unique_keys(hasher: IndexHasher, indices: np.ndarray):
    """Sorted unique hashed keys of ``indices`` and the read-only ``intp``
    inverse (each index -> its key's position)."""
    keys, inverse = np.unique(hasher.hash(indices), return_inverse=True)
    inverse = inverse.astype(np.intp, copy=False)
    inverse.flags.writeable = False
    return keys, inverse


def _identity_rows(spec: ReduceSpec, n: int) -> np.ndarray:
    """``n`` value rows holding the reduction identity."""
    return np.full(
        (n, *spec.value_shape),
        reduction_identity(spec.op, spec.dtype),
        dtype=spec.dtype,
    )


def _aligned_out_values(
    plan: NodePlan, spec: ReduceSpec, values: np.ndarray
) -> np.ndarray:
    """Caller-order values -> unique-sorted-key order, duplicates combined."""
    raw = np.asarray(values, dtype=spec.dtype)
    if raw.dtype is not spec.dtype:
        raw = raw.view(spec.dtype)  # equal but not the same instance: see _scatter
    if raw.shape != (plan.out_inverse.size, *spec.value_shape):
        raise ValueError(
            f"rank {plan.rank}: out values shape {raw.shape} does not match "
            f"(n_out={plan.out_inverse.size}, value_shape={spec.value_shape})"
        )
    v = _identity_rows(spec, plan.n_out)
    reduction_ufunc(spec.op).at(v, plan.out_inverse, raw)
    return v


def _scatter(
    lp: LayerPlan, spec: ReduceSpec, parts: Sequence, degrade: bool
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Scatter-reduce received value parts (``values``, or ``(values,
    mask)`` under ``degrade``) into the layer's out union through the
    memoised maps.

    Each part accumulates in place (``ufunc.at``) — but only fast while
    its dtype is the very instance the partial's is (``ReduceSpec`` and
    the wire frames both hand out the canonical one): with equal but
    distinct instances ``ufunc.at`` runs 16-25x slower."""
    ufunc = reduction_ufunc(spec.op)
    partial = _identity_rows(spec, lp.out_union_size)
    mask = np.ones(lp.out_union_size, dtype=bool) if degrade else None
    for m, part in zip(lp.out_recv_maps, parts):
        if part is None:
            # Unrecoverable member: every key its part covered is now an
            # incomplete sum.
            mask[m] = False
            continue
        if degrade:
            part, valid = part
            mask[m] &= valid
        ufunc.at(partial, m, part)
    return partial, mask
