"""Static invariants of the Kylix configuration state (PAPER.md §III).

Every function here inspects *data* — a :class:`ButterflyTopology` and the
``NodePlan``/``LayerPlan`` state the configuration pass produces — and
never runs a reduction.  Violations are collected rather than raised so a
broken plan reports every problem at once; :func:`assert_valid` converts a
non-empty report into a :class:`ProtocolInvariantError`.

Checked invariants (names are stable identifiers, catalogued with their
paper references in ``docs/verify.md``):

Topology level
--------------
``range-tiling``
    At every layer the distinct per-node key ranges are disjoint and
    cover the hashed keyspace exactly (§III-A: equal hashed sub-ranges).
``range-nesting``
    A node's layer-``i`` range is the ``q_i``-th of ``d_i`` equal parts of
    its layer-``i-1`` range (§III-A, the nesting property).
``group-symmetry``
    Layer groups are symmetric (``j ∈ group(k)`` iff ``k ∈ group(j)``)
    and position-consistent: member ``q`` of a group has digit ``q``
    (§II-A.3, mixed-radix grid lines).

Plan level
----------
``slice-cover``
    The ``out_slices``/``in_slices`` split at each layer is a list of
    contiguous, ascending, adjacent slices that reassemble the parent
    key array exactly — the property that makes the up pass a
    concatenation (§III-A).
``map-injective``
    Every ``*_recv_maps`` entry is strictly increasing (injective) and
    in-bounds for its layer union size (the maps ``f^i_jk``/``g^i_jk``).
``map-cover``
    Jointly, the ``d`` receive maps of a layer hit every position of the
    union — each union element was contributed by at least one part.
``group-consistency``
    The memoised group/pos/pos_of agree with the topology and round-trip
    (``group[pos_of[m]] == m``).
``nesting``
    The up-pass write target at layer ``i`` (``in_prev_size``) equals the
    down-pass source size — ``n_in`` at layer 1, the previous layer's
    ``in_union_size`` after — so the up pass retraces the exact groups
    and sizes of the down pass (the machine-checked §III nesting claim).
``part-size``
    Cross-node: the part node ``k`` expects from group member ``j``
    (``recv_maps[q].size``) is exactly the slice ``j`` cut for ``k``'s
    position — senders and receivers agree on every message length.
``bottom-projection``
    ``bottom_pos`` is in-bounds for the reduced union, ``bottom_hit``
    aligns with it, and ``bottom_out_keys`` is sorted-unique inside the
    node's final nested range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional

import numpy as np

from ..faults.ladder import SlotMap
from ..sparse.merge import is_sorted_unique
from ..sparse.partition import ranges_tile
from .errors import ProtocolInvariantError

__all__ = [
    "Violation",
    "check_topology",
    "check_plans",
    "check_fault_plan",
    "check_replication",
    "check_sequence_numbers",
    "verify_all",
    "assert_valid",
    "format_report",
]


@dataclass(frozen=True)
class Violation:
    """One failed invariant, locatable to a node and layer."""

    invariant: str
    detail: str
    node: Optional[int] = None
    layer: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.node is not None:
            where.append(f"node {self.node}")
        if self.layer is not None:
            where.append(f"layer {self.layer}")
        loc = f" ({', '.join(where)})" if where else ""
        return f"[{self.invariant}]{loc} {self.detail}"


# ---------------------------------------------------------------------------
# Topology invariants
# ---------------------------------------------------------------------------


def check_topology(topo) -> List[Violation]:
    """Range-tiling, range-nesting and group-symmetry for one topology."""
    out: List[Violation] = []
    m = topo.num_nodes
    for layer in range(1, topo.num_layers + 1):
        # -- range-tiling: distinct ranges tile [0, key_space) exactly.
        problem = ranges_tile(
            (topo.key_range(k, layer) for k in range(m)), topo.key_space
        )
        if problem is not None:
            out.append(Violation("range-tiling", problem, layer=layer))

        for k in range(m):
            # -- range-nesting: layer range is the digit-th equal subrange.
            parent = topo.key_range(k, layer - 1)
            child = topo.key_range(k, layer)
            expect = parent.subrange(topo.digit(k, layer), topo.degrees[layer - 1])
            if (child.lo, child.hi) != (expect.lo, expect.hi):
                out.append(
                    Violation(
                        "range-nesting",
                        f"range [{child.lo},{child.hi}) is not subrange "
                        f"{topo.digit(k, layer)} of its parent",
                        node=k,
                        layer=layer,
                    )
                )
            # -- group-symmetry.
            group = topo.group(k, layer)
            if len(group) != topo.degrees[layer - 1]:
                out.append(
                    Violation(
                        "group-symmetry",
                        f"group has {len(group)} members, degree is "
                        f"{topo.degrees[layer - 1]}",
                        node=k,
                        layer=layer,
                    )
                )
                continue
            if group[topo.position(k, layer)] != k:
                out.append(
                    Violation(
                        "group-symmetry",
                        "node is not at its own position in its group",
                        node=k,
                        layer=layer,
                    )
                )
            for q, member in enumerate(group):
                if topo.digit(member, layer) != q:
                    out.append(
                        Violation(
                            "group-symmetry",
                            f"member {member} at position {q} has digit "
                            f"{topo.digit(member, layer)}",
                            node=k,
                            layer=layer,
                        )
                    )
                if topo.group(member, layer) != group:
                    out.append(
                        Violation(
                            "group-symmetry",
                            f"group of member {member} differs from group of {k}",
                            node=k,
                            layer=layer,
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# Plan invariants
# ---------------------------------------------------------------------------


def _check_slices(slices, prev_size: int, *, what: str, node: int, layer: int):
    """A split must be contiguous ascending slices covering [0, prev_size)."""
    cursor = 0
    for q, s in enumerate(slices):
        if not isinstance(s, slice) or s.step not in (None, 1):
            yield Violation(
                "slice-cover",
                f"{what} part {q} is not a unit-stride slice",
                node=node,
                layer=layer,
            )
            return
        if s.start != cursor:
            yield Violation(
                "slice-cover",
                f"{what} part {q} starts at {s.start}, expected {cursor}",
                node=node,
                layer=layer,
            )
            return
        if s.stop < s.start:
            yield Violation(
                "slice-cover",
                f"{what} part {q} has negative extent",
                node=node,
                layer=layer,
            )
            return
        cursor = s.stop
    if cursor != prev_size:
        yield Violation(
            "slice-cover",
            f"{what} parts cover [0,{cursor}), parent array has {prev_size}",
            node=node,
            layer=layer,
        )


def _check_maps(maps, union_size: int, *, what: str, node: int, layer: int):
    covered = np.zeros(union_size, dtype=bool)
    for q, m in enumerate(maps):
        m = np.asarray(m)
        if m.size and (int(m.min()) < 0 or int(m.max()) >= union_size):
            yield Violation(
                "map-injective",
                f"{what} map {q} indexes outside the union of size {union_size}",
                node=node,
                layer=layer,
            )
            continue
        if not is_sorted_unique(m):
            yield Violation(
                "map-injective",
                f"{what} map {q} is not strictly increasing (duplicate or "
                "unsorted positions)",
                node=node,
                layer=layer,
            )
            continue
        covered[m] = True
    if union_size and not bool(covered.all()):
        missing = int((~covered).sum())
        yield Violation(
            "map-cover",
            f"{missing} of {union_size} {what} union positions received no part",
            node=node,
            layer=layer,
        )


def check_plans(topo, plans: Mapping[int, object]) -> List[Violation]:
    """All plan-level invariants over a full ``{rank: NodePlan}`` mapping."""
    out: List[Violation] = []
    for rank in sorted(plans):
        plan = plans[rank]
        if len(plan.layers) != topo.num_layers:
            out.append(
                Violation(
                    "nesting",
                    f"plan has {len(plan.layers)} layers, topology has "
                    f"{topo.num_layers}",
                    node=rank,
                )
            )
            continue
        prev_out, prev_in = plan.n_out, plan.n_in
        for i, lp in enumerate(plan.layers, start=1):
            d = topo.degrees[i - 1]
            # -- group-consistency
            expect_group = topo.group(rank, i)
            if list(lp.group) != expect_group:
                out.append(
                    Violation(
                        "group-consistency",
                        f"memoised group {lp.group} != topology group "
                        f"{expect_group}",
                        node=rank,
                        layer=i,
                    )
                )
            if lp.pos != topo.position(rank, i):
                out.append(
                    Violation(
                        "group-consistency",
                        f"memoised position {lp.pos} != digit "
                        f"{topo.position(rank, i)}",
                        node=rank,
                        layer=i,
                    )
                )
            bad_pos_of = [
                m
                for q, m in enumerate(lp.group)
                if lp.pos_of.get(m) != q
            ]
            if bad_pos_of or len(lp.pos_of) != len(lp.group):
                out.append(
                    Violation(
                        "group-consistency",
                        f"pos_of does not round-trip for members {bad_pos_of}",
                        node=rank,
                        layer=i,
                    )
                )
            # -- slice-cover against the previous layer's array sizes
            out.extend(
                _check_slices(lp.out_slices, prev_out, what="out", node=rank, layer=i)
            )
            out.extend(
                _check_slices(lp.in_slices, prev_in, what="in", node=rank, layer=i)
            )
            # -- nesting: the up-pass target is the down-pass source
            if lp.in_prev_size != prev_in:
                out.append(
                    Violation(
                        "nesting",
                        f"in_prev_size {lp.in_prev_size} != previous in "
                        f"array size {prev_in}",
                        node=rank,
                        layer=i,
                    )
                )
            if len(lp.out_slices) != d or len(lp.in_slices) != d:
                out.append(
                    Violation(
                        "slice-cover",
                        f"split has {len(lp.out_slices)}/{len(lp.in_slices)} "
                        f"parts, degree is {d}",
                        node=rank,
                        layer=i,
                    )
                )
            # -- map-injective / map-cover
            out.extend(
                _check_maps(
                    lp.out_recv_maps, lp.out_union_size, what="out", node=rank, layer=i
                )
            )
            out.extend(
                _check_maps(
                    lp.in_recv_maps, lp.in_union_size, what="in", node=rank, layer=i
                )
            )
            prev_out, prev_in = lp.out_union_size, lp.in_union_size

        # -- bottom-projection
        if plan.bottom_pos is not None:
            union = plan.bottom_out_keys
            if plan.bottom_pos.size != (0 if prev_in is None else prev_in):
                out.append(
                    Violation(
                        "bottom-projection",
                        f"bottom_pos has {plan.bottom_pos.size} entries, final "
                        f"in union has {prev_in}",
                        node=rank,
                    )
                )
            if plan.bottom_hit is None or plan.bottom_hit.size != plan.bottom_pos.size:
                out.append(
                    Violation(
                        "bottom-projection",
                        "bottom_hit missing or misaligned with bottom_pos",
                        node=rank,
                    )
                )
            if union is not None:
                if not is_sorted_unique(union):
                    out.append(
                        Violation(
                            "bottom-projection",
                            "bottom_out_keys not sorted unique",
                            node=rank,
                        )
                    )
                limit = max(union.size - 1, 0)
                if plan.bottom_pos.size and int(plan.bottom_pos.max()) > limit:
                    out.append(
                        Violation(
                            "bottom-projection",
                            "bottom_pos indexes outside bottom_out_keys",
                            node=rank,
                        )
                    )
                rng = topo.key_range(rank, topo.num_layers)
                if union.size and not bool(rng.contains(union).all()):
                    out.append(
                        Violation(
                            "bottom-projection",
                            "bottom_out_keys stray outside the node's nested "
                            f"range [{rng.lo},{rng.hi})",
                            node=rank,
                        )
                    )

    # -- part-size: cross-node agreement on every message length.
    out.extend(_check_part_sizes(topo, plans))
    return out


def _slice_len(s: slice) -> int:
    return max(0, s.stop - s.start)


def _check_part_sizes(topo, plans: Mapping[int, object]) -> Iterable[Violation]:
    for rank in sorted(plans):
        plan = plans[rank]
        if len(plan.layers) != topo.num_layers:
            continue  # already reported under "nesting"
        for i, lp in enumerate(plan.layers, start=1):
            for q, member in enumerate(lp.group):
                peer = plans.get(member)
                if peer is None or len(peer.layers) != topo.num_layers:
                    continue
                peer_lp = peer.layers[i - 1]
                if lp.pos >= len(peer_lp.out_slices):
                    continue  # degree mismatch already reported
                for what, maps, slices in (
                    ("out", lp.out_recv_maps, peer_lp.out_slices),
                    ("in", lp.in_recv_maps, peer_lp.in_slices),
                ):
                    sent = _slice_len(slices[lp.pos])
                    got = int(np.asarray(maps[q]).size)
                    if sent != got:
                        yield Violation(
                            "part-size",
                            f"{what} part from node {member}: receiver map "
                            f"expects {got} keys, sender slice has {sent}",
                            node=rank,
                            layer=i,
                        )


# ---------------------------------------------------------------------------
# Fault-tolerance invariants
# ---------------------------------------------------------------------------


def check_fault_plan(plan, num_nodes: int) -> List[Violation]:
    """Static sanity of a :class:`~repro.faults.FaultPlan` against a cluster.

    ``fault-target``
        Every death, recovery, step-kill, and rule endpoint names a node
        inside ``[0, num_nodes)``.
    ``fault-schedule``
        Recoveries follow their deaths; step-kill phases are canonical
        (config/down/up); probabilities sit in ``[0, 1]``.
    """
    out: List[Violation] = []
    deaths = getattr(plan, "_deaths", {})
    for node, at in deaths.items():
        if not 0 <= node < num_nodes:
            out.append(
                Violation(
                    "fault-target",
                    f"death targets node {node}, cluster has {num_nodes}",
                    node=node,
                )
            )
        if at < 0:
            out.append(
                Violation("fault-schedule", f"death at negative time {at}", node=node)
            )
    for node, at in getattr(plan, "_recoveries", {}).items():
        death = deaths.get(node)
        if death is None:
            out.append(
                Violation(
                    "fault-schedule", "recovery without a death", node=node
                )
            )
        elif at <= death:
            out.append(
                Violation(
                    "fault-schedule",
                    f"recovery at {at} not after death at {death}",
                    node=node,
                )
            )
    for node, (phase, layer) in getattr(plan, "_step_kills", {}).items():
        if not 0 <= node < num_nodes:
            out.append(
                Violation(
                    "fault-target",
                    f"step-kill targets node {node}, cluster has {num_nodes}",
                    node=node,
                )
            )
        if phase not in ("config", "down", "up"):
            out.append(
                Violation(
                    "fault-schedule",
                    f"step-kill phase {phase!r} is not canonical "
                    "(config/down/up)",
                    node=node,
                    layer=layer,
                )
            )
    for ridx, rule in enumerate(getattr(plan, "rules", ())):
        for end in (rule.src, rule.dst):
            if end is not None and not 0 <= end < num_nodes:
                out.append(
                    Violation(
                        "fault-target",
                        f"rule {ridx} targets node {end}, cluster has "
                        f"{num_nodes}",
                        node=end,
                    )
                )
        for name in ("drop", "duplicate", "delay_prob"):
            p = getattr(rule, name)
            if not 0.0 <= p <= 1.0:
                out.append(
                    Violation(
                        "fault-schedule",
                        f"rule {ridx} {name}={p} outside [0, 1]",
                    )
                )
    return out


def check_replication(num_nodes: int, replication: int) -> List[Violation]:
    """Replica-group structure for an ``s``-way replicated cluster.

    ``replication``
        ``s >= 1``, ``s`` divides ``m``, and the one slot map the drivers
        read (:class:`~repro.faults.SlotMap`) gives every logical slot
        exactly ``s`` physical replicas, each mapping back to it (the §V
        layout: ``p ↦ p mod m/s``).
    """
    try:
        slots = SlotMap(num_nodes, replication)
    except ValueError as err:
        return [Violation("replication", str(err))]
    out: List[Violation] = []
    for slot, replicas in enumerate(slots.physical):
        if len(replicas) != replication or any(
            not 0 <= p < num_nodes or slots.logical(p) != slot for p in replicas
        ):
            out.append(
                Violation(
                    "replication",
                    f"slot {slot} replicas {list(replicas)} do not all map back "
                    f"to slot {slot}",
                    node=slot,
                )
            )
    return out


def check_sequence_numbers(fabric) -> List[Violation]:
    """Post-run audit of the fabric's per-link sequence counters.

    ``seq-dedupe``
        Counter keys use canonical phases and positive counts, and every
        cached retransmission entry carries a sequence number below its
        link counter — the property receiver dedupe relies on.
    """
    out: List[Violation] = []
    counters = getattr(fabric, "_seq_counters", {})
    for (src, dst, phase, layer), count in counters.items():
        if phase not in ("config", "down", "up"):
            out.append(
                Violation(
                    "seq-dedupe",
                    f"link ({src}->{dst}) counter keyed on non-canonical "
                    f"phase {phase!r}",
                    node=src,
                    layer=layer,
                )
            )
        if count <= 0:
            out.append(
                Violation(
                    "seq-dedupe",
                    f"link ({src}->{dst}) counter is {count}, expected >= 1",
                    node=src,
                    layer=layer,
                )
            )
    for (src, dst, _tag), entry in getattr(fabric, "_sent_cache", {}).items():
        seq = entry[4]
        matching = [
            count
            for (s, d, _p, _l), count in counters.items()
            if s == src and d == dst
        ]
        if not matching or seq >= max(matching):
            out.append(
                Violation(
                    "seq-dedupe",
                    f"cached payload ({src}->{dst}) has seq {seq} outside "
                    "any link counter",
                    node=src,
                )
            )
    return out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def verify_all(topo, plans: Mapping[int, object]) -> List[Violation]:
    """Topology + plan invariants in one report."""
    return check_topology(topo) + check_plans(topo, plans)


def format_report(violations: Iterable[Violation]) -> str:
    lines = [str(v) for v in violations]
    if not lines:
        return "all invariants hold"
    return "\n".join(lines)


def assert_valid(topo, plans: Mapping[int, object]) -> None:
    """Raise :class:`ProtocolInvariantError` if any invariant fails."""
    violations = verify_all(topo, plans)
    if violations:
        raise ProtocolInvariantError(
            f"{len(violations)} protocol invariant violation(s):\n"
            + format_report(violations),
            invariant=violations[0].invariant,
        )
