"""Static invariants of the Kylix topology and its fault layers (PAPER.md §III, §V).

Every function here inspects *data* — a :class:`ButterflyTopology` or a
replica layout — and never runs a reduction.  Violations are collected
rather than raised so a broken configuration reports every problem at
once.  A plan itself is checked by the certifier's replay
(:func:`repro.verify.flow.analyze_flow`), not here; :class:`Violation`
and :func:`format_report` are shared with it.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..faults.ladder import SlotMap
from ..sparse.partition import ranges_tile

__all__ = [
    "Violation",
    "check_topology",
    "check_replication",
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
# Fault-tolerance invariants
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def format_report(violations: Iterable[Violation]) -> str:
    lines = [str(v) for v in violations]
    if not lines:
        return "all invariants hold"
    return "\n".join(lines)

