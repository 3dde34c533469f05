"""Static construction of Kylix configuration plans — no simulation.

The configuration pass of :class:`~repro.allreduce.kylix.KylixAllreduce`
runs on the discrete-event cluster; :func:`build_plans` replays exactly
the same structure *synchronously*, layer by layer over all nodes, using
the same primitives (:func:`split_sorted`, :func:`union_with_maps`,
:meth:`ButterflyTopology.group`).  The result is a ``{rank: NodePlan}``
mapping identical to what ``configure()`` produces — without an event
engine, a fabric, or a single simulated message — which makes it cheap
enough to sweep every shipped degree stack in CI: :func:`verify_stack`
checks each with the topology invariants and the certifier's replay
(:func:`repro.verify.flow.analyze_flow`), the one plan checker.

``python -m repro verify`` is the command-line face of this module.
"""

from __future__ import annotations

from math import prod
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..allreduce.base import ReduceSpec
from ..allreduce.core import LayerPlan, NodePlan
from ..allreduce.topology import ButterflyTopology
from ..sparse import IndexHasher, KeyRange, MultiplicativeHasher, split_sorted, union_with_maps
from .flow import analyze_flow
from .invariants import Violation, check_replication, check_topology

__all__ = [
    "build_plans",
    "default_stacks",
    "synthetic_spec",
    "verify_stack",
    "verify_sizes",
]


def build_plans(
    topology: ButterflyTopology,
    spec: ReduceSpec,
    hasher: Optional[IndexHasher] = None,
) -> Dict[int, NodePlan]:
    """Construct every node's :class:`NodePlan` without running anything.

    Mirrors :func:`repro.allreduce.core.down_pass` in config-only mode:
    the same hashing, splits, unions and memoised maps, executed as a
    synchronous sweep (all nodes advance one layer together) instead of
    as processes exchanging messages.  Deliberately a second, independent
    construction: it is the reference the simulated configure and the
    certifier are compared against.  It never lets the in side share the
    out side's arrays (``down_pass`` does where they are equal), so the
    two agreeing is a shared-vs-unshared check.
    """
    hasher = hasher if hasher is not None else MultiplicativeHasher()
    m = topology.num_nodes
    if set(spec.ranks) != set(range(m)):
        raise ValueError(f"spec must cover ranks 0..{m - 1}")

    plans: Dict[int, NodePlan] = {}
    # Per-node evolving state: [out_keys, in_keys, key range].
    state: Dict[int, list] = {}
    for rank in range(m):
        out_keys, out_inv = np.unique(hasher.hash(spec.out_indices[rank]), return_inverse=True)
        in_keys, in_inv = np.unique(hasher.hash(spec.in_indices[rank]), return_inverse=True)
        plans[rank] = NodePlan(
            rank=rank,
            out_inverse=out_inv.astype(np.intp),
            in_inverse=in_inv.astype(np.intp),
            n_out=out_keys.size,
            n_in=in_keys.size,
        )
        state[rank] = [out_keys, in_keys, KeyRange.full(hasher.key_space)]

    for layer in range(1, topology.num_layers + 1):
        d = topology.degrees[layer - 1]
        # Every node cuts its parts against the *current* state before any
        # node advances — the synchronous analogue of the message exchange.
        splits = {
            rank: (
                split_sorted(state[rank][0], state[rank][2], d),
                split_sorted(state[rank][1], state[rank][2], d),
            )
            for rank in range(m)
        }
        advanced: Dict[int, list] = {}
        for rank in range(m):
            group = topology.group(rank, layer)
            pos = topology.position(rank, layer)
            pos_of = {member: q for q, member in enumerate(group)}
            # Member j sends part `pos` (the receiver's position) of its
            # own split; we receive one part per group position q.
            out_parts = [state[j][0][splits[j][0][pos]] for j in group]
            in_parts = [state[j][1][splits[j][1][pos]] for j in group]
            out_union, out_maps = union_with_maps(out_parts)
            in_union, in_maps = union_with_maps(in_parts)
            plans[rank].layers.append(
                LayerPlan(
                    group=group,
                    pos=pos,
                    pos_of=pos_of,
                    out_slices=splits[rank][0],
                    in_slices=splits[rank][1],
                    out_recv_maps=out_maps,
                    in_recv_maps=in_maps,
                    out_union_size=out_union.size,
                    in_union_size=in_union.size,
                    in_prev_size=state[rank][1].size,
                )
            )
            advanced[rank] = [out_union, in_union, state[rank][2].subrange(pos, d)]
        state = advanced

    for rank in range(m):
        out_keys, in_keys, _ = state[rank]
        pos = np.searchsorted(out_keys, in_keys).astype(np.intp)
        clipped = np.minimum(pos, max(out_keys.size - 1, 0))
        hit = (
            (out_keys[clipped] == in_keys)
            if out_keys.size and in_keys.size
            else np.zeros(in_keys.size, dtype=bool)
        )
        plans[rank].bottom_pos = clipped
        plans[rank].bottom_hit = hit
        plans[rank].bottom_out_keys = out_keys
    return plans


# ---------------------------------------------------------------------------
# Stack enumeration and synthetic workloads for the CLI / CI sweep
# ---------------------------------------------------------------------------


def default_stacks(m: int) -> List[List[int]]:
    """The degree stacks worth checking for a cluster of size ``m``.

    Always includes the direct all-to-all ``[m]``; adds the binary
    butterfly for powers of two and every two-layer factorisation
    ``[a, m // a]`` — the shapes §IV's design procedure actually emits.
    """
    if m < 1:
        raise ValueError("cluster size must be >= 1")
    stacks: List[List[int]] = [[m]]
    if m > 1 and m & (m - 1) == 0:
        stacks.append([2] * (m.bit_length() - 1))
    for a in range(2, m):
        if m % a == 0 and a <= m // a:
            for stack in ([a, m // a], [m // a, a]):
                if stack not in stacks:
                    stacks.append(stack)
    return stacks


def synthetic_spec(m: int, *, n: int = 512, seed: int = 0) -> ReduceSpec:
    """A small power-law-flavoured sparse workload covering ``m`` ranks.

    Every rank contributes a strided slice of the feature space (so
    coverage is total) plus a random head-heavy sample — the same shape
    the demo and the property tests use.
    """
    rng = np.random.default_rng(seed)
    in_idx, out_idx = {}, {}
    for r in range(m):
        base = np.arange(r, n, m)
        extra = rng.zipf(1.8, size=max(4, n // (4 * m))) % n
        out_idx[r] = np.unique(np.concatenate([base, extra])).astype(np.int64)
        in_idx[r] = np.unique(rng.choice(n, size=max(2, n // (2 * m)), replace=False))
    return ReduceSpec(in_indices=in_idx, out_indices=out_idx)


def verify_stack(
    m: int,
    degrees: Sequence[int],
    *,
    n: int = 512,
    seed: int = 0,
    hasher: Optional[IndexHasher] = None,
) -> List[Violation]:
    """Build plans for one (size, stack) pair; topology invariants plus the
    certifier's static pass over the plans."""
    if prod(degrees) != m:
        raise ValueError(f"degree stack {list(degrees)} does not factor {m}")
    topo = ButterflyTopology(
        degrees, m, key_space=(hasher.key_space if hasher else 1 << 64)
    )
    spec = synthetic_spec(m, n=n, seed=seed)
    plans = build_plans(topo, spec, hasher)
    return check_topology(topo) + analyze_flow(topo, plans, spec, hasher).violations


def verify_sizes(
    sizes: Sequence[int],
    *,
    n: int = 512,
    seed: int = 0,
    replication: Optional[int] = None,
) -> Dict[str, List[Violation]]:
    """Sweep :func:`default_stacks` for every cluster size; keyed report.

    Keys look like ``"m=16 degrees=4x4"``; an empty list means the stack
    passed every check.  With ``replication=s`` each size is treated as
    ``m`` *physical* machines hosting ``m/s`` logical slots (§V): the
    replica-group structure is checked, and the butterfly invariants run
    over the logical stacks — keys gain an ``s=`` field, e.g.
    ``"m=16 s=2 degrees=4x2"``.
    """
    report: Dict[str, List[Violation]] = {}
    for m in sizes:
        if replication is None:
            for degrees in default_stacks(m):
                key = f"m={m} degrees={'x'.join(map(str, degrees))}"
                report[key] = verify_stack(m, degrees, n=n, seed=seed)
            continue
        s = int(replication)
        group_violations = check_replication(m, s)
        if group_violations or m % s:
            report[f"m={m} s={s}"] = group_violations
            continue
        logical = m // s
        for degrees in default_stacks(logical):
            key = f"m={m} s={s} degrees={'x'.join(map(str, degrees))}"
            report[key] = group_violations + verify_stack(
                logical, degrees, n=n, seed=seed
            )
    return report
