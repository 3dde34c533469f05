"""Degraded-completion accounting.

When a key range is unrecoverable — every replica of a slot dead, or
retries exhausted — the protocols can still finish with the surviving
data.  The :class:`CoverageReport` is the honest receipt for that run:
exactly which raw key indices each rank did *not* receive, which protocol
members were implicated, and what fraction of each rank's requested
``in_i`` was satisfied.  Tests assert the lost-index sets match the
injected unrecoverable ranges bit-for-bit, so this is an oracle, not a
log line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

__all__ = ["LossRecord", "CoverageReport", "lost_outside_bound", "exact_outside_lost"]


@dataclass(frozen=True)
class LossRecord:
    """One observed loss event: ``rank`` missed data via ``member``."""

    rank: int
    member: int
    phase: str
    layer: int


@dataclass
class CoverageReport:
    """What a degraded allreduce actually delivered.

    Attributes
    ----------
    total_ranks:
        Cluster size the protocol ran over.
    in_sizes:
        Per-rank requested input-index counts (``len(in_i)``).
    lost_indices:
        Per-rank sorted arrays of raw key ids whose reduced values never
        arrived (the corresponding output entries hold the reduction
        identity).  Ranks with full coverage are omitted.
    dead_members:
        Protocol members (logical slots or physical nodes) implicated in
        at least one loss.
    losses:
        Individual loss events, for diagnosing *where* coverage broke.
    """

    total_ranks: int
    in_sizes: Dict[int, int]
    lost_indices: Dict[int, np.ndarray] = field(default_factory=dict)
    dead_members: Tuple[int, ...] = ()
    losses: Tuple[LossRecord, ...] = ()

    @classmethod
    def from_losses(
        cls,
        spec,
        size: int,
        lost: Mapping[int, np.ndarray],
        losses: Iterable[LossRecord],
    ) -> "CoverageReport":
        """The report of one run of ``spec`` over ``size`` ranks, from what
        the run observed: per-rank lost raw indices and its loss events.
        Every backend builds its report here, so equal observations give
        equal reports."""
        losses = tuple(losses)
        return cls(
            total_ranks=size,
            in_sizes={r: len(spec.in_indices[r]) for r in range(size)},
            lost_indices=lost,
            dead_members=tuple(e.member for e in losses),
            losses=losses,
        )

    def __post_init__(self):
        self.lost_indices = {
            int(r): np.unique(np.asarray(ix, dtype=np.int64))
            for r, ix in self.lost_indices.items()
            if len(ix)
        }
        self.dead_members = tuple(sorted(set(int(m) for m in self.dead_members)))

    # -- the three quantities the issue names ------------------------------
    @property
    def complete(self) -> bool:
        return not self.lost_indices

    @property
    def affected_ranks(self) -> List[int]:
        return sorted(self.lost_indices)

    def satisfied_fraction(self, rank: int) -> float:
        """Fraction of ``in_i`` that received its reduced value."""
        total = self.in_sizes.get(rank, 0)
        if total == 0:
            return 1.0
        return 1.0 - len(self.lost_indices.get(rank, ())) / total

    @property
    def min_satisfied_fraction(self) -> float:
        return min(
            (self.satisfied_fraction(r) for r in range(self.total_ranks)),
            default=1.0,
        )

    def lost_ranges(self) -> List[Tuple[int, int]]:
        """Lost raw-key ids across all ranks, merged into [lo, hi) runs."""
        if not self.lost_indices:
            return []
        union = np.unique(np.concatenate(list(self.lost_indices.values())))
        breaks = np.flatnonzero(np.diff(union) > 1)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [union.size - 1]))
        return [(int(union[s]), int(union[e]) + 1) for s, e in zip(starts, ends)]

    def lost_union(self) -> np.ndarray:
        """Sorted union of lost raw-key ids across all ranks."""
        if not self.lost_indices:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(list(self.lost_indices.values())))

    def summary(self) -> str:
        if self.complete:
            return f"coverage complete: all {self.total_ranks} ranks satisfied"
        ranges = ", ".join(f"[{lo},{hi})" for lo, hi in self.lost_ranges())
        worst = self.min_satisfied_fraction
        return (
            f"coverage degraded: {len(self.affected_ranks)}/{self.total_ranks} "
            f"ranks affected, lost key ranges {ranges}, "
            f"dead members {list(self.dead_members)}, "
            f"worst satisfied fraction {worst:.4f}"
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"CoverageReport<{self.summary()}>"


def lost_outside_bound(
    lost_indices: Mapping[int, np.ndarray],
    bound_for: Callable[[int], Optional[np.ndarray]],
) -> Dict[int, np.ndarray]:
    """Per rank (ascending), the lost indices *outside* its static
    worst-case set ``bound_for(rank)`` (``None`` = nothing may be lost).
    Empty means the run stayed inside the bound — the gate every degraded
    run is held to (:func:`~repro.verify.flow.worst_case_loss`)."""
    outside: Dict[int, np.ndarray] = {}
    for rank, lost in sorted(lost_indices.items()):
        bound = bound_for(rank)
        extra = np.setdiff1d(
            np.asarray(lost, dtype=np.int64),
            bound if bound is not None else np.empty(0, dtype=np.int64),
        )
        if extra.size:
            outside[int(rank)] = extra
    return outside


def exact_outside_lost(got, reference, in_indices, lost) -> bool:
    """Does ``got`` equal ``reference`` on every position of ``in_indices``
    not reported ``lost``?  A degraded run owes exactly this: what it did
    not report lost is exact."""
    if lost is None or not len(lost):
        return bool(np.allclose(got, reference, atol=1e-9))
    keep = ~np.isin(np.asarray(in_indices), np.asarray(lost))
    return bool(np.allclose(got[keep], reference[keep], atol=1e-9))
