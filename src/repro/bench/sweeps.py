"""Degree-stack sweeps: exhaustive topology search for validation.

The §IV workflow picks a degree stack analytically.  The simulator lets
us check that choice *empirically*: enumerate every ordered factorisation
of the cluster size, time each as an allreduce network on the same
dataset and fabric, and see where the workflow's pick lands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..data import Dataset
from . import calibration as cal
from .reporting import format_seconds, format_table

__all__ = ["all_degree_stacks", "sweep_degree_stacks", "SweepResult"]


def all_degree_stacks(m: int, *, max_stacks: int = 500) -> List[Tuple[int, ...]]:
    """Every ordered factorisation of ``m`` into factors >= 2.

    ``m = 1`` yields ``[(1,)]``.  Stacks are returned sorted by layer
    count then lexicographically descending, so shallow/wide stacks come
    first.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return [(1,)]

    out: List[Tuple[int, ...]] = []

    def rec(rest: int, prefix: Tuple[int, ...]):
        if len(out) >= max_stacks:
            return
        if rest == 1:
            out.append(prefix)
            return
        for d in range(rest, 1, -1):
            if rest % d == 0:
                rec(rest // d, prefix + (d,))

    rec(m, ())
    return sorted(set(out), key=lambda s: (len(s), tuple(-d for d in s)))


@dataclass
class SweepRow:
    degrees: Tuple[int, ...]
    config_s: float
    reduce_s: float

    @property
    def total_s(self) -> float:
        return self.config_s + self.reduce_s


@dataclass
class SweepResult:
    dataset: str
    rows: List[SweepRow]  # sorted fastest-first
    workflow_pick: Tuple[int, ...]

    @property
    def best(self) -> SweepRow:
        return self.rows[0]

    def rank_of(self, degrees: Sequence[int]) -> int:
        """1-based position of a stack in the fastest-first ordering."""
        key = tuple(degrees)
        for i, row in enumerate(self.rows, start=1):
            if row.degrees == key:
                return i
        raise KeyError(f"stack {key} not in sweep")

    def gap_of(self, degrees: Sequence[int]) -> float:
        """Slowdown of a stack relative to the empirical best (1.0 = best)."""
        key = tuple(degrees)
        row = next(r for r in self.rows if r.degrees == key)
        return row.total_s / self.best.total_s

    def table(self, top: int = 10) -> str:
        rows = [
            (
                "x".join(map(str, r.degrees)),
                format_seconds(r.config_s),
                format_seconds(r.reduce_s),
                format_seconds(r.total_s),
                "<- workflow pick" if r.degrees == self.workflow_pick else "",
            )
            for r in self.rows[:top]
        ]
        if all(r.degrees != self.workflow_pick for r in self.rows[:top]):
            r = next(x for x in self.rows if x.degrees == self.workflow_pick)
            rows.append(
                (
                    "x".join(map(str, r.degrees)),
                    format_seconds(r.config_s),
                    format_seconds(r.reduce_s),
                    format_seconds(r.total_s),
                    f"<- workflow pick (rank {self.rank_of(r.degrees)})",
                )
            )
        return format_table(
            ["degrees", "config", "reduce", "total", ""],
            rows,
            title=f"Exhaustive degree-stack sweep — {self.dataset} "
            f"({len(self.rows)} stacks)",
        )


def sweep_degree_stacks(
    dataset: Dataset,
    workflow_pick: Sequence[int],
    *,
    reduce_iters: int = 2,
    seed: int = 17,
    max_stacks: int = 200,
) -> SweepResult:
    """Time every degree stack of ``dataset.m`` on the calibrated fabric."""
    rows = [
        SweepRow(
            tuple(degrees), *cal.timed_reduces(dataset, degrees, reduce_iters, seed=seed)[1:]
        )
        for degrees in all_degree_stacks(dataset.m, max_stacks=max_stacks)
    ]
    rows.sort(key=lambda r: r.total_s)
    return SweepResult(dataset.name, rows, tuple(workflow_pick))
