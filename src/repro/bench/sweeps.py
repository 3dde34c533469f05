"""Degree-stack sweeps: exhaustive topology search for validation.

The §IV workflow picks a degree stack analytically.  The simulator lets
us check that choice *empirically*: enumerate every ordered factorisation
of the cluster size, time each as an allreduce network on the same
dataset and fabric, and see where the workflow's pick lands.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..data import Dataset
from . import calibration as cal
from .reporting import Table, format_seconds, format_stack

__all__ = ["all_degree_stacks", "sweep_degree_stacks"]


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


def sweep_degree_stacks(
    dataset: Dataset,
    workflow_pick: Sequence[int],
    *,
    reduce_iters: int = 2,
    seed: int = 17,
    max_stacks: int = 200,
) -> Table:
    """Time every degree stack of ``dataset.m`` on the calibrated fabric.

    One row per stack, fastest first, with its ``rank`` (1 = fastest) and
    ``gap`` (its total over the fastest total; 1.0 = best); the workflow
    pick's row is marked.
    """
    pick = tuple(workflow_pick)
    rows = []
    for degrees in all_degree_stacks(dataset.m, max_stacks=max_stacks):
        _, config_s, reduce_s = cal.timed_reduces(dataset, degrees, reduce_iters, seed=seed)
        rows.append(
            {"degrees": degrees, "config_s": config_s, "reduce_s": reduce_s,
             "total_s": config_s + reduce_s,
             "pick": "<- workflow pick" if degrees == pick else ""}
        )
    rows.sort(key=lambda r: r["total_s"])
    for rank, row in enumerate(rows, start=1):
        row["rank"], row["gap"] = rank, row["total_s"] / rows[0]["total_s"]
    return Table(
        f"Exhaustive degree-stack sweep — {dataset.name} ({len(rows)} stacks)",
        [
            ("degrees", "degrees", format_stack),
            ("config_s", "config", format_seconds),
            ("reduce_s", "reduce", format_seconds),
            ("total_s", "total", format_seconds),
            ("pick", "", str),
        ],
        rows,
    )
