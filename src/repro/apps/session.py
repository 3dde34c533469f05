"""What every application asks of its allreduce session.

An application takes ``net``, a session that speaks ``configure(spec)``,
``reduce(values)``, ``allreduce_combined(spec, values)``, ``size`` (its
logical slots), ``strict_coverage`` and ``now`` (seconds on the
session's clock).  :class:`~repro.allreduce.KylixAllreduce` is one on the
simulator (simulated seconds); :class:`~repro.net.local.LocalKylix`,
:class:`~repro.net.tcp.TcpKylix` and :class:`~repro.net.cluster.ClusterKylix`
are one on real processes (wall-clock seconds).  ``docs/api.md`` has the
table.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from ..allreduce import ReduceSpec

__all__ = ["one_per_slot", "reduce_pattern", "local_graph", "fixpoint_rounds"]


def one_per_slot(net: Any, items: Sequence, what: str = "partition") -> List:
    """``items`` as a list, checked to hold one entry per logical slot of
    ``net``."""
    items = list(items)
    if len(items) != net.size:
        raise ValueError(
            f"need one {what} per logical allreduce slot ({net.size}), got {len(items)}"
        )
    return items


def reduce_pattern(
    net: Any, spec: ReduceSpec, values: Mapping[int, np.ndarray], *, combined: bool
) -> Dict[int, np.ndarray]:
    """One reduction over a pattern that may change on every call: with
    combined messages (§III) or a configure followed by a reduce."""
    if combined:
        return net.allreduce_combined(spec, values)
    net.configure(spec)
    return net.reduce(values)


def local_graph(partitions) -> Tuple[Dict[int, np.ndarray], Dict[int, Tuple]]:
    """Each graph partition's touched vertices (edge sources and
    destinations, sorted) and its edges as ``(src, dst)`` positions into
    them, by rank."""
    touched = {p.rank: np.union1d(p.src, p.dst).astype(np.int64) for p in partitions}
    edges = {
        p.rank: (np.searchsorted(touched[p.rank], p.src),
                 np.searchsorted(touched[p.rank], p.dst))
        for p in partitions
    }
    return touched, edges


def fixpoint_rounds(
    net: Any,
    touched: Mapping[int, np.ndarray],
    values: Dict[int, np.ndarray],
    relax: Callable[[int, np.ndarray], np.ndarray],
    max_rounds: int,
    **spec_options: Any,
) -> Iterator[Dict[int, np.ndarray]]:
    """Reduce to a fixpoint: configure one spec over the ``touched`` sets
    (``spec_options`` give its operator, dtype, value shape), then each
    round reduces every rank's ``relax(rank, values[rank])`` and yields
    the reduced values.  Stops after the round that changed nothing, or
    after ``max_rounds``."""
    net.configure(
        ReduceSpec(in_indices=dict(touched), out_indices=dict(touched), **spec_options)
    )
    for _ in range(max_rounds):
        reduced = net.reduce({r: relax(r, v) for r, v in values.items()})
        yield reduced
        if all(np.array_equal(reduced[r], values[r]) for r in values):
            return
        values = reduced
