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

from typing import Any, Dict, List, Mapping, Sequence

import numpy as np

from ..allreduce import ReduceSpec

__all__ = ["one_per_slot", "reduce_pattern"]


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
