"""Replicated Kylix: fault tolerance via data replication + packet racing (§V).

With replication factor ``s``, the ``m`` physical machines host
``m' = m/s`` *logical* slots: physical node ``p`` is replica ``p // m'``
of logical slot ``p % m'`` (the paper: "data on machine i also appears on
the replicas m+i through i+(s-1)*m").  The butterfly runs over logical
slots; every logical message is sent by each live replica of the source to
*every* replica of the destination, and a receiver uses the first copy
that arrives — **packet racing** — skipping later duplicates.

Consequences reproduced from the paper:

* The protocol completes unless *all* replicas of some slot are dead; with
  ``s = 2`` the expected number of random failures survived is ~``√m`` by
  the birthday paradox.
* Per-node communication rises by up to ``s``×, but racing recovers part
  of it on jittery networks (the minimum of ``s`` latency draws beats the
  mean), so measured overhead is "modest": Table I reports ~25% on config
  and ~60% on reduce, flat in the number of dead nodes (up to 3 tested).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..cluster import Cluster
from ..faults import PeerFailedError
from ..sparse import IndexHasher
from .base import ReduceSpec
from .kylix import KylixAllreduce

__all__ = ["ReplicatedKylix", "expected_failures_survived"]


def expected_failures_survived(num_logical: int, replication: int = 2) -> float:
    """Birthday-paradox estimate of tolerable random failures (§V-A).

    For replication 2 the network survives until two failures land on the
    same replica group: about ``√m`` failures in expectation (the paper's
    figure).  For general ``s`` the generalized birthday bound gives
    ``(s! · m^(s-1))^(1/s) · Γ(1 + 1/s)`` — superlinear gains per extra
    replica.
    """
    if replication < 2:
        return 0.0
    if replication == 2:
        return float(np.sqrt(num_logical))
    from math import factorial, gamma

    s = replication
    return float(
        (factorial(s) * num_logical ** (s - 1)) ** (1.0 / s) * gamma(1.0 + 1.0 / s)
    )


class ReplicatedKylix(KylixAllreduce):
    """Kylix with an ``s``-way replication layer and packet racing.

    The whole mechanism is the slot map (:class:`~repro.faults.SlotMap`)
    with ``s`` replicas per slot, which the simulator driver reads
    everywhere: the send loop fans every part out to all replicas of its
    destination, the receive's slot function folds a replica's copy onto
    its slot (the first copy wins), and a NACK goes to every replica — the
    slot is unrecoverable only when all of them are dead.
    """

    def __init__(
        self,
        cluster: Cluster,
        degrees: Sequence[int],
        *,
        replication: int = 2,
        hasher: Optional[IndexHasher] = None,
        strict_coverage: bool = True,
        retry=None,
        degrade: bool = False,
        name: str = "kylix-rep",
    ):
        self.replication = replication
        super().__init__(
            cluster,
            degrees,
            hasher=hasher,
            strict_coverage=strict_coverage,
            retry=retry,
            degrade=degrade,
            name=name,
        )

    def replicas(self, logical_rank: int) -> list[int]:
        """Physical nodes hosting ``logical_rank``."""
        return list(self.slots.physical[logical_rank])

    # -- result collation ----------------------------------------------------
    def _collation_rank(self, logical_rank: int):
        """The slot's first live replica."""
        for p in self.slots.physical[logical_rank]:
            if self.cluster.is_alive(p):
                return p
        if self._degrade_active():
            # Whole replica group dead: no surviving result; the coverage
            # report marks the slot fully lost instead.
            return None
        raise PeerFailedError(
            f"all {self.replication} replicas of logical slot "
            f"{logical_rank} are dead",
            slot=logical_rank,
        )

    def reduce(self, out_values: Mapping[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """Reduce; returns values keyed by *logical* rank.

        Every live replica computes the full result for its slot; the
        answer for each slot is taken from its first live replica (all
        replicas hold identical values, and :attr:`last_report` — when
        degraded completion is active — accounts the same replica).
        """
        physical = super().reduce(out_values)
        out: Dict[int, np.ndarray] = {}
        for lr in range(self.size):
            phys = self._collation_rank(lr)
            if phys is not None and phys in physical:
                out[lr] = physical[phys]
        return out
