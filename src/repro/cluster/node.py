"""Per-node façade used by protocol code.

A protocol is written as a generator function taking a :class:`SimNode`;
the node object provides the only operations protocols may perform:
sending, receiving, and charging compute time.  Payload byte counts are
inferred from the payload when possible, so protocol code stays close to
the pseudocode in the paper.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

__all__ = ["SimNode", "payload_nbytes"]


def payload_nbytes(payload: Any) -> int:
    """Wire size of a payload: SparseVector, ndarray, tuple-of-those, bytes."""
    if payload is None:
        return 0
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(p) for p in payload)
    if isinstance(payload, dict):
        return sum(payload_nbytes(p) for p in payload.values())
    if isinstance(payload, (int, float)):
        return 8
    raise TypeError(f"cannot infer wire size of {type(payload).__name__}; pass nbytes")


class SimNode:
    """Handle for protocol code running on simulated node ``rank``."""

    __slots__ = ("cluster", "rank")

    def __init__(self, cluster, rank: int):
        self.cluster = cluster
        self.rank = rank

    # -- environment -----------------------------------------------------
    @property
    def engine(self):
        return self.cluster.engine

    @property
    def now(self) -> float:
        return self.cluster.engine.now

    @property
    def num_nodes(self) -> int:
        return self.cluster.num_nodes

    @property
    def alive(self) -> bool:
        return self.cluster.is_alive(self.rank)

    # -- communication -----------------------------------------------------
    def send(
        self,
        dst: int,
        payload: Any,
        *,
        nbytes: Optional[int] = None,
        tag: Any = None,
        phase: str = "",
        layer: int = -1,
    ) -> None:
        """Asynchronous send (the paper's opportunistic messaging)."""
        if nbytes is None:
            nbytes = payload_nbytes(payload)
        self.cluster.fabric.send(
            self.rank, dst, payload, nbytes, tag=tag, phase=phase, layer=layer
        )

    def recv(self, *, tag: Any = None, src: Optional[int] = None):
        """Event yielding the next matching :class:`Message`."""
        return self.cluster.fabric.recv(self.rank, tag=tag, src=src)

    def recv_all(self, count: int, *, tag: Any, slot_of: Callable[[int], int]):
        """Event yielding ``count`` messages with this tag, one per slot.

        Matches the "receive from all d_i neighbours" step as a single
        wait: ``slot_of(src)`` maps a sender to its slot in the returned
        list, the first copy per slot wins and the process wakes once,
        when the last slot fills (see :meth:`Fabric.recv_all`).
        """
        return self.cluster.fabric.recv_all(
            self.rank, count, tag=tag, slot_of=slot_of
        )

    # -- compute -----------------------------------------------------------
    def compute(self, seconds: float):
        """Charge ``seconds`` of local computation (at nominal speed).

        Heterogeneous clusters stretch the charge by the node's speed
        multiplier: a 0.5-speed machine takes twice the simulated time.
        """
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        actual = seconds / self.cluster.node_speeds[self.rank]
        self.cluster.compute_seconds[self.rank] += actual
        return self.engine.timeout(actual)

    def compute_bytes(self, nbytes: float):
        """Charge memory-bound work that touches ``nbytes`` bytes.

        Merging, scatter-adds and slicing are all bandwidth-bound; the
        cluster's ``compute_rate`` (bytes/s) converts footprint to time.
        """
        return self.compute(nbytes / self.cluster.compute_rate)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SimNode({self.rank}/{self.num_nodes})"
