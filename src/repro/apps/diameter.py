"""HADI-style effective diameter estimation with bit-string OR-allreduce.

§I-A-2 cites the diameter estimation algorithm of Kang et al. (HADI):
"the probabilistic bit-string vector is updated using matrix-vector
multiplications."  Each vertex carries ``K`` Flajolet–Martin registers
(uint64 words); hop ``h``'s sketch is the bitwise OR of hop ``h-1``
sketches over in-neighbours plus itself.  The number of vertices within
``h`` hops is estimated from the position of the lowest zero bit, and the
effective diameter is the smallest ``h`` reaching 90% of the saturated
neighbourhood mass.

This workload exercises the allreduce with multi-word integer values and
the ``or`` reduction operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

import numpy as np

from ..data import GraphPartition
from .session import fixpoint_rounds, local_graph, one_per_slot

__all__ = ["DistributedDiameter", "DiameterResult", "fm_sketch", "fm_estimate"]

_PHI = 0.77351  # Flajolet–Martin correction constant


def fm_sketch(n_items: int, registers: int, rng: np.random.Generator) -> np.ndarray:
    """Initial FM bit-strings: one geometric bit per (item, register).

    Returns a ``(n_items, registers)`` uint64 array; bit ``b`` is set with
    probability ``2^-(b+1)``.
    """
    u = rng.random((n_items, registers))
    # bit index = floor(-log2(u)) capped at 62
    bits = np.minimum(np.floor(-np.log2(np.maximum(u, 1e-300))).astype(np.uint64), 62)
    return (np.uint64(1) << bits).astype(np.uint64)


def fm_estimate(sketches: np.ndarray) -> np.ndarray:
    """FM cardinality estimate per row from ``(rows, K)`` uint64 sketches."""
    rows, k = sketches.shape
    # lowest zero bit position, averaged across registers
    filled = np.ones((rows, k), dtype=bool)
    pos = np.zeros((rows, k))
    for bit in range(63):
        mask = (sketches >> np.uint64(bit)) & np.uint64(1)
        hit = (mask == 0) & filled
        pos[hit] = bit
        filled &= ~hit
    pos[filled] = 63
    return (2.0 ** pos.mean(axis=1)) / _PHI


@dataclass
class DiameterResult:
    neighbourhood: List[float]  # N(h): estimated reachable pairs per hop
    effective_diameter: int
    rounds: int
    comm_time: float


class DistributedDiameter:
    """Effective-diameter estimation over a partitioned directed graph."""

    def __init__(
        self,
        net: Any,
        partitions: Sequence[GraphPartition],
        *,
        registers: int = 8,
        seed: int = 0,
    ):
        if registers <= 0:
            raise ValueError("registers must be positive")
        self.net = net
        self.partitions = one_per_slot(net, partitions)
        self.registers = registers
        self.seed = seed
        self._touched, self._edges = local_graph(self.partitions)

    def _relax(self, rank: int, sketch: np.ndarray) -> np.ndarray:
        src_c, dst_c = self._edges[rank]
        s = sketch.copy()
        np.bitwise_or.at(s, dst_c, sketch[src_c])
        return s

    def run(self, max_hops: int = 64, threshold: float = 0.9) -> DiameterResult:
        n = self.partitions[0].n_vertices
        # Identical seeding across partitions: vertex v's initial sketch is
        # the same wherever it is touched (drawn from a v-keyed stream).
        root = np.random.default_rng(self.seed)
        base = fm_sketch(n, self.registers, root)

        t0 = self.net.now
        sketch = {r: base[t] for r, t in self._touched.items()}
        history: List[float] = [float(np.sum(fm_estimate(base)))]
        rounds = 0
        for sketch in fixpoint_rounds(
            self.net, self._touched, sketch, self._relax, max_hops,
            value_shape=(self.registers,), dtype=np.uint64, op="or",
        ):
            rounds += 1
            # global neighbourhood estimate (driver-side, from a full view)
            full = base.copy()
            for p in self.partitions:
                full[self._touched[p.rank]] = sketch[p.rank]
            history.append(float(np.sum(fm_estimate(full))))
        # effective diameter: first h where N(h) >= threshold * N(max)
        target = threshold * history[-1]
        eff = next(h for h, v in enumerate(history) if v >= target)
        return DiameterResult(
            neighbourhood=history,
            effective_diameter=eff,
            rounds=rounds,
            comm_time=self.net.now - t0,
        )
