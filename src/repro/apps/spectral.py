"""Distributed power iteration (dominant eigenvector) via sparse allreduce.

§I-A-2 lists eigenvalue computation among the matrix-vector-product
algorithms; spectral clustering rests on the same kernel.  The twist over
PageRank is the global normalisation ``v ← Av / ‖Av‖``: the squared norm
is itself computed with the allreduce, using two tricks that showcase the
primitive —

* a one-time *multiplicity* allreduce (in = out = my vertices, values = 1)
  tells each node how many partitions share each of its vertices, so
  per-vertex squares can be contributed with weight ``1/multiplicity``
  and the global sum counts every vertex exactly once;
* a designated *scalar slot* (index ``n``) reduces the norm itself —
  every node contributes its weighted partial and reads the total back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence

import numpy as np

from ..allreduce import ReduceSpec
from ..data import GraphPartition
from .session import one_per_slot

__all__ = ["DistributedPowerIteration", "PowerIterationResult"]


@dataclass
class PowerIterationResult:
    eigenvalue: float
    in_values: Dict[int, np.ndarray]
    iterations: int
    comm_time: float

    def global_vector(self, n_vertices: int, partitions) -> np.ndarray:
        out = np.zeros(n_vertices)
        for p in partitions:
            out[p.in_vertices] = self.in_values[p.rank]
        return out


class DistributedPowerIteration:
    """Power iteration on the (symmetrised) adjacency of a partitioned graph."""

    def __init__(self, net: Any, partitions: Sequence[GraphPartition]):
        self.net = net
        self.partitions = one_per_slot(net, partitions)
        self.net.strict_coverage = False
        self.n = self.partitions[0].n_vertices
        self._matrices = [p.local_matrix().tocsr() for p in self.partitions]

    def run(self, iterations: int = 30, seed: int = 0) -> PowerIterationResult:
        n = self.n
        scalar_slot = np.int64(n)  # one index past the vertices
        t0 = self.net.now

        # vertex multiplicities: how many partitions request each vertex
        mult_spec = ReduceSpec(
            in_indices={p.rank: p.in_vertices for p in self.partitions},
            out_indices={p.rank: p.in_vertices for p in self.partitions},
        )
        self.net.configure(mult_spec)
        mult = self.net.reduce(
            {p.rank: np.ones(p.in_vertices.size) for p in self.partitions}
        )

        # main spec: SpMV route plus the shared scalar slot on both sides
        spec = ReduceSpec(
            in_indices={
                p.rank: np.concatenate([p.in_vertices, [scalar_slot]])
                for p in self.partitions
            },
            out_indices={
                p.rank: np.concatenate([p.out_vertices, [scalar_slot]])
                for p in self.partitions
            },
        )
        self.net.configure(spec)

        rng = np.random.default_rng(seed)
        start = rng.random(n) + 0.1
        v = {p.rank: start[p.in_vertices] for p in self.partitions}
        for _ in range(iterations):
            out_vals = {}
            for p, mat in zip(self.partitions, self._matrices):
                w = mat @ v[p.rank]
                # weighted partial squared-norm of *my inputs* — each vertex
                # is counted exactly once across the cluster
                partial = float(np.sum(v[p.rank] ** 2 / mult[p.rank]))
                out_vals[p.rank] = np.concatenate([w, [partial]])
            reduced = self.net.reduce(out_vals)
            norm_prev = np.sqrt(max(float(reduced[self.partitions[0].rank][-1]), 1e-300))
            for p in self.partitions:
                v[p.rank] = reduced[p.rank][:-1] / norm_prev
        # With the v_k-normalised recurrence v_{k+1} = A v_k / ‖v_k‖ the
        # magnitude converges to the dominant eigenvalue: ‖v_k‖ → λ.
        den = sum(
            float(np.sum(v[p.rank] ** 2 / mult[p.rank])) for p in self.partitions
        )
        eigenvalue = float(np.sqrt(den))
        if eigenvalue > 0:
            for p in self.partitions:
                v[p.rank] = v[p.rank] / eigenvalue  # unit-normalised output
        return PowerIterationResult(
            eigenvalue=eigenvalue,
            in_values=v,
            iterations=iterations,
            comm_time=self.net.now - t0,
        )
