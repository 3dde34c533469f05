"""Random edge partitioning (§II-B) and per-partition allreduce specs.

"For matrix multiply … edge partitioning is more effective for power-law
datasets than vertex partitioning.  Here we will only use random edge
partitioning."  Each of the ``m`` machines receives a uniformly random
share of the edges; its *in* vertex set is the distinct sources it needs
(non-zero columns of its matrix share) and its *out* vertex set the
distinct destinations it produces (non-zero rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..allreduce import ReduceSpec
from .graphs import EdgeGraph

__all__ = ["GraphPartition", "random_edge_partition", "partition_density"]


@dataclass(frozen=True)
class GraphPartition:
    """One machine's share of the edges, plus its derived vertex sets."""

    rank: int
    n_vertices: int
    src: np.ndarray  # edge sources on this machine
    dst: np.ndarray  # edge destinations on this machine
    in_vertices: np.ndarray  # distinct sources (vector entries needed)
    out_vertices: np.ndarray  # distinct destinations (vector entries produced)

    @property
    def n_edges(self) -> int:
        return int(self.src.size)

    @property
    def in_density(self) -> float:
        return self.in_vertices.size / self.n_vertices

    def local_matrix(self, column_values: str = "ones"):
        """Compact local CSR: rows = local out vertices, cols = local in.

        ``(rows, cols)`` are compact ids via searchsorted into the sorted
        vertex sets, so the SpMV operand is ``|out| × |in|`` regardless of
        the global vertex count.
        """
        from scipy.sparse import csr_matrix

        rows = np.searchsorted(self.out_vertices, self.dst)
        cols = np.searchsorted(self.in_vertices, self.src)
        data = np.ones(self.n_edges, dtype=np.float64)
        return csr_matrix(
            (data, (rows, cols)),
            shape=(self.out_vertices.size, self.in_vertices.size),
        )


def random_edge_partition(
    graph: EdgeGraph, m: int, *, seed: int = 0
) -> List[GraphPartition]:
    """Split edges uniformly at random across ``m`` machines."""
    if m <= 0:
        raise ValueError("m must be positive")
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, m, size=graph.n_edges)
    parts = []
    for rank in range(m):
        ids = np.flatnonzero(owner == rank)
        src, dst = graph.src[ids], graph.dst[ids]
        parts.append(
            GraphPartition(
                rank=rank,
                n_vertices=graph.n_vertices,
                src=src,
                dst=dst,
                in_vertices=np.unique(src),
                out_vertices=np.unique(dst),
            )
        )
    return parts


def partition_density(parts: List[GraphPartition]) -> float:
    """Mean in-vertex density over partitions — the paper's ``D₀``.

    (0.21 for the 64-way Twitter partition, 0.035 for Yahoo, §VII.)
    """
    if not parts:
        raise ValueError("no partitions")
    return float(np.mean([p.in_density for p in parts]))


def spmv_spec(parts: List[GraphPartition]) -> ReduceSpec:
    """The PageRank/SpMV allreduce spec: in = sources, out = destinations.

    Coverage requires every requested source vertex to be *some*
    partition's destination; vertices with global in-degree 0 would be
    uncovered, so those are contributed by their hosting partitions with
    zero values — handled by the caller choosing lenient coverage or by
    the PageRank driver's rank-source handling.
    """
    return ReduceSpec(
        in_indices={p.rank: p.in_vertices for p in parts},
        out_indices={p.rank: p.out_vertices for p in parts},
    )


__all__.append("spmv_spec")
