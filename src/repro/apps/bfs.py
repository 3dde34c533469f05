"""Breadth-first search distances via min-plus sparse allreduce rounds.

Unweighted single-source shortest paths: each round relaxes
``dist[dst] = min(dist[dst], dist[src] + 1)`` along local edges, then a
*min*-allreduce reconciles distances across partitions.  The number of
global rounds is bounded by the graph's eccentricity from the source
divided by the local relaxation depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence

import numpy as np

from ..data import GraphPartition
from .session import fixpoint_rounds, local_graph, one_per_slot

__all__ = ["DistributedBFS", "BFSResult"]

UNREACHED = np.inf


@dataclass
class BFSResult:
    distances: Dict[int, np.ndarray]  # rank -> dist aligned with touched set
    rounds: int
    comm_time: float

    def global_distances(self, n_vertices: int, partitions) -> np.ndarray:
        out = np.full(n_vertices, UNREACHED)
        for p in partitions:
            touched = np.union1d(p.src, p.dst)
            out[touched] = np.minimum(out[touched], self.distances[p.rank])
        return out


class DistributedBFS:
    """Single-source BFS over directed edges, one partition per node."""

    def __init__(self, net: Any, partitions: Sequence[GraphPartition]):
        self.net = net
        self.partitions = one_per_slot(net, partitions)
        self._touched, self._edges = local_graph(self.partitions)

    def _relax(self, rank: int, dist: np.ndarray) -> np.ndarray:
        d = dist.copy()
        src_c, dst_c = self._edges[rank]
        # local Bellman-Ford sweeps to a fixpoint
        for _ in range(len(d)):
            before = d.copy()
            np.minimum.at(d, dst_c, d[src_c] + 1.0)
            if np.array_equal(before, d):
                break
        return d

    def run(self, source: int, max_rounds: int = 10_000) -> BFSResult:
        t0 = self.net.now
        dist = {}
        for r, touched in self._touched.items():
            d = np.full(touched.size, UNREACHED)
            pos = np.searchsorted(touched, source)
            if pos < touched.size and touched[pos] == source:
                d[pos] = 0.0
            dist[r] = d
        rounds = 0
        for dist in fixpoint_rounds(
            self.net, self._touched, dist, self._relax, max_rounds, op="min"
        ):
            rounds += 1
        return BFSResult(distances=dist, rounds=rounds, comm_time=self.net.now - t0)
