"""Connected components by min-label propagation over sparse allreduce.

§I-A-2: "Connected components, breadth-first search, and eigenvalues can
be computed from such matrix-vector products."  Label propagation is the
matrix-vector product over the (min, +0) semiring: every vertex repeatedly
adopts the minimum label among itself and its neighbours; fixpoint labels
identify weakly-connected components.

Each round is one *min*-allreduce: a node locally relaxes labels along its
edges (both directions — components are about undirected connectivity),
contributes the relaxed labels of every vertex it touches, and receives
the global minimum for those vertices.  Convergence is detected by the
driver when no node observed a change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence

import numpy as np

from ..data import GraphPartition
from .session import fixpoint_rounds, local_graph, one_per_slot

__all__ = ["DistributedComponents", "ComponentsResult"]


@dataclass
class ComponentsResult:
    labels: Dict[int, np.ndarray]  # rank -> labels aligned with touched vertices
    rounds: int
    comm_time: float

    def global_labels(self, n_vertices: int, partitions) -> np.ndarray:
        """Assemble the label vector; isolated vertices label themselves."""
        out = np.arange(n_vertices, dtype=np.float64)
        for p in partitions:
            touched = np.union1d(p.src, p.dst)
            out[touched] = self.labels[p.rank]
        return out.astype(np.int64)


class DistributedComponents:
    """Weakly-connected components over an allreduce session ``net``."""

    def __init__(self, net: Any, partitions: Sequence[GraphPartition]):
        self.net = net
        self.partitions = one_per_slot(net, partitions)
        self.net.strict_coverage = True  # in == out here, always covered
        self._touched, self._edges = local_graph(self.partitions)

    def _relax(self, rank: int, labels: np.ndarray) -> np.ndarray:
        lab = labels.copy()
        src_c, dst_c = self._edges[rank]
        # undirected relaxation until local fixpoint — cheap and cuts
        # global round count (each round costs an allreduce)
        for _ in range(len(lab)):
            before = lab.copy()
            np.minimum.at(lab, dst_c, lab[src_c])
            np.minimum.at(lab, src_c, lab[dst_c])
            if np.array_equal(before, lab):
                break
        return lab

    def run(self, max_rounds: int = 100) -> ComponentsResult:
        t0 = self.net.now
        labels = {
            r: touched.astype(np.float64) for r, touched in self._touched.items()
        }
        rounds = 0
        for labels in fixpoint_rounds(
            self.net, self._touched, labels, self._relax, max_rounds, op="min"
        ):
            rounds += 1
        return ComponentsResult(
            labels=labels, rounds=rounds, comm_time=self.net.now - t0
        )
