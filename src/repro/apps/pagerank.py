"""Distributed PageRank over Sparse Allreduce (§I-A-2, the Fig 8/9 workload).

Each machine holds a random edge partition ``X_i`` of the adjacency
matrix.  Per iteration, exactly as the paper describes: the machine
acquires the sparse input subset ``v_i`` for the non-zero *columns* of its
share, computes the local product ``w_i = X_i v_i`` (non-zeros on its
rows), and hands ``(in=columns, out=rows)`` to the sparse allreduce; the
reduced values that come back are its slice of the global ``X v``.

Setup needs global out-degrees to column-normalise the matrix — also
computed with a sparse allreduce (each partition contributes its local
source counts), so the whole algorithm runs on the primitive under test.

The update is ``v' = (1-c)/n + c · A v`` with the damping factor ``c``
(the paper writes the equivalent ``v' = 1/n + ((n-1)/n) X v`` form).
Per-iteration compute and communication times are tracked separately for
the Fig 9 breakdown, in the session's seconds: simulated ones on the
simulator, where the SpMV's modelled cost is charged to the cluster's
clock, and wall-clock ones on a real backend, where the SpMV's own run
time is the compute time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..allreduce import KylixAllreduce, ReduceSpec
from ..data import GraphPartition
from .session import one_per_slot

__all__ = ["DistributedPageRank", "PageRankResult", "reference_pagerank", "spmv_cost_bytes"]


def spmv_cost_bytes(n_edges: int, in_size: int, out_size: int) -> float:
    """Memory footprint of one local compact SpMV.

    CSR traversal touches each edge's (index, value) plus the input and
    output vectors; used with the cluster compute rate to charge simulated
    compute time.
    """
    return 16.0 * n_edges + 8.0 * (in_size + out_size)


@dataclass
class IterationTiming:
    compute: float
    comm: float

    @property
    def total(self) -> float:
        return self.compute + self.comm


@dataclass
class PageRankResult:
    """Converged in-vector slices plus per-iteration timing breakdown."""

    in_values: Dict[int, np.ndarray]  # rank -> values aligned with in_vertices
    iterations: List[IterationTiming] = field(default_factory=list)
    config_time: float = 0.0

    @property
    def mean_compute(self) -> float:
        return float(np.mean([t.compute for t in self.iterations])) if self.iterations else 0.0

    @property
    def mean_comm(self) -> float:
        return float(np.mean([t.comm for t in self.iterations])) if self.iterations else 0.0

    @property
    def mean_iteration(self) -> float:
        return self.mean_compute + self.mean_comm


class DistributedPageRank:
    """PageRank over an allreduce session, parameterised by its topology.

    Parameters
    ----------
    net:
        The allreduce session (:mod:`repro.apps.session`), e.g.
        ``KylixAllreduce(cluster, [8, 4, 2])`` or ``TcpKylix([4, 2])``;
        its slot count must equal the partition count.
    partitions:
        Random edge partitions (one per rank).
    damping:
        The damping factor ``c`` (0.85 conventional).
    compute_scale:
        Multiplier on the simulated SpMV cost — baselines that lack
        accelerated kernels (PowerGraph's GAS engine vs BIDMat+MKL) model
        their slower per-edge processing here.  A real backend times the
        SpMV itself and ignores it.
    """

    def __init__(
        self,
        net: Any,
        partitions: Sequence[GraphPartition],
        *,
        damping: float = 0.85,
        compute_scale: float = 1.0,
    ):
        if not 0 < damping < 1:
            raise ValueError("damping must lie in (0, 1)")
        self.net = net
        self.partitions = one_per_slot(net, partitions)
        self.damping = damping
        self.compute_scale = compute_scale
        # Only the simulator's clock needs the SpMV charged to it.
        self._cluster = net.cluster if isinstance(net, KylixAllreduce) else None
        # Vertices with no in-edges anywhere are legitimately absent from
        # every out-set; the teleport term supplies their mass.
        self.net.strict_coverage = False
        self.n = self.partitions[0].n_vertices if self.partitions else 0
        self._matrices = None
        self._spec: Optional[ReduceSpec] = None

    # -- setup ------------------------------------------------------------
    def setup(self) -> float:
        """Degree allreduce + column-normalised local matrices + config.

        Returns the session seconds spent (config cost, Fig 6's left bars).
        """
        start = self.net.now
        # 1. global out-degrees of each partition's in (source) vertices.
        deg_spec = ReduceSpec(
            in_indices={p.rank: p.in_vertices for p in self.partitions},
            out_indices={p.rank: p.in_vertices for p in self.partitions},
        )
        counts = {}
        for p in self.partitions:
            c = np.zeros(p.in_vertices.size)
            src_compact = np.searchsorted(p.in_vertices, p.src)
            np.add.at(c, src_compact, 1.0)
            counts[p.rank] = c
        self.net.configure(deg_spec)
        degrees = self.net.reduce(counts)
        # 2. compact local matrices, columns scaled by 1/deg.
        self._matrices = []
        for p in self.partitions:
            mat = p.local_matrix()
            deg = degrees[p.rank]
            inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
            mat = mat @ _diag(inv)
            self._matrices.append(mat.tocsr())
        # 3. configure the SpMV allreduce (in=sources, out=destinations).
        self._spec = ReduceSpec(
            in_indices={p.rank: p.in_vertices for p in self.partitions},
            out_indices={p.rank: p.out_vertices for p in self.partitions},
        )
        self.net.configure(self._spec)
        return self.net.now - start

    # -- iteration ------------------------------------------------------------
    def run(self, iterations: int = 10) -> PageRankResult:
        if self._spec is None:
            config_time = self.setup()
        else:
            config_time = 0.0
        n = self.n
        v = {
            p.rank: np.full(p.in_vertices.size, 1.0 / n) for p in self.partitions
        }
        timings: List[IterationTiming] = []
        for _ in range(iterations):
            # local SpMV on every node, concurrently
            t0 = self.net.now
            w = {p.rank: mat @ v[p.rank] for p, mat in zip(self.partitions, self._matrices)}
            t_compute = self.net.now - t0
            if self._cluster is not None:
                t_compute = self._cluster.parallel_compute({
                    p.rank: self.compute_scale
                    * spmv_cost_bytes(p.n_edges, p.in_vertices.size, p.out_vertices.size)
                    / self._cluster.compute_rate
                    for p in self.partitions
                })
            # sparse allreduce of the products
            t0 = self.net.now
            reduced = self.net.reduce(w)
            t_comm = self.net.now - t0
            # damped update on the in-slices
            for p in self.partitions:
                v[p.rank] = (1.0 - self.damping) / n + self.damping * reduced[p.rank]
            timings.append(IterationTiming(t_compute, t_comm))
            self._last_products = w  # products of the pre-update vector
        return PageRankResult(in_values=v, iterations=timings, config_time=config_time)

    def global_vector(self, result: PageRankResult) -> np.ndarray:
        """Assemble the full PageRank vector (testing/inspection only).

        Vertices in nobody's in-set (no out-edges) hold the pure teleport
        mass plus damping of their reduced in-flow — recomputed locally.
        """
        out = np.full(self.n, np.nan)
        for p in self.partitions:
            out[p.in_vertices] = result.in_values[p.rank]
        # Vertices never requested: value = (1-c)/n + c*(A v_prev)[vertex],
        # reconstructed from the stored pre-update products (test helper).
        missing = np.isnan(out)
        if missing.any():
            # Use the products of the *pre-update* vector so missing
            # vertices land on the same iterate as everyone else.
            w = self._last_products
            from ..allreduce import dense_reduce

            full = dense_reduce(
                ReduceSpec(
                    in_indices={p.rank: np.flatnonzero(missing) for p in self.partitions},
                    out_indices=self._spec.out_indices,
                ),
                w,
            )
            first = self.partitions[0].rank
            out[missing] = (1.0 - self.damping) / self.n + self.damping * full[first]
        return out


def _diag(values: np.ndarray):
    from scipy.sparse import diags

    return diags(values)


def reference_pagerank(
    adjacency, damping: float = 0.85, iterations: int = 10
) -> np.ndarray:
    """Single-machine reference: same formula, dense/CSR arithmetic.

    ``adjacency`` is the CSR with A[dst, src] = 1 (see EdgeGraph.to_csr).
    """
    from scipy.sparse import diags

    n = adjacency.shape[0]
    deg = np.asarray(adjacency.sum(axis=0)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    norm = (adjacency @ diags(inv)).tocsr()
    v = np.full(n, 1.0 / n)
    for _ in range(iterations):
        v = (1.0 - damping) / n + damping * (norm @ v)
    return v
