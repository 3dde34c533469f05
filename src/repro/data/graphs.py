"""Sparse graph representation and power-law graph generation.

Graphs are stored as COO edge lists (``src``/``dst`` int64 arrays over
``n`` vertices) — the natural shape for random *edge partitioning*, which
the paper uses throughout ("here we will only use random edge
partitioning", §II-B).  Generators produce "natural graphs" whose in/out
degree distributions follow the power laws the paper targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .powerlaw import zipf_sample

__all__ = ["EdgeGraph", "powerlaw_graph", "ring_graph", "grid_graph"]


@dataclass(frozen=True)
class EdgeGraph:
    """A directed graph as parallel ``src``/``dst`` edge arrays."""

    n_vertices: int
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self):
        src = np.asarray(self.src, dtype=np.int64)
        dst = np.asarray(self.dst, dtype=np.int64)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src/dst must be 1-D arrays of equal length")
        if src.size:
            top = max(int(src.max()), int(dst.max()))
            if top >= self.n_vertices or min(int(src.min()), int(dst.min())) < 0:
                raise ValueError("vertex id out of range")

    @property
    def n_edges(self) -> int:
        return int(self.src.size)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex (length ``n_vertices``)."""
        return np.bincount(self.src, minlength=self.n_vertices)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.dst, minlength=self.n_vertices)

    def reverse(self) -> "EdgeGraph":
        return EdgeGraph(self.n_vertices, self.dst, self.src)

    def to_csr(self):
        """SciPy CSR adjacency with A[dst, src] = 1 (column = source).

        This is the PageRank orientation: ``(A @ v)[i] = Σ_{j→i} v[j]``.
        """
        from scipy.sparse import csr_matrix

        data = np.ones(self.n_edges, dtype=np.float64)
        return csr_matrix(
            (data, (self.dst, self.src)), shape=(self.n_vertices, self.n_vertices)
        )


def powerlaw_graph(
    n_vertices: int,
    n_edges: int,
    *,
    alpha: float = 0.9,
    seed: int = 0,
    shuffle_labels: bool = True,
) -> EdgeGraph:
    """A random directed graph with power-law in- and out-degrees.

    Endpoints are drawn independently from a bounded Zipf(α): vertex rank
    ``r`` receives edges at rate ∝ ``r^-α``, so a random edge partition of
    this graph matches the §IV Poisson model (per-partition index sets are
    Poisson-thinned power laws).  ``shuffle_labels`` relabels vertices so
    that popularity is uncorrelated with vertex id, as in real data.
    """
    if n_edges < 0:
        raise ValueError("n_edges must be non-negative")
    rng = np.random.default_rng(seed)
    src = zipf_sample(n_vertices, n_edges, alpha, rng)
    dst = zipf_sample(n_vertices, n_edges, alpha, rng)
    if shuffle_labels:
        perm = rng.permutation(n_vertices).astype(np.int64)
        src, dst = perm[src], perm[dst]
    return EdgeGraph(n_vertices, src, dst)


def ring_graph(n_vertices: int) -> EdgeGraph:
    """Directed ring — a deterministic fixture for app tests (diameter n-1)."""
    src = np.arange(n_vertices, dtype=np.int64)
    return EdgeGraph(n_vertices, src, (src + 1) % n_vertices)


def grid_graph(side: int) -> EdgeGraph:
    """4-neighbour bidirectional grid — a low-diameter regular fixture."""
    n = side * side
    srcs, dsts = [], []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                srcs += [v, v + 1]
                dsts += [v + 1, v]
            if r + 1 < side:
                srcs += [v, v + side]
                dsts += [v + side, v]
    return EdgeGraph(n, np.array(srcs, dtype=np.int64), np.array(dsts, dtype=np.int64))
