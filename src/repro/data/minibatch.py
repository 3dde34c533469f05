"""Synthetic minibatch streams for the §I-A-1 machine-learning workloads.

Sub-gradient methods (SGD, batched Gibbs) read a minibatch, touch only the
features present in it, and update only the model coordinates projected
onto those features — which is why sparse allreduce fits them.  The
stream below generates sparse logistic-regression examples whose feature
occurrences follow a bounded Zipf(α), so minibatch index sets have the
same power-law statistics the paper analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List

import numpy as np

from .powerlaw import zipf_sample

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = [
    "Minibatch",
    "MinibatchStream",
    "FixedPatternStream",
    "make_ground_truth",
]


@dataclass(frozen=True)
class Minibatch:
    """A sparse design block: rows are examples, columns global features."""

    features: np.ndarray  # sorted distinct global feature ids in this batch
    matrix: csr_matrix  # (batch_size, len(features)) compact design matrix
    labels: np.ndarray  # ±1 labels

    @property
    def batch_size(self) -> int:
        return int(self.labels.size)


def make_ground_truth(n_features: int, rng: np.random.Generator) -> np.ndarray:
    """A sparse-ish true weight vector for label generation."""
    w = rng.normal(size=n_features)
    w[rng.random(n_features) < 0.5] = 0.0
    return w


class MinibatchStream:
    """Deterministic per-node stream of power-law sparse minibatches.

    Each example draws ``nnz_per_example`` feature ids from Zipf(α) (with
    replacement; duplicates collapse via the compact matrix) and values
    from N(0,1); the label is ``sign(x · w_true)`` flipped with
    probability ``noise``.
    """

    def __init__(
        self,
        n_features: int,
        *,
        alpha: float = 0.9,
        batch_size: int = 64,
        nnz_per_example: int = 20,
        noise: float = 0.05,
        seed: int = 0,
    ):
        if n_features <= 0 or batch_size <= 0 or nnz_per_example <= 0:
            raise ValueError("sizes must be positive")
        if not 0 <= noise < 0.5:
            raise ValueError("noise must lie in [0, 0.5)")
        self.n_features = n_features
        self.alpha = alpha
        self.batch_size = batch_size
        self.nnz_per_example = nnz_per_example
        self.noise = noise
        self._root = np.random.default_rng(seed)
        self.true_weights = make_ground_truth(n_features, self._root)

    def node_stream(self, rank: int, n_batches: int) -> List[Minibatch]:
        """``n_batches`` batches for one node (seeded per rank)."""
        rng = np.random.default_rng([rank + 1, 987654321])
        return [self._draw(rng) for _ in range(n_batches)]

    def _draw(self, rng: np.random.Generator) -> Minibatch:
        from scipy.sparse import csr_matrix

        b, k = self.batch_size, self.nnz_per_example
        cols_global = zipf_sample(self.n_features, b * k, self.alpha, rng)
        vals = rng.normal(size=b * k)
        rows = np.repeat(np.arange(b), k)
        feats = np.unique(cols_global)
        cols = np.searchsorted(feats, cols_global)
        mat = csr_matrix((vals, (rows, cols)), shape=(b, feats.size))
        margins = mat @ self.true_weights[feats]
        labels = np.where(margins >= 0, 1.0, -1.0)
        flip = rng.random(b) < self.noise
        labels[flip] *= -1.0
        return Minibatch(features=feats.astype(np.int64), matrix=mat, labels=labels)


class FixedPatternStream(MinibatchStream):
    """A minibatch stream whose *feature pattern is drawn once per node*.

    Every batch a node draws touches exactly the same feature set (values
    and labels still vary), so the allreduce spec built from the batches
    is identical across steps — the workload shape the service's keyed
    config cache and cached-plan replay are built for.  ``pattern_size``
    features per node are drawn from the same bounded Zipf(α) the rolling
    stream uses; examples then sample uniformly within the node's
    pattern.
    """

    def __init__(
        self,
        n_features: int,
        *,
        pattern_size: int = 200,
        alpha: float = 0.9,
        batch_size: int = 64,
        nnz_per_example: int = 20,
        noise: float = 0.05,
        seed: int = 0,
    ):
        super().__init__(
            n_features,
            alpha=alpha,
            batch_size=batch_size,
            nnz_per_example=nnz_per_example,
            noise=noise,
            seed=seed,
        )
        if pattern_size <= 0:
            raise ValueError("pattern_size must be positive")
        self.pattern_size = pattern_size
        self._patterns: dict = {}

    def node_pattern(self, rank: int) -> np.ndarray:
        """The node's fixed sorted feature set (drawn on first use)."""
        pat = self._patterns.get(rank)
        if pat is None:
            rng = np.random.default_rng([rank + 1, 192837465])
            draw = zipf_sample(
                self.n_features, 4 * self.pattern_size, self.alpha, rng
            )
            pat = np.unique(draw)[: self.pattern_size].astype(np.int64)
            self._patterns[rank] = pat
        return pat

    def node_stream(self, rank: int, n_batches: int) -> List[Minibatch]:
        pat = self.node_pattern(rank)
        rng = np.random.default_rng([rank + 1, 987654321])
        return [self._draw_fixed(pat, rng) for _ in range(n_batches)]

    def _draw_fixed(self, pat: np.ndarray, rng: np.random.Generator) -> Minibatch:
        from scipy.sparse import csr_matrix

        b, k = self.batch_size, self.nnz_per_example
        cols = rng.integers(0, pat.size, size=b * k)
        vals = rng.normal(size=b * k)
        rows = np.repeat(np.arange(b), k)
        # Full-width compact matrix over the fixed pattern: batches that
        # happen to miss a pattern feature still carry the same spec.
        mat = csr_matrix((vals, (rows, cols)), shape=(b, pat.size))
        margins = mat @ self.true_weights[pat]
        labels = np.where(margins >= 0, 1.0, -1.0)
        flip = rng.random(b) < self.noise
        labels[flip] *= -1.0
        return Minibatch(features=pat, matrix=mat, labels=labels)
