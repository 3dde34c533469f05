"""Distributed matrix factorization via minibatch SGD (§I-A-1's factor model).

The paper's motivating loss is ``l = f(X_i, v)`` with gradient
``dl/dv = f'(X_i, v) X_iᵀ`` — "the update is a scaled copy of X, and
therefore involves the same non-zero features."  Matrix completion makes
this concrete: approximate a sparse ratings matrix ``R ≈ Uᵀ V`` with user
factors ``U`` and item factors ``V`` (rank ``k``).

Sharding follows the paper's model-distribution recipe:

* **users** are partitioned by machine (each machine owns the users whose
  ratings it holds) — user factors never cross the network;
* **item factors** live at home machines and are synchronised per step
  with two sparse allreduces over exactly the items the step's ratings
  touch (in/out sets change every minibatch → combined messages apply).

Each step, for the local ratings block: fetch the touched item factors,
take one gradient step on the local user factors, compute item-factor
gradients, push them; homes apply the summed update.  Values are
``(k,)``-shaped rows — the allreduce moves whole factor vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from ..allreduce import ReduceSpec
from .session import one_per_slot, reduce_pattern

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = ["RatingsShard", "DistributedMatrixFactorization", "MFResult", "synthetic_ratings"]


@dataclass(frozen=True)
class RatingsShard:
    """One machine's ratings: local users (rows) × global items (cols)."""

    rank: int
    user_ids: np.ndarray  # global ids of the users this machine owns
    item_ids: np.ndarray  # sorted distinct global item ids rated locally
    matrix: csr_matrix  # (len(user_ids), len(item_ids)) compact ratings

    @property
    def n_ratings(self) -> int:
        return int(self.matrix.nnz)


def synthetic_ratings(
    n_users: int,
    n_items: int,
    rank: int,
    m: int,
    *,
    ratings_per_user: int = 20,
    noise: float = 0.05,
    alpha: float = 0.8,
    seed: int = 0,
) -> tuple:
    """Low-rank synthetic ratings, user-sharded over ``m`` machines.

    Item popularity is Zipf(α) so the touched-item sets are power-law —
    the data regime the paper's analysis assumes.  Returns
    ``(shards, U_true, V_true)``.
    """
    from scipy.sparse import csr_matrix

    from ..data import zipf_sample

    rng = np.random.default_rng(seed)
    u_true = rng.normal(size=(n_users, rank)) / np.sqrt(rank)
    v_true = rng.normal(size=(n_items, rank)) / np.sqrt(rank)

    shards = []
    users_per = np.array_split(np.arange(n_users, dtype=np.int64), m)
    for r in range(m):
        users = users_per[r]
        rows, cols, vals = [], [], []
        for local_u, u in enumerate(users):
            items = np.unique(zipf_sample(n_items, ratings_per_user, alpha, rng))
            ratings = u_true[u] @ v_true[items].T + noise * rng.normal(size=items.size)
            rows.extend([local_u] * items.size)
            cols.extend(items.tolist())
            vals.extend(ratings.tolist())
        cols = np.array(cols, dtype=np.int64)
        item_ids = np.unique(cols)
        compact = np.searchsorted(item_ids, cols)
        mat = csr_matrix(
            (vals, (rows, compact)), shape=(users.size, item_ids.size)
        )
        shards.append(RatingsShard(r, users, item_ids, mat))
    return shards, u_true, v_true


@dataclass
class MFResult:
    item_factors: np.ndarray  # (n_items, k) assembled global V
    rmse_history: List[float] = field(default_factory=list)
    comm_time: float = 0.0
    steps: int = 0


class DistributedMatrixFactorization:
    """Rank-``k`` matrix completion over sparse allreduce."""

    def __init__(
        self,
        net: Any,
        shards: List[RatingsShard],
        n_items: int,
        rank: int,
        *,
        learning_rate: float = 0.05,
        reg: float = 0.01,
        combined: bool = True,
        seed: int = 0,
    ):
        if rank <= 0 or n_items <= 0:
            raise ValueError("rank and n_items must be positive")
        if learning_rate <= 0 or reg < 0:
            raise ValueError("bad hyperparameters")
        self.net = net
        self.shards = one_per_slot(net, shards, "shard")
        self.n_items = n_items
        self.rank = rank
        self.lr = learning_rate
        self.reg = reg
        self.combined = combined
        self.net.strict_coverage = False
        m = self.net.size
        rng = np.random.default_rng(seed)
        # item-factor homes: item i lives on machine i % m
        self._home = {r: np.arange(r, n_items, m, dtype=np.int64) for r in range(m)}
        self._v = {
            r: rng.normal(size=(h.size, rank)) / np.sqrt(rank)
            for r, h in self._home.items()
        }
        # local user factors, initialised small
        self._u = {
            s.rank: rng.normal(size=(s.user_ids.size, rank)) / np.sqrt(rank)
            for s in self.shards
        }
        self._item_counts: Optional[Dict[int, np.ndarray]] = None

    # ------------------------------------------------------------------
    def _sync(self, spec: ReduceSpec, values) -> Dict[int, np.ndarray]:
        return reduce_pattern(self.net, spec, values, combined=self.combined)

    def _setup_counts(self) -> None:
        """Global per-item rating counts at the homes (one-time allreduce).

        Used to turn summed item gradients into per-rating means — a
        diagonal preconditioner that makes the step size scale-free.
        """
        touched = {s.rank: s.item_ids for s in self.shards}
        spec = ReduceSpec(in_indices=dict(self._home), out_indices=touched)
        local_counts = {
            s.rank: np.diff(s.matrix.tocsc().indptr).astype(np.float64)
            for s in self.shards
        }
        counts = self._sync(spec, local_counts)
        self._item_counts = {
            r: np.maximum(counts[r], 1.0) for r in counts
        }

    def step(self) -> float:
        """One synchronous alternating-SGD step; returns training RMSE."""
        m = self.net.size
        touched = {s.rank: s.item_ids for s in self.shards}
        if self._item_counts is None:
            self._setup_counts()

        # 1. fetch current item factors for locally-rated items
        fetch_spec = ReduceSpec(
            in_indices=touched,
            out_indices=dict(self._home),
            value_shape=(self.rank,),
        )
        v_local = self._sync(fetch_spec, self._v)

        # 2. local gradient step
        sq_err, n_ratings = 0.0, 0
        grads = {}
        for s in self.shards:
            V = v_local[s.rank]  # (n_local_items, k)
            U = self._u[s.rank]  # (n_local_users, k)
            R = s.matrix
            pred = _sparse_predict(R, U, V)
            err = R.copy()
            err.data = pred - R.data  # residuals at observed entries
            sq_err += float(np.sum(err.data**2))
            n_ratings += R.nnz
            # Per-coordinate *mean* gradients (diagonal preconditioning):
            # user rows divide by their own rating counts locally; item
            # rows are summed across machines and divided by the global
            # counts at the homes.
            user_counts = np.maximum(np.diff(R.indptr), 1)[:, None]
            gu = (err @ V) / user_counts + self.reg * U
            self._u[s.rank] = U - self.lr * gu
            grads[s.rank] = err.T @ U  # unnormalised partial sums

        # 3. push item-factor gradients to the homes
        push_spec = ReduceSpec(
            in_indices=dict(self._home),
            out_indices=touched,
            value_shape=(self.rank,),
        )
        summed = self._sync(push_spec, grads)
        for r in range(m):
            gv = summed[r] / self._item_counts[r][:, None] + self.reg * self._v[r]
            self._v[r] -= self.lr * gv
        return float(np.sqrt(sq_err / max(1, n_ratings)))

    def run(self, steps: int) -> MFResult:
        t0 = self.net.now
        history = [self.step() for _ in range(steps)]
        return MFResult(
            item_factors=self.assemble_item_factors(),
            rmse_history=history,
            comm_time=self.net.now - t0,
            steps=steps,
        )

    def assemble_item_factors(self) -> np.ndarray:
        out = np.zeros((self.n_items, self.rank))
        for r, h in self._home.items():
            out[h] = self._v[r]
        return out

    def predict_rmse(self, shards: Optional[List[RatingsShard]] = None) -> float:
        """Training RMSE with the current factors (driver-side, no comms)."""
        shards = shards if shards is not None else self.shards
        V_full = self.assemble_item_factors()
        sq, n = 0.0, 0
        for s in shards:
            V = V_full[s.item_ids]
            pred = _sparse_predict(s.matrix, self._u[s.rank], V)
            sq += float(np.sum((pred - s.matrix.data) ** 2))
            n += s.matrix.nnz
        return float(np.sqrt(sq / max(1, n)))


def _sparse_predict(R: csr_matrix, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Predictions at R's non-zero positions: (U Vᵀ) sampled at nnz."""
    coo = R.tocoo()
    return np.einsum("ij,ij->i", U[coo.row], V[coo.col])
