"""Distributed LDA by batched collapsed Gibbs sampling (§I-A-1).

"MCMC algorithms such as Gibbs samplers involve updates to a model on
every sample.  To improve performance, the sample updates are batched in
very similar fashion to subgradient updates."  This is the AD-LDA recipe
(Newman et al.): documents are sharded across machines; each superstep a
machine

1. **fetches** the global word-topic counts for exactly the words its
   documents contain (a sparse in-set — vocabularies are power-law);
2. runs a local collapsed Gibbs sweep against that snapshot, accumulating
   count *deltas*;
3. **pushes** the deltas back; home machines fold them into the global
   counts.

Topic totals ``N_k`` ride along as one extra synthetic row (index ``V``)
whose value vector is the K-vector of totals — the same trick the power-
iteration app uses for its norm, showing how scalar/global state fits the
sparse allreduce model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from ..allreduce import ReduceSpec
from .session import one_per_slot, reduce_pattern

__all__ = ["DocumentShard", "DistributedLDA", "LDAResult", "synthetic_corpus"]


@dataclass(frozen=True)
class DocumentShard:
    """One machine's documents as token arrays over a global vocabulary."""

    rank: int
    docs: List[np.ndarray]  # each: int64 word ids of the doc's tokens

    @property
    def vocab(self) -> np.ndarray:
        if not self.docs:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(self.docs))

    @property
    def n_tokens(self) -> int:
        return int(sum(d.size for d in self.docs))


def synthetic_corpus(
    n_docs: int,
    vocab_size: int,
    n_topics: int,
    m: int,
    *,
    doc_length: int = 40,
    seed: int = 0,
) -> tuple:
    """Planted-topic corpus: topic ``t`` owns vocabulary block ``t``.

    Each document draws one dominant topic (90% of tokens) plus 10%
    uniform noise, so recovered topics should re-discover the blocks.
    Returns ``(shards, doc_topics)`` with documents dealt round-robin.
    """
    rng = np.random.default_rng(seed)
    block = vocab_size // n_topics
    doc_topics = rng.integers(0, n_topics, size=n_docs)
    per_rank: List[List[np.ndarray]] = [[] for _ in range(m)]
    for d in range(n_docs):
        t = doc_topics[d]
        main = rng.integers(t * block, (t + 1) * block, size=int(doc_length * 0.9))
        noise = rng.integers(0, vocab_size, size=doc_length - main.size)
        per_rank[d % m].append(np.concatenate([main, noise]).astype(np.int64))
    shards = [DocumentShard(r, docs) for r, docs in enumerate(per_rank)]
    return shards, doc_topics


@dataclass
class LDAResult:
    word_topic: np.ndarray  # (V, K) global counts after training
    log_likelihood: List[float] = field(default_factory=list)
    comm_time: float = 0.0
    supersteps: int = 0

    def topic_word_distributions(self, beta: float = 0.01) -> np.ndarray:
        """(K, V) normalised topic-word probabilities."""
        counts = self.word_topic.T + beta
        return counts / counts.sum(axis=1, keepdims=True)


class DistributedLDA:
    """AD-LDA over sparse allreduce: fetch counts, sweep locally, push deltas."""

    def __init__(
        self,
        net: Any,
        shards: List[DocumentShard],
        vocab_size: int,
        n_topics: int,
        *,
        alpha: float = 0.5,
        beta: float = 0.01,
        combined: bool = True,
        seed: int = 0,
    ):
        if vocab_size <= 0 or n_topics <= 1:
            raise ValueError("need a positive vocabulary and >= 2 topics")
        if alpha <= 0 or beta <= 0:
            raise ValueError("Dirichlet hyperparameters must be positive")
        self.net = net
        self.shards = one_per_slot(net, shards, "shard")
        self.V = vocab_size
        self.K = n_topics
        self.alpha = alpha
        self.beta = beta
        self.combined = combined
        self.net.strict_coverage = False
        m = self.net.size
        self._rngs = {s.rank: np.random.default_rng([seed, s.rank]) for s in self.shards}
        # Home sharding of word-topic rows; index V is the topic-totals row.
        self._home = {
            r: np.arange(r, vocab_size + 1, m, dtype=np.int64) for r in range(m)
        }
        self._rows = {
            r: np.zeros((h.size, n_topics)) for r, h in self._home.items()
        }
        # Random initial topic assignment, pushed into the global counts.
        self._assignments = {
            s.rank: [self._rngs[s.rank].integers(0, n_topics, size=d.size) for d in s.docs]
            for s in self.shards
        }
        self._doc_topic = {
            s.rank: [
                np.bincount(z, minlength=n_topics).astype(np.float64)
                for z in self._assignments[s.rank]
            ]
            for s in self.shards
        }
        self._push_initial_counts()

    # ------------------------------------------------------------------
    def _sync(self, spec: ReduceSpec, values) -> Dict[int, np.ndarray]:
        return reduce_pattern(self.net, spec, values, combined=self.combined)

    def _touched(self, shard: DocumentShard) -> np.ndarray:
        """Local vocabulary plus the totals row."""
        return np.concatenate([shard.vocab, [self.V]]).astype(np.int64)

    def _local_deltas(self, shard: DocumentShard, new_assign) -> np.ndarray:
        """Word-topic count deltas (plus totals row) for a sweep's result."""
        touched = self._touched(shard)
        delta = np.zeros((touched.size, self.K))
        for doc, z_old, z_new in zip(
            shard.docs, self._assignments[shard.rank], new_assign
        ):
            rows = np.searchsorted(touched, doc)
            np.add.at(delta, (rows, z_new), 1.0)
            np.add.at(delta, (rows, z_old), -1.0)
        delta[-1] = delta[:-1].sum(axis=0)  # totals row
        return delta

    def _push_initial_counts(self) -> None:
        touched = {s.rank: self._touched(s) for s in self.shards}
        init = {}
        for s in self.shards:
            t = touched[s.rank]
            counts = np.zeros((t.size, self.K))
            for doc, z in zip(s.docs, self._assignments[s.rank]):
                rows = np.searchsorted(t, doc)
                np.add.at(counts, (rows, z), 1.0)
            counts[-1] = counts[:-1].sum(axis=0)
            init[s.rank] = counts
        spec = ReduceSpec(
            in_indices=dict(self._home),
            out_indices=touched,
            value_shape=(self.K,),
        )
        summed = self._sync(spec, init)
        for r in self._rows:
            self._rows[r] += summed[r]

    # ------------------------------------------------------------------
    def superstep(self) -> float:
        """Fetch counts → local collapsed Gibbs sweep → push deltas.

        Returns the corpus log-likelihood proxy (mean log p of sampled
        topics), which should increase as topics sharpen.
        """
        touched = {s.rank: self._touched(s) for s in self.shards}
        fetch_spec = ReduceSpec(
            in_indices=touched,
            out_indices=dict(self._home),
            value_shape=(self.K,),
        )
        snapshot = self._sync(fetch_spec, self._rows)

        deltas = {}
        loglik_total, tokens_total = 0.0, 0
        for s in self.shards:
            t = touched[s.rank]
            word_rows = snapshot[s.rank][:-1].copy()  # (|vocab|, K)
            totals = snapshot[s.rank][-1].copy()  # (K,)
            new_assign = []
            rng = self._rngs[s.rank]
            for di, doc in enumerate(s.docs):
                z_doc = self._assignments[s.rank][di]
                nd = self._doc_topic[s.rank][di]
                rows = np.searchsorted(t, doc)
                z_new = np.empty_like(z_doc)
                for i in range(doc.size):
                    w, z_old = rows[i], z_doc[i]
                    nd[z_old] -= 1
                    word_rows[w, z_old] -= 1
                    totals[z_old] -= 1
                    p = (
                        (nd + self.alpha)
                        * (word_rows[w] + self.beta)
                        / (totals + self.beta * self.V)
                    )
                    psum = p.sum()
                    z = int(np.searchsorted(np.cumsum(p), rng.random() * psum))
                    z = min(z, self.K - 1)
                    nd[z] += 1
                    word_rows[w, z] += 1
                    totals[z] += 1
                    z_new[i] = z
                    loglik_total += float(np.log(p[z] / psum + 1e-300))
                    tokens_total += 1
                new_assign.append(z_new)
            deltas[s.rank] = self._local_deltas(s, new_assign)
            self._assignments[s.rank] = new_assign
            self._doc_topic[s.rank] = [
                np.bincount(z, minlength=self.K).astype(np.float64)
                for z in new_assign
            ]

        push_spec = ReduceSpec(
            in_indices=dict(self._home),
            out_indices={s.rank: self._touched(s) for s in self.shards},
            value_shape=(self.K,),
        )
        summed = self._sync(push_spec, deltas)
        for r in self._rows:
            self._rows[r] += summed[r]
        return loglik_total / max(1, tokens_total)

    def run(self, supersteps: int) -> LDAResult:
        t0 = self.net.now
        history = [self.superstep() for _ in range(supersteps)]
        return LDAResult(
            word_topic=self.assemble_word_topic(),
            log_likelihood=history,
            comm_time=self.net.now - t0,
            supersteps=supersteps,
        )

    def assemble_word_topic(self) -> np.ndarray:
        out = np.zeros((self.V, self.K))
        for r, h in self._home.items():
            words = h[h < self.V]
            out[words] = self._rows[r][: words.size]
        return out
