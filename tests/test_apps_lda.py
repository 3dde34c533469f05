"""Tests for distributed LDA (batched collapsed Gibbs, AD-LDA style)."""

import numpy as np
import pytest

from repro.allreduce import KylixAllreduce
from repro.apps import DistributedLDA, synthetic_corpus
from repro.cluster import Cluster


def make(m=4, n_docs=120, vocab=120, topics=4, seed=3, **kw):
    shards, doc_topics = synthetic_corpus(
        n_docs, vocab, topics, m, doc_length=30, seed=seed
    )
    cluster = Cluster(m)
    lda = DistributedLDA(
        KylixAllreduce(cluster, [2, 2]),
        shards,
        vocab,
        topics,
        seed=seed + 1,
        **kw,
    )
    return lda, shards, doc_topics


class TestSyntheticCorpus:
    def test_shapes(self):
        shards, doc_topics = synthetic_corpus(40, 60, 3, 4, seed=0)
        assert len(shards) == 4
        assert sum(len(s.docs) for s in shards) == 40
        assert doc_topics.size == 40
        for s in shards:
            for d in s.docs:
                assert d.min() >= 0 and d.max() < 60

    def test_docs_concentrate_on_their_block(self):
        shards, doc_topics = synthetic_corpus(20, 60, 3, 1, seed=1)
        block = 60 // 3
        for doc, t in zip(shards[0].docs, doc_topics):
            in_block = ((doc >= t * block) & (doc < (t + 1) * block)).mean()
            assert in_block > 0.7


class TestGibbsTraining:
    def test_log_likelihood_improves(self):
        lda, *_ = make()
        res = lda.run(6)
        assert res.log_likelihood[-1] > res.log_likelihood[0] + 0.3

    def test_counts_stay_consistent(self):
        """Global word-topic counts always sum to the token count."""
        lda, shards, _ = make()
        total_tokens = sum(s.n_tokens for s in shards)
        for _ in range(3):
            lda.superstep()
            wt = lda.assemble_word_topic()
            assert wt.sum() == pytest.approx(total_tokens)
            assert wt.min() >= 0

    def test_topics_recover_planted_blocks(self):
        lda, *_ = make(seed=3)
        res = lda.run(10)
        dist = res.topic_word_distributions()
        V, K = 120, 4
        block = V // K
        masses = [
            max(dist[k, b * block : (b + 1) * block].sum() for k in range(K))
            for b in range(K)
        ]
        # each planted block is dominated by some topic
        assert min(masses) > 0.4, masses

    def test_totals_row_tracks_column_sums(self):
        lda, shards, _ = make()
        lda.run(2)
        wt = lda.assemble_word_topic()
        # totals row lives at index V on its home machine
        home_of_totals = lda.V % lda.net.size
        h = lda._home[home_of_totals]
        totals = lda._rows[home_of_totals][h == lda.V][0]
        np.testing.assert_allclose(totals, wt.sum(axis=0))

    def test_combined_mode_runs(self):
        lda, *_ = make(combined=False)
        res = lda.run(2)
        assert res.supersteps == 2 and res.comm_time > 0


class TestValidation:
    def test_bad_parameters_rejected(self):
        shards, _ = synthetic_corpus(10, 20, 2, 2, seed=0)
        with pytest.raises(ValueError):
            DistributedLDA(KylixAllreduce(Cluster(2), [2]), shards, 0, 2)
        with pytest.raises(ValueError):
            DistributedLDA(KylixAllreduce(Cluster(2), [2]), shards, 20, 1)
        with pytest.raises(ValueError):
            DistributedLDA(KylixAllreduce(Cluster(2), [2]), shards, 20, 2, alpha=0)

    def test_shard_count_must_match(self):
        shards, _ = synthetic_corpus(10, 20, 2, 2, seed=0)
        with pytest.raises(ValueError):
            DistributedLDA(KylixAllreduce(Cluster(4), [4]), shards, 20, 2)
