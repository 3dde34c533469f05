"""Tests for distributed matrix factorization (§I-A-1 factor models)."""

import numpy as np
import pytest

from repro.allreduce import KylixAllreduce
from repro.apps import DistributedMatrixFactorization, synthetic_ratings
from repro.cluster import Cluster


def make(m=4, n_users=150, n_items=200, rank=4, seed=1, **kw):
    shards, u_true, v_true = synthetic_ratings(
        n_users, n_items, rank, m, seed=seed
    )
    cluster = Cluster(m)
    mf = DistributedMatrixFactorization(
        KylixAllreduce(cluster, [2, 2]),
        shards,
        n_items,
        rank,
        learning_rate=0.8,
        reg=1e-4,
        seed=seed + 1,
        **kw,
    )
    return mf, shards, u_true, v_true


class TestSyntheticRatings:
    def test_shard_shapes(self):
        shards, u, v = synthetic_ratings(100, 80, 3, 4, seed=0)
        assert len(shards) == 4
        assert sum(s.user_ids.size for s in shards) == 100
        for s in shards:
            assert s.matrix.shape == (s.user_ids.size, s.item_ids.size)
            assert np.all(np.diff(s.item_ids) > 0)
            assert s.n_ratings == s.matrix.nnz

    def test_ratings_reflect_low_rank_structure(self):
        shards, u, v = synthetic_ratings(50, 60, 3, 2, noise=0.0, seed=1)
        s = shards[0]
        coo = s.matrix.tocoo()
        expect = np.einsum(
            "ij,ij->i", u[s.user_ids[coo.row]], v[s.item_ids[coo.col]]
        )
        np.testing.assert_allclose(coo.data, expect, atol=1e-12)

    def test_item_popularity_is_skewed(self):
        shards, _, _ = synthetic_ratings(300, 400, 3, 2, seed=2)
        counts = np.zeros(400)
        for s in shards:
            np.add.at(counts, s.item_ids[s.matrix.tocoo().col], 1)
        top = np.sort(counts)[::-1]
        assert top[0] > 5 * max(np.median(counts), 1)


class TestTraining:
    def test_rmse_decreases_substantially(self):
        mf, *_ = make()
        res = mf.run(50)
        assert res.rmse_history[-1] < 0.45 * res.rmse_history[0]

    def test_history_matches_predict_rmse_direction(self):
        mf, *_ = make()
        mf.run(30)
        # Driver-side RMSE of the final factors near the last step's value.
        final = mf.predict_rmse()
        assert final < 0.6

    def test_combined_and_separate_agree(self):
        results = {}
        for combined in (True, False):
            mf, *_ = make(combined=combined)
            res = mf.run(10)
            results[combined] = res
        np.testing.assert_allclose(
            results[True].item_factors, results[False].item_factors, atol=1e-10
        )
        assert results[True].comm_time < results[False].comm_time

    def test_comm_time_recorded(self):
        mf, *_ = make()
        res = mf.run(3)
        assert res.comm_time > 0 and res.steps == 3

    def test_factors_correlate_with_truth(self):
        """The learned item-factor column space approximates the truth:
        predicted ratings beat a mean-zero baseline by a wide margin."""
        mf, shards, u_true, v_true = make(rank=4)
        mf.run(60)
        rmse = mf.predict_rmse()
        # baseline: predicting zero has RMSE = ||R|| scale ≈ 0.65
        assert rmse < 0.25


class TestValidation:
    def test_bad_rank_rejected(self):
        shards, *_ = synthetic_ratings(20, 20, 2, 2, seed=0)
        with pytest.raises(ValueError):
            DistributedMatrixFactorization(KylixAllreduce(Cluster(2), [2]), shards, 20, 0)

    def test_bad_lr_rejected(self):
        shards, *_ = synthetic_ratings(20, 20, 2, 2, seed=0)
        with pytest.raises(ValueError):
            DistributedMatrixFactorization(
                KylixAllreduce(Cluster(2), [2]), shards, 20, 2, learning_rate=0
            )

    def test_shard_count_must_match(self):
        shards, *_ = synthetic_ratings(20, 20, 2, 2, seed=0)
        with pytest.raises(ValueError):
            DistributedMatrixFactorization(KylixAllreduce(Cluster(4), [4]), shards, 20, 2)
