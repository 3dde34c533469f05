"""Tests for distributed minibatch SGD over sparse allreduce."""

import numpy as np
import pytest

from repro.allreduce import KylixAllreduce
from repro.apps import DistributedSGD, logistic_loss
from repro.cluster import Cluster
from repro.data import MinibatchStream


def train(m=4, n_features=64, steps=25, lr=0.5, degrees=(2, 2), seed=7):
    stream = MinibatchStream(
        n_features, batch_size=32, nnz_per_example=8, noise=0.02, seed=seed
    )
    streams = {r: stream.node_stream(r, steps) for r in range(m)}
    cluster = Cluster(m)
    sgd = DistributedSGD(
        KylixAllreduce(cluster, list(degrees)),
        n_features,
        learning_rate=lr,
    )
    return stream, sgd, sgd.run(streams)


class TestConvergence:
    def test_loss_decreases(self):
        _, _, res = train()
        early = np.mean(res.losses[:3])
        late = np.mean(res.losses[-5:])
        assert late < 0.75 * early, (early, late)

    def test_weights_correlate_with_ground_truth(self):
        stream, sgd, res = train(steps=50)
        w, t = res.weights, stream.true_weights
        cos = np.dot(w, t) / (np.linalg.norm(w) * np.linalg.norm(t))
        assert cos > 0.4, f"cosine similarity {cos:.2f}"

    def test_first_loss_is_chance_level(self):
        _, _, res = train(steps=2)
        assert res.losses[0] == pytest.approx(np.log(2), rel=1e-6)


class TestEquivalence:
    def test_matches_centralised_synchronous_sgd(self):
        """The distributed updates must equal a single-machine run that
        sums the same per-node minibatch gradients every step."""
        m, n, steps, lr = 4, 48, 8, 0.3
        stream = MinibatchStream(n, batch_size=16, nnz_per_example=6, seed=3)
        streams = {r: stream.node_stream(r, steps) for r in range(m)}

        cluster = Cluster(m)
        sgd = DistributedSGD(KylixAllreduce(cluster, [2, 2]), n, learning_rate=lr)
        res = sgd.run(streams)

        # Reference: dense synchronous SGD with the same batches.
        w = np.zeros(n)
        for i in range(steps):
            grad = np.zeros(n)
            for r in range(m):
                b = streams[r][i]
                wf = w[b.features]
                margins = b.labels * (b.matrix @ wf)
                coeff = -b.labels / (1 + np.exp(margins)) / b.batch_size
                np.add.at(grad, b.features, b.matrix.T @ coeff)
            w -= lr * grad
        np.testing.assert_allclose(res.weights, w, atol=1e-10)


class TestAccounting:
    def test_comm_time_and_steps_recorded(self):
        _, _, res = train(steps=5)
        assert res.steps == 5
        assert res.comm_time > 0
        assert len(res.losses) == 5

    def test_mismatched_stream_lengths_rejected(self):
        stream = MinibatchStream(32, seed=1)
        sgd = DistributedSGD(KylixAllreduce(Cluster(2), [2]), 32)
        with pytest.raises(ValueError):
            sgd.run({0: stream.node_stream(0, 3), 1: stream.node_stream(1, 2)})

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DistributedSGD(KylixAllreduce(Cluster(2), [2]), 0)
        with pytest.raises(ValueError):
            DistributedSGD(KylixAllreduce(Cluster(2), [2]), 8, learning_rate=0.0)

    def test_home_sharding_covers_all_features(self):
        sgd = DistributedSGD(KylixAllreduce(Cluster(4), [4]), 10)
        homes = np.concatenate([sgd._home[r] for r in range(4)])
        np.testing.assert_array_equal(np.sort(homes), np.arange(10))


def test_logistic_loss_values():
    assert logistic_loss(np.array([0.0])) == pytest.approx(np.log(2))
    assert logistic_loss(np.array([100.0])) == pytest.approx(0.0, abs=1e-9)
    assert logistic_loss(np.array([-100.0])) == pytest.approx(100.0, rel=1e-6)
