"""The applications on real processes: one session contract on every backend.

Every app takes an allreduce session ``net``; run on forked nodes
(:class:`~repro.net.LocalKylix`, :class:`~repro.net.TcpKylix`) its
results must equal the simulator's bit for bit — only the clock differs
(wall-clock seconds there, simulated seconds here).  Inputs are small:
every real ``reduce`` is a fresh session (fork, mesh, combined round).
"""

import numpy as np
import pytest

from repro.allreduce import KylixAllreduce
from repro.apps import (
    DistributedBFS,
    DistributedComponents,
    DistributedDiameter,
    DistributedLDA,
    DistributedMatrixFactorization,
    DistributedPageRank,
    DistributedPowerIteration,
    DistributedSGD,
    synthetic_corpus,
    synthetic_ratings,
)
from repro.cluster import Cluster
from repro.data import MinibatchStream, powerlaw_graph, random_edge_partition
from repro.net import LocalKylix, TcpKylix

M, DEGREES = 4, [2, 2]
GRAPH = powerlaw_graph(120, 600, alpha=0.8, seed=5)
PARTS = random_edge_partition(GRAPH, M, seed=6)


def pagerank(net):
    pr = DistributedPageRank(net, PARTS)
    return [pr.global_vector(pr.run(3))]


def components(net):
    return [DistributedComponents(net, PARTS).run().global_labels(GRAPH.n_vertices, PARTS)]


def bfs(net):
    res = DistributedBFS(net, PARTS).run(source=int(GRAPH.src[0]))
    return [res.global_distances(GRAPH.n_vertices, PARTS)]


def diameter(net):
    res = DistributedDiameter(net, PARTS, registers=4, seed=1).run(max_hops=4)
    return [np.array(res.neighbourhood), np.array([res.effective_diameter])]


def power_iteration(net):
    res = DistributedPowerIteration(net, PARTS).run(iterations=3)
    return [res.global_vector(GRAPH.n_vertices, PARTS), np.array([res.eigenvalue])]


def sgd(net):
    data = MinibatchStream(48, batch_size=8, nnz_per_example=4, seed=3)
    res = DistributedSGD(net, 48, learning_rate=0.5).run(
        {r: data.node_stream(r, 2) for r in range(M)}
    )
    return [res.weights, np.array(res.losses)]


def factorization(net):
    shards, _, _ = synthetic_ratings(40, 50, 3, M, seed=1)
    res = DistributedMatrixFactorization(net, shards, 50, 3, seed=2).run(2)
    return [res.item_factors, np.array(res.rmse_history)]


def lda(net):
    shards, _ = synthetic_corpus(24, 40, 3, M, doc_length=10, seed=3)
    res = DistributedLDA(net, shards, 40, 3, seed=4).run(1)
    return [res.word_topic, np.array(res.log_likelihood)]


APPS = [pagerank, components, bfs, diameter, power_iteration, sgd, factorization, lda]


@pytest.mark.parametrize("app", APPS, ids=lambda f: f.__name__)
def test_app_on_forked_nodes_equals_the_simulator(app):
    sim = app(KylixAllreduce(Cluster(M), DEGREES))
    real = app(LocalKylix(DEGREES))
    assert len(sim) == len(real)
    for a, b in zip(sim, real):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("backend", [LocalKylix, TcpKylix], ids=["local", "tcp"])
def test_pagerank_on_eight_processes_equals_the_simulator(backend):
    graph = powerlaw_graph(400, 3_000, alpha=0.8, seed=11)
    parts = random_edge_partition(graph, 8, seed=12)
    sim = DistributedPageRank(KylixAllreduce(Cluster(8), [4, 2]), parts)
    real = DistributedPageRank(backend([4, 2]), parts)
    sim_res, real_res = sim.run(6), real.run(6)
    assert np.array_equal(sim.global_vector(sim_res), real.global_vector(real_res))
    # Wall-clock seconds on a real backend, measured around each phase.
    assert real_res.config_time > 0
    assert all(t.compute > 0 and t.comm > 0 for t in real_res.iterations)


class TestSessionContract:
    def test_reduce_before_configure_raises(self):
        with pytest.raises(RuntimeError):
            LocalKylix(DEGREES).reduce({r: np.zeros(0) for r in range(M)})

    def test_configure_checks_ranks_without_starting_nodes(self):
        from repro.allreduce import ReduceSpec

        net = LocalKylix(DEGREES)
        idx = {r: np.arange(3) for r in range(M - 1)}
        with pytest.raises(ValueError):
            net.configure(ReduceSpec(idx, idx))
        assert net.spec is None

    def test_slot_count_is_checked_once_for_every_app(self):
        with pytest.raises(ValueError, match="one partition per logical allreduce slot"):
            DistributedComponents(LocalKylix([2]), PARTS)
