"""Kylix on awkward cluster sizes: primes, odd composites, mixed radices.

The paper lays nodes on a hyper-rectangle ``d_1 × … × d_l``; any
factorisation of ``m`` is a valid topology, including the trivial ``[m]``
for primes.  These tests pin down that the whole stack — hashing, nested
ranges, protocol, design workflow — works for every ``m``, not just the
powers of two the paper's experiments use.
"""

import numpy as np
import pytest

from repro.allreduce import KylixAllreduce, ReduceSpec, dense_reduce
from repro.cluster import Cluster
from repro.data import powerlaw_graph, random_edge_partition
from repro.design import PowerLawModel, optimal_degrees


def covered_case(m, n, rng):
    in_idx = {r: rng.choice(n, size=max(1, n // 5), replace=False) for r in range(m)}
    out_idx = {
        r: np.concatenate([rng.choice(n, size=8), np.arange(r, n, m)]).astype(np.int64)
        for r in range(m)
    }
    spec = ReduceSpec(in_idx, out_idx)
    vals = {r: rng.normal(size=len(out_idx[r])) for r in range(m)}
    return spec, vals


ODD_STACKS = [
    (3, [3]),
    (5, [5]),
    (6, [3, 2]),
    (7, [7]),  # prime: direct only
    (9, [3, 3]),
    (10, [5, 2]),
    (15, [5, 3]),
    (18, [3, 3, 2]),
    (20, [5, 2, 2]),
    (30, [5, 3, 2]),
]


@pytest.mark.parametrize("m,degrees", ODD_STACKS)
def test_kylix_correct_on_odd_sizes(m, degrees):
    rng = np.random.default_rng(m * 7)
    spec, vals = covered_case(m, 150, rng)
    net = KylixAllreduce(Cluster(m), degrees)
    got = net.allreduce(spec, vals)
    ref = dense_reduce(spec, vals)
    for r in range(m):
        np.testing.assert_allclose(got[r], ref[r], atol=1e-9)


@pytest.mark.parametrize("m", [3, 5, 6, 7, 9, 12, 15, 21, 36, 100])
def test_optimizer_handles_any_size(m):
    model = PowerLawModel.from_initial_density(0.2, 0.9, 100_000)
    degrees = optimal_degrees(model, m, min_packet_bytes=100.0)
    assert int(np.prod(degrees)) == m
    degrees_small = optimal_degrees(model, m, min_packet_bytes=1e12)
    assert degrees_small == [m]  # overhead-bound: collapse to direct


def test_prime_cluster_pagerank():
    """End-to-end PageRank on a 7-node (prime) cluster."""
    from repro.apps import DistributedPageRank, reference_pagerank

    g = powerlaw_graph(200, 1_500, seed=3)
    parts = random_edge_partition(g, 7, seed=4)
    pr = DistributedPageRank(KylixAllreduce(Cluster(7), [7]), parts)
    res = pr.run(5)
    ref = reference_pagerank(g.to_csr(), iterations=5)
    np.testing.assert_allclose(pr.global_vector(res), ref, atol=1e-12)


def test_mixed_radix_combined_allreduce():
    rng = np.random.default_rng(99)
    m = 12
    spec, vals = covered_case(m, 120, rng)
    net = KylixAllreduce(Cluster(m), [3, 2, 2])
    got = net.allreduce_combined(spec, vals)
    ref = dense_reduce(spec, vals)
    for r in range(m):
        np.testing.assert_allclose(got[r], ref[r], atol=1e-9)


def test_single_node_cluster_degenerates_gracefully():
    spec = ReduceSpec(
        in_indices={0: np.array([3, 5])}, out_indices={0: np.array([3, 5, 9])}
    )
    net = KylixAllreduce(Cluster(1), [1])
    got = net.allreduce(spec, {0: np.array([1.0, 2.0, 3.0])})
    np.testing.assert_allclose(got[0], [1.0, 2.0])
