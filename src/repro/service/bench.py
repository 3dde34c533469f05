"""The service-throughput benchmark behind ``python -m repro drive-service``,
and the stream workload ``serve`` draws its patterns from.

The whole point of splitting configure from reduce (§II-D) — and of the
service's keyed config cache on top — is that a stream of same-pattern
reduces pays for its position maps once.  This benchmark measures that
claim end to end on the simulator: ``reduces`` same-pattern reductions
through :class:`~repro.service.ReduceService` (one cache miss, then all
hits, pipelined down/up overlap) against the naive loop that calls
``configure() + reduce()`` afresh every time.  Both run on the simulated
clock, so the numbers are deterministic functions of the seed and the
speedup gate in CI can be tight; at seed 0 they are golden values
(``tests/test_experiment_golden.py``).  The service's wall-clock cost is
``perfbench``'s to measure.

Bit-identity is asserted, not sampled: every pipelined result must equal
its sequential counterpart exactly, otherwise the speedup would be
meaningless.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

from ..allreduce import KylixAllreduce, ReduceSpec
from ..cluster import Cluster
from .service import ReduceService

__all__ = ["run_service_benchmark", "stream_workload"]


def stream_workload(m: int, n: int, reduces: int, seed: int):
    """One fixed sparsity pattern, fresh values per reduce: ``(spec,
    rounds)``."""
    rng = np.random.default_rng(seed)
    idx = {
        r: np.unique(
            np.concatenate(
                [rng.choice(n, 50), np.arange(r, n, m, dtype=np.int64)]
            )
        ).astype(np.int64)
        for r in range(m)
    }
    spec = ReduceSpec(in_indices=idx, out_indices=idx)
    rounds = [
        {r: rng.normal(size=idx[r].size) for r in range(m)}
        for _ in range(reduces)
    ]
    return spec, rounds


def run_service_benchmark(
    *,
    m: int = 64,
    degrees: Sequence[int] = (4, 4, 4),
    reduces: int = 100,
    n: int = 2000,
    seed: int = 0,
    depth: int = 2,
) -> Dict[str, Any]:
    """Same-pattern reduce stream: service-cached vs configure-every-time.

    Returns a record with both simulated durations, the derived
    throughput (``reduces_per_sec`` on the simulated clock), the speedup,
    the service's cache tallies, and an ``exact`` flag confirming the two
    runs produced bit-identical results.  The acceptance gate asserts
    ``cache_hits == reduces - 1`` and ``speedup >= 2``.
    """
    if reduces < 2:
        raise ValueError("reduces must be >= 2 (need at least one cache hit)")
    spec, rounds = stream_workload(m, n, reduces, seed)

    # Naive loop: a full config traversal ahead of every reduce.
    seq_cluster = Cluster(m)
    seq_net = KylixAllreduce(seq_cluster, degrees=list(degrees))
    t0 = seq_cluster.now
    sequential = []
    for values in rounds:
        seq_net.configure(spec)
        sequential.append(seq_net.reduce(values))
    sequential_seconds = seq_cluster.now - t0

    # The service: one miss configures, 99 hits replay the cached maps,
    # and the pipeline overlaps reduce k+1's scatter with k's allgather.
    svc_cluster = Cluster(m)
    with ReduceService(cluster=svc_cluster, degrees=list(degrees)) as svc:
        stream = svc.open_stream("bench", spec)
        t0 = svc_cluster.now
        results = svc.submit_pipelined(stream, rounds, depth=depth)
        service_seconds = svc_cluster.now - t0
        cache = dict(svc.cache.stats)

    exact = all(
        all(np.array_equal(results[k][r], sequential[k][r]) for r in range(m))
        for k in range(reduces)
    )
    return {
        "m": int(m),
        "degrees": [int(d) for d in degrees],
        "reduces": int(reduces),
        "seed": int(seed),
        "exact": bool(exact),
        "cache_hits": int(cache["hits"]),
        "cache_misses": int(cache["misses"]),
        "sequential_sim_seconds": float(sequential_seconds),
        "service_sim_seconds": float(service_seconds),
        "sim_seconds_per_reduce": float(service_seconds / reduces),
        "reduces_per_sec": float(reduces / service_seconds),
        "speedup": float(sequential_seconds / service_seconds),
    }
