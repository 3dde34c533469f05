"""§III ablation: combined configuration+reduction for minibatch workloads.

"For minibatch updates, the in and out vertices change on every
allreduce.  In that case, it is more efficient to do configuration and
reduction concurrently with combined network messages."  We measure the
end-to-end saving on the SGD workload, where both allreduces of every
step must reconfigure.
"""

import numpy as np
from conftest import emit

from repro.allreduce import KylixAllreduce
from repro.apps import DistributedSGD
from repro.bench import format_seconds, format_table
from repro.cluster import Cluster
from repro.data import MinibatchStream


def _run(combined: bool, steps: int = 12):
    m, n = 8, 2_000
    stream = MinibatchStream(n, batch_size=64, nnz_per_example=24, seed=5)
    streams = {r: stream.node_stream(r, steps) for r in range(m)}
    cluster = Cluster(m)
    sgd = DistributedSGD(
        KylixAllreduce(cluster, [4, 2]),
        n,
        learning_rate=0.3,
        combined=combined,
    )
    result = sgd.run(streams)
    return result, cluster


def test_ablation_combined_messages(benchmark):
    res_sep, c_sep = _run(False)
    res_comb, c_comb = benchmark.pedantic(_run, args=(True,), rounds=1, iterations=1)

    emit(
        format_table(
            ["mode", "comm time (12 SGD steps)", "messages"],
            [
                ("separate config+reduce", format_seconds(res_sep.comm_time),
                 c_sep.stats.total_messages()),
                ("combined messages (§III)", format_seconds(res_comb.comm_time),
                 c_comb.stats.total_messages()),
            ],
            title="Ablation: combined configuration+reduction (minibatch SGD)",
        )
    )

    # Identical training trajectory...
    np.testing.assert_allclose(res_comb.weights, res_sep.weights, atol=1e-12)
    # ...at lower cost: fewer messages and less simulated time.
    assert c_comb.stats.total_messages() < c_sep.stats.total_messages()
    assert res_comb.comm_time < 0.9 * res_sep.comm_time
