#!/usr/bin/env python
"""Minibatch machine learning over sparse allreduce (§I-A-1).

Trains a distributed logistic-regression model with synchronous minibatch
SGD.  The model is sharded across "home" machines; every step runs two
sparse allreduces whose index sets change with each minibatch — the
dynamic-configuration workload the paper contrasts with PageRank's fixed
index sets.

Run:  python examples/minibatch_sgd.py
"""

import numpy as np

from repro.allreduce import KylixAllreduce
from repro.apps import DistributedSGD
from repro.cluster import Cluster
from repro.data import MinibatchStream

M = 8  # machines
N_FEATURES = 512
STEPS = 40

# Power-law feature occurrences: minibatch index sets have exactly the
# head-heavy statistics the paper's §IV analysis assumes.
stream = MinibatchStream(
    N_FEATURES, alpha=0.9, batch_size=64, nnz_per_example=16, noise=0.05, seed=42
)
streams = {rank: stream.node_stream(rank, STEPS) for rank in range(M)}

cluster = Cluster(M)
sgd = DistributedSGD(KylixAllreduce(cluster, [4, 2]), N_FEATURES, learning_rate=0.5)
result = sgd.run(streams)

print(f"trained {STEPS} synchronous steps on {M} nodes "
      f"({M * 64} examples/step)")
print(f"simulated communication time: {result.comm_time * 1e3:.1f} ms total, "
      f"{result.comm_time / STEPS * 1e3:.2f} ms/step")
print("loss curve (every 5 steps):")
for i in range(0, STEPS, 5):
    bar = "#" * int(result.losses[i] * 60)
    print(f"  step {i:3d}  loss {result.losses[i]:.4f}  {bar}")

cos = np.dot(result.weights, stream.true_weights) / (
    np.linalg.norm(result.weights) * np.linalg.norm(stream.true_weights)
)
print(f"cosine similarity with the generating weights: {cos:.3f}")
assert result.losses[-1] < result.losses[0], "loss should decrease"
