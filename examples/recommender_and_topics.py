#!/usr/bin/env python
"""Factor models and Gibbs samplers over sparse allreduce (§I-A-1).

The paper motivates Sparse Allreduce with minibatch machine learning:
factor/regression models whose updates touch only the features in the
batch, and batched Gibbs samplers.  This example runs both:

* **matrix completion** — rank-k factorization of a synthetic ratings
  matrix; user factors stay local, item factors synchronise through the
  allreduce with *combined* config+reduce messages;
* **LDA topic modelling** — AD-LDA batched collapsed Gibbs with
  word-topic counts sharded across home machines;

and finishes with a trace analysis (``repro.obs.analyze``) of one
factorization step.

Run:  python examples/recommender_and_topics.py
"""

import numpy as np

from repro.allreduce import KylixAllreduce
from repro.apps import (
    DistributedLDA,
    DistributedMatrixFactorization,
    synthetic_corpus,
    synthetic_ratings,
)
from repro.cluster import Cluster
from repro.obs import analyze
from repro.obs.analyze import render_critical_path, render_straggler

M = 8

# ------------------------------------------------------ matrix completion
print("=== distributed matrix factorization (rank-5 completion) ===")
shards, u_true, v_true = synthetic_ratings(400, 600, rank=5, m=M, seed=11)
print(f"{sum(s.n_ratings for s in shards):,} ratings over "
      f"{sum(s.user_ids.size for s in shards)} users x 600 items, {M} machines")

mf = DistributedMatrixFactorization(
    KylixAllreduce(Cluster(M), [4, 2]), shards, 600, rank=5,
    learning_rate=0.8, reg=1e-4, combined=True, seed=12,
)
result = mf.run(steps=50)
print(f"training RMSE: {result.rmse_history[0]:.3f} -> {result.rmse_history[-1]:.3f} "
      f"over {result.steps} steps "
      f"({result.comm_time * 1e3:.0f} ms simulated communication)")

# ---------------------------------------------------------- LDA topics
print("\n=== distributed LDA (batched collapsed Gibbs) ===")
V, K = 160, 4
doc_shards, _ = synthetic_corpus(200, V, K, M, doc_length=30, seed=13)
lda = DistributedLDA(KylixAllreduce(Cluster(M), [4, 2]), doc_shards, V, K, seed=14)
res = lda.run(supersteps=8)
print(f"token log-likelihood: {res.log_likelihood[0]:.3f} -> {res.log_likelihood[-1]:.3f}")
dist = res.topic_word_distributions()
for k in range(K):
    top = np.argsort(dist[k])[::-1][:6]
    print(f"  topic {k}: top words {top.tolist()}")

# ---------------------------------------------------- trace one MF step
print("\n=== trace analysis of one factorization step ===")
cluster = Cluster(M, observe=True)
mf2 = DistributedMatrixFactorization(
    KylixAllreduce(cluster, [4, 2]), shards, 600, rank=5, combined=True, seed=12,
)
mf2.step()
trace = analyze(cluster.obs)
print(render_critical_path(trace.critical_path()))
print(render_straggler(trace.straggler_report()))
print(f"messages: {len(trace.messages)}")
