#!/usr/bin/env python
"""Graph mining on a simulated cluster: PageRank, components, diameter.

The paper's §I-A-2 workloads end-to-end on one synthetic power-law graph:

* PageRank via distributed SpMV — comparing the optimal Kylix butterfly
  against direct all-to-all on the calibrated commodity fabric;
* weakly-connected components via min-label propagation;
* HADI-style effective-diameter estimation with bit-string OR reduction.

Run:  python examples/pagerank_graph_mining.py
"""

import numpy as np

from repro.allreduce import KylixAllreduce
from repro.apps import (
    DistributedComponents,
    DistributedDiameter,
    DistributedPageRank,
    reference_pagerank,
)
from repro.bench import format_seconds, make_cluster
from repro.data import twitter_like

# A Twitter-like power-law graph whose 16-way edge partition matches the
# paper's measured partition density (0.21).
dataset = twitter_like(m=16, n_vertices=20_000)
graph = dataset.graph
print(
    f"graph: {graph.n_vertices:,} vertices, {graph.n_edges:,} edges, "
    f"16-way partition density {dataset.measured_density:.3f}"
)

# ---------------------------------------------------------------- PageRank
for name, degrees in [("Kylix 4x2x2", [4, 2, 2]), ("direct all-to-all", [dataset.m])]:
    pr = DistributedPageRank(
        KylixAllreduce(make_cluster(dataset), degrees), dataset.partitions
    )
    result = pr.run(iterations=5)
    print(
        f"PageRank [{name:>18}]: {format_seconds(result.mean_iteration)}/iter "
        f"(compute {format_seconds(result.mean_compute)}, "
        f"comm {format_seconds(result.mean_comm)})"
    )
    vec = pr.global_vector(result)

ref = reference_pagerank(graph.to_csr(), iterations=5)
np.testing.assert_allclose(vec, ref, atol=1e-12)
print(f"distributed PageRank matches the single-machine reference ✓")
top = np.argsort(ref)[::-1][:5]
print("top-5 vertices by rank:", top.tolist())

# ------------------------------------------------------------- Components
cc = DistributedComponents(
    KylixAllreduce(make_cluster(dataset), [4, 2, 2]), dataset.partitions
)
cres = cc.run()
labels = cres.global_labels(graph.n_vertices, dataset.partitions)
print(
    f"connected components: {np.unique(labels).size:,} components "
    f"in {cres.rounds} allreduce rounds"
)

# ---------------------------------------------------------------- Diameter
dia = DistributedDiameter(
    KylixAllreduce(make_cluster(dataset), [4, 2, 2]), dataset.partitions, registers=8
)
dres = dia.run()
print(
    f"effective diameter ≈ {dres.effective_diameter} hops "
    f"({dres.rounds} OR-allreduce rounds)"
)
