"""PowerGraph-like baseline: GAS engine on direct all-to-all messaging.

PowerGraph (OSDI'12) executes vertex programs in Gather/Apply/Scatter
phases over a vertex-cut partition; its synchronisation traffic is direct
point-to-point messaging between mirrors and masters.  The paper
attributes Kylix's 3–7× PageRank advantage to exactly two mechanisms,
both of which this model reproduces on the same simulated fabric:

* **direct all-to-all communication** — each of the ``m`` machines
  exchanges per-vertex data with every other machine each superstep, so
  packet sizes shrink as ``1/m`` and fall below the minimum efficient
  packet size (0.4 MB for Twitter at 64 nodes, ~30% of peak bandwidth);
* **slower local processing** — a general-purpose vertex-program engine
  (C++ virtual dispatch per edge, no MKL-style kernels) costs several
  times BIDMat's matrix kernels per edge; ``GAS_COMPUTE_SCALE`` models
  the ratio.

The PageRank driver below is therefore the same verified distributed
PageRank with the GAS compute scale, run on a direct (degree ``[m]``)
Kylix session — ``PowerGraphPageRank(KylixAllreduce(cluster, [m]),
partitions)`` — a best-case PowerGraph (random vertex cut, as the paper
compares against).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..apps.pagerank import DistributedPageRank
from ..data import GraphPartition

__all__ = ["PowerGraphPageRank", "GAS_COMPUTE_SCALE"]

#: Per-edge processing cost of a GAS vertex-program engine relative to an
#: MKL-accelerated SpMV.  PowerGraph reports ~3.6 s/iteration for Twitter
#: on 64 nodes where BIDMat-level kernels need a fraction of that even
#: excluding communication; a 4x kernel gap is a conservative middle of
#: the published range.
GAS_COMPUTE_SCALE = 4.0


class PowerGraphPageRank(DistributedPageRank):
    """PageRank the PowerGraph way: GAS-engine compute on the session
    ``net``, which for PowerGraph's direct messaging has one layer."""

    def __init__(
        self,
        net: Any,
        partitions: Sequence[GraphPartition],
        *,
        damping: float = 0.85,
        compute_scale: float = GAS_COMPUTE_SCALE,
    ):
        super().__init__(net, partitions, damping=damping, compute_scale=compute_scale)
