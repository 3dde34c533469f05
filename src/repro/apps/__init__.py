"""Applications built on Sparse Allreduce (§I-A of the paper).

Graph mining (PageRank, connected components, BFS, HADI diameter, power
iteration) and minibatch machine learning (logistic-regression SGD,
matrix factorization, AD-LDA batched Gibbs sampling) — every algorithm
runs its communication exclusively through the allreduce session it is
given (:mod:`repro.apps.session`), on any backend and topology.
"""

from .bfs import BFSResult, DistributedBFS
from .factorization import (
    DistributedMatrixFactorization,
    MFResult,
    RatingsShard,
    synthetic_ratings,
)
from .lda import DistributedLDA, DocumentShard, LDAResult, synthetic_corpus
from .components import ComponentsResult, DistributedComponents
from .diameter import DiameterResult, DistributedDiameter, fm_estimate, fm_sketch
from .pagerank import (
    DistributedPageRank,
    PageRankResult,
    reference_pagerank,
    spmv_cost_bytes,
)
from .sgd import DistributedSGD, ServiceSGD, SGDResult, logistic_loss
from .spectral import DistributedPowerIteration, PowerIterationResult

__all__ = [
    "DistributedPageRank",
    "DistributedMatrixFactorization",
    "MFResult",
    "RatingsShard",
    "synthetic_ratings",
    "DistributedLDA",
    "DocumentShard",
    "LDAResult",
    "synthetic_corpus",
    "PageRankResult",
    "reference_pagerank",
    "spmv_cost_bytes",
    "DistributedComponents",
    "ComponentsResult",
    "DistributedBFS",
    "BFSResult",
    "DistributedDiameter",
    "DiameterResult",
    "fm_sketch",
    "fm_estimate",
    "DistributedSGD",
    "ServiceSGD",
    "SGDResult",
    "logistic_loss",
    "DistributedPowerIteration",
    "PowerIterationResult",
]
