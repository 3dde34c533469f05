"""Kylix: a Sparse Allreduce for commodity clusters (ICPP 2014) — reproduction.

Public API re-exports the pieces a downstream user touches most:

* :class:`Cluster` — the simulated commodity cluster everything runs on;
* :class:`ReduceSpec` / :class:`KylixAllreduce` — declare sparse in/out
  index sets and run the nested heterogeneous butterfly allreduce; its
  degree stack gives the direct (``[m]``) and binary butterfly
  baselines, and ``replication=s`` the §V fault tolerance;
* :class:`FaultPlan` — the one fault schedule (deaths, step kills,
  message faults) a :class:`Cluster` or a real backend runs;
* the other baselines (:class:`TreeAllreduce`, :class:`DenseAllreduce`);
* the §IV design workflow (:func:`optimal_degrees`, :class:`PowerLawModel`).

Subpackages: ``repro.simul`` (event engine), ``repro.netmodel`` (fabric
cost model), ``repro.cluster``, ``repro.sparse``, ``repro.allreduce``,
``repro.design``, ``repro.data``, ``repro.apps``, ``repro.baselines``,
``repro.bench``, ``repro.net`` (real-process execution backend), and
``repro.verify`` (static protocol-invariant checker + custom AST lint;
``python -m repro verify`` / ``python -m repro lint``).
"""

from .allreduce import (
    CoverageError,
    DenseAllreduce,
    KylixAllreduce,
    ReduceSpec,
    TreeAllreduce,
    dense_reduce,
)
from .cluster import Cluster
from .design import EmpiricalDensityCurve, PowerLawModel, optimal_degrees
from .faults import FaultPlan
from .netmodel import EC2_LIKE, NetworkParams
from .sparse import SparseVector
from .verify.errors import ProtocolInvariantError

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "FaultPlan",
    "ReduceSpec",
    "KylixAllreduce",
    "TreeAllreduce",
    "DenseAllreduce",
    "CoverageError",
    "ProtocolInvariantError",
    "dense_reduce",
    "PowerLawModel",
    "EmpiricalDensityCurve",
    "optimal_degrees",
    "NetworkParams",
    "EC2_LIKE",
    "SparseVector",
    "__version__",
]
