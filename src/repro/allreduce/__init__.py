"""Sparse Allreduce protocols: Kylix and every baseline the paper compares.

* :class:`KylixAllreduce` — the paper's contribution: nested,
  heterogeneous-degree butterfly (configure once, reduce many times).
* :class:`DirectAllreduce` — all-to-all baseline (degree ``[m]``).
* :class:`BinaryButterflyAllreduce` — classical ``[2]*log2(m)`` butterfly.
* :class:`TreeAllreduce` — binary reduction tree (shows the dense blow-up).
* :class:`DenseAllreduce` — dense reduce-scatter/allgather reference.
* :class:`ReplicatedKylix` — §V fault tolerance via replication + racing.
"""

from .base import (
    PHASE_COMBINED_DOWN,
    PHASE_CONFIG,
    PHASE_GATHER_UP,
    PHASE_REDUCE_DOWN,
    CoverageError,
    ReduceSpec,
    check_values,
    dense_reduce,
    dense_reduce_without,
)
from .butterfly import BinaryButterflyAllreduce, binary_degrees, uniform_degrees
from .core import LayerPlan, NodePlan
from .dense import DenseAllreduce
from .direct import DirectAllreduce
from .kylix import KylixAllreduce, PhaseTiming
from .replicated import ReplicatedKylix, expected_failures_survived
from .topology import ButterflyTopology, validate_degrees
from .tree import TreeAllreduce

__all__ = [
    "ReduceSpec",
    "CoverageError",
    "check_values",
    "dense_reduce",
    "dense_reduce_without",
    "PHASE_CONFIG",
    "PHASE_REDUCE_DOWN",
    "PHASE_GATHER_UP",
    "PHASE_COMBINED_DOWN",
    "KylixAllreduce",
    "NodePlan",
    "LayerPlan",
    "PhaseTiming",
    "DirectAllreduce",
    "BinaryButterflyAllreduce",
    "binary_degrees",
    "uniform_degrees",
    "TreeAllreduce",
    "DenseAllreduce",
    "ReplicatedKylix",
    "expected_failures_survived",
    "ButterflyTopology",
    "validate_degrees",
]
