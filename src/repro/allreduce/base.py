"""Common types for Sparse Allreduce protocols (§III of the paper).

A sparse allreduce over an ``n``-vector on ``m`` nodes:

1. each node ``i`` declares *in* indices it wants reduced values for and
   *out* indices it will contribute values to (configuration);
2. each node pushes values aligned with its out indices and receives the
   reduced values aligned with its in indices (reduction).

:class:`ReduceSpec` captures the per-node declarations; protocols consume
it and return per-node value arrays.  Index sets are raw (un-hashed)
non-negative integers; protocols hash them internally for balanced range
partitioning and un-hash on the way out, so callers never see hash space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

from ..verify.errors import ProtocolInvariantError

__all__ = [
    "ReduceSpec",
    "CoverageError",
    "PHASE_CONFIG",
    "PHASE_REDUCE_DOWN",
    "PHASE_GATHER_UP",
    "PHASE_COMBINED_DOWN",
    "check_indices",
    "check_values",
    "REDUCTION_OPS",
    "reduction_ufunc",
    "reduction_identity",
]

# Phase tags used for traffic accounting (TrafficStats keys, Fig 5/6).
PHASE_CONFIG = "config"
PHASE_REDUCE_DOWN = "reduce_down"
PHASE_GATHER_UP = "gather_up"
PHASE_COMBINED_DOWN = "combined_down"


#: Supported element-wise reduction operators.  ``sum`` is the paper's
#: running example; ``min``/``max`` serve label-propagation algorithms
#: (connected components, BFS) and ``or`` serves HADI-style bit-string
#: sketches (diameter estimation) — the applications in §I-A-2.
REDUCTION_OPS = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
    "or": np.bitwise_or,
}


def reduction_ufunc(op: str) -> np.ufunc:
    try:
        return REDUCTION_OPS[op]
    except KeyError:
        raise ValueError(f"unknown reduction op {op!r}; choose from {sorted(REDUCTION_OPS)}") from None


def reduction_identity(op: str, dtype: np.dtype):
    """The identity element of ``op`` over ``dtype`` (fill for absentees)."""
    dtype = np.dtype(dtype)
    if op in ("sum", "or"):
        return dtype.type(0)
    if op == "min":
        return dtype.type(np.inf) if dtype.kind == "f" else np.iinfo(dtype).max
    if op == "max":
        return dtype.type(-np.inf) if dtype.kind == "f" else np.iinfo(dtype).min
    raise ValueError(f"unknown reduction op {op!r}")


class CoverageError(ProtocolInvariantError, ValueError):
    """Raised when some requested *in* index has no contributor.

    The paper requires ``∪ in_i ⊆ ∪ out_i`` — "there will be some input
    nodes with no data to draw from" otherwise.  Subclasses both
    :class:`ProtocolInvariantError` (it is a protocol-invariant failure,
    catchable alongside the static checker's) and ``ValueError`` (the
    historical base, kept for existing callers).
    """


def check_indices(indices: np.ndarray, *, what: str) -> np.ndarray:
    """Validate a raw index array: 1-D, integral, non-negative."""
    arr = np.asarray(indices)
    if arr.ndim != 1:
        raise ValueError(f"{what} indices must be one-dimensional")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{what} indices must be integers, got {arr.dtype}")
    if arr.size and int(arr.min()) < 0:
        raise ValueError(f"{what} indices must be non-negative")
    return arr.astype(np.int64, copy=False)


def _canonical(dtype) -> np.dtype:
    """The one shared instance of ``dtype`` (``np.dtype(np.float64)``
    itself), not an equal copy such as unpickling makes.  NumPy's
    in-place kernels (``ufunc.at``) take a slow path when their
    operands' dtype instances differ."""
    return np.dtype(np.dtype(dtype).str)


@dataclass
class ReduceSpec:
    """Per-node in/out index declarations for one allreduce configuration.

    Attributes
    ----------
    in_indices / out_indices:
        ``{rank: int64 array}``.  Arrays may be unsorted; *out* arrays may
        contain duplicates (their values are summed, the natural semantics
        for gradient updates); *in* arrays may also contain duplicates
        (values are replicated on return).
    value_shape:
        Trailing shape of each value row, ``()`` for scalar reductions.
        HADI bit-strings use ``(W,)`` rows, minibatch SGD uses gradient
        blocks.
    """

    in_indices: Dict[int, np.ndarray]
    out_indices: Dict[int, np.ndarray]
    value_shape: tuple = ()
    dtype: np.dtype = np.dtype(np.float64)
    op: str = "sum"

    def __post_init__(self):
        self.in_indices = {
            r: check_indices(v, what="in") for r, v in self.in_indices.items()
        }
        self.out_indices = {
            r: check_indices(v, what="out") for r, v in self.out_indices.items()
        }
        if set(self.in_indices) != set(self.out_indices):
            raise ValueError("in and out index sets must cover the same ranks")
        self.dtype = _canonical(self.dtype)
        reduction_ufunc(self.op)  # validate early
        if self.op == "or" and self.dtype.kind not in "ui":
            raise ValueError("bitwise-or reduction requires an integer dtype")

    def __setstate__(self, state) -> None:
        # An unpickled dtype is a fresh instance; keep the canonical one.
        self.__dict__.update(state)
        self.dtype = _canonical(self.dtype)

    @property
    def ranks(self) -> list[int]:
        return sorted(self.in_indices)

    def validate_coverage(self) -> None:
        """Check ``∪ in ⊆ ∪ out`` (optional, O(total indices))."""
        all_out = np.unique(np.concatenate([v for v in self.out_indices.values()]))
        for rank, idx in self.in_indices.items():
            missing = np.setdiff1d(idx, all_out, assume_unique=False)
            if missing.size:
                raise CoverageError(
                    f"node {rank} requests {missing.size} indices nobody "
                    f"contributes (first: {missing[:5].tolist()})"
                )


def check_values(
    spec: ReduceSpec, out_values: Mapping[int, np.ndarray]
) -> Dict[int, np.ndarray]:
    """``out_values`` as ``spec.dtype`` arrays, checked against ``spec``.

    A rank of the spec without values raises ``KeyError``; values that do
    not convert to ``spec.dtype``, or whose shape is not one
    ``spec.value_shape`` row per entry of ``spec.out_indices[rank]``,
    raise ``ValueError``.
    """
    arrays = {}
    for r in spec.ranks:
        vals = np.asarray(out_values[r], dtype=spec.dtype)
        want = (spec.out_indices[r].size, *spec.value_shape)
        if vals.shape != want:
            raise ValueError(
                f"values for rank {r} misaligned with out indices: shape {vals.shape}, want {want}"
            )
        arrays[r] = vals
    return arrays


def dense_reduce(
    spec: ReduceSpec, out_values: Mapping[int, np.ndarray]
) -> Dict[int, np.ndarray]:
    """Reference implementation: dense scatter-add + gather.

    Used by tests and the tree/dense baselines to verify protocol output.
    Returns ``{rank: values aligned with spec.in_indices[rank]}``.
    """
    arrays = [spec.out_indices[r] for r in spec.ranks]
    top = max((int(a.max()) + 1 for a in arrays if a.size), default=0)
    for r in spec.ranks:
        idx = spec.in_indices[r]
        if idx.size:
            top = max(top, int(idx.max()) + 1)
    ufunc = reduction_ufunc(spec.op)
    identity = reduction_identity(spec.op, spec.dtype)
    total = np.full((top, *spec.value_shape), identity, dtype=spec.dtype)
    for r, vals in check_values(spec, out_values).items():
        ufunc.at(total, spec.out_indices[r], vals)
    return {r: total[spec.in_indices[r]] for r in spec.ranks}


def dense_reduce_without(
    spec: ReduceSpec, out_values: Mapping[int, np.ndarray], absent: Iterable[int]
) -> Dict[int, np.ndarray]:
    """:func:`dense_reduce` with the ``absent`` ranks contributing the identity.

    The honest reference for the survivors of a degraded run whose victims
    died (or were cut off) before any of their values left: the full dense
    reference would charge them the victims' missing addends.
    """
    values = dict(out_values)
    for rank in absent:
        values[rank] = np.full_like(
            np.asarray(values[rank], dtype=spec.dtype),
            reduction_identity(spec.op, spec.dtype),
        )
    return dense_reduce(spec, values)
