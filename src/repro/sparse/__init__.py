"""Sparse index/value machinery: vectors, unions, and range partitioning.

These are the data-plane kernels of the Sparse Allreduce: sorted-key sparse
vectors (:class:`SparseVector`), the configuration kernel
:func:`union_with_maps` (one stable argsort per union of sorted index sets,
yielding the union and every set's position map in it), bijective index
hashing for balanced partitioning, and nested equal-range splits of the
key space.
"""

from .hashing import IdentityHasher, IndexHasher, MultiplicativeHasher
from .merge import is_sorted_unique, union_with_maps
from .partition import KeyRange, ranges_tile, split_sorted
from .vector import SparseVector

__all__ = [
    "SparseVector",
    "IndexHasher",
    "MultiplicativeHasher",
    "IdentityHasher",
    "KeyRange",
    "split_sorted",
    "ranges_tile",
    "is_sorted_unique",
    "union_with_maps",
]
