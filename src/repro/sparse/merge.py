"""Index-set union with position maps — the configuration kernel (§VI-A).

The dominant cost in Kylix's configuration phase is taking the union of
the sorted index sets a node receives from its ``d_i`` group members and
memoising where each member's keys landed.  The paper merges sorted sets
instead of hashing them (§VI-A: "5x faster than a hash implementation")
because a merge streams memory sequentially.  :func:`union_with_maps`
does that merge as one stable argsort of the concatenated sets: each set
is an already-sorted run, and NumPy's stable sort (timsort) finds the
runs and merges them pairwise, keeping merged operands of similar length
— the paper's balanced tree merge, inside one call.  The permutation
that yields the union yields, by one scatter, the position of every
input key inside it (:func:`unique_with_inverse`, the one dedupe kernel,
which also turns a node's raw indices into its unique keys).  Those are
the maps ``f^i_jk`` / ``g^i_jk`` of §III-A: during reduction they let a
node scatter-add an arriving value vector into its partial (down pass)
and extract the slice a neighbour asked for (up pass) in O(1) per
element.  Every stored position is an :func:`index_dtype` array:
``int32`` for any set this side of 2**31 keys.

The strawmen of the §VI-A ablation (hash-set union, unbalanced pairwise
fold, balanced tree of two-way merges) live with that ablation, in
``benchmarks/test_ablation_merge.py``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

__all__ = ["index_dtype", "is_sorted_unique", "union_with_maps", "unique_with_inverse"]

_EMPTY = np.empty(0, dtype=np.uint64)
_INT32 = np.dtype(np.int32)
_INTP = np.dtype(np.intp)


def is_sorted_unique(arr: np.ndarray) -> bool:
    """True when ``arr`` is strictly increasing (sorted with no duplicates).

    The protocol invariant for every key array and every position map
    (:class:`~repro.sparse.SparseVector` checks its keys with it): strict
    increase implies injectivity, so no two entries of one part land on
    one position.  Reduction does not lean on that: it accumulates every
    part with ``ufunc.at``, which is exact with or without repeats.
    """
    arr = np.asarray(arr)
    if arr.ndim != 1:
        return False
    if arr.size < 2:
        return True
    return bool(np.all(arr[1:] > arr[:-1]))


def _as_keys(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.uint64)
    if arr.ndim != 1:
        raise ValueError("index sets must be one-dimensional")
    return arr


def index_dtype(n: int) -> np.dtype:
    """The dtype of a stored position index whose values stay below
    ``n``: ``int32`` when ``n < 2**31``, otherwise ``intp``.

    Every position a plan memoises (maps, inverses, the bottom
    projection) follows this one rule, which halves a plan on a 64-bit
    host.  Gather through such an index with ``take``: NumPy converts an
    ``int32`` index to ``intp`` on every call, and fancy indexing pays
    about twice what ``take`` does for it.
    """
    return _INT32 if n < 2**31 else _INTP


def unique_with_inverse(
    keys: np.ndarray, *, kind: Optional[str] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique ``keys`` and the read-only inverse (each key's
    position among them, in :func:`index_dtype`) — the one dedupe kernel
    of both set builders.

    Equal, value for value, to ``np.unique`` of one-dimensional ``keys``
    with its inverse.  ``kind`` is the argsort's:
    ``"stable"`` where ``keys`` are sorted runs end to end (timsort finds
    and merges them, §VI-A), the default where they are in no order (the
    inverse depends only on which keys are equal, so the order among
    equal keys does not matter, and a stable sort is ~3x slower there).
    """
    order = np.argsort(keys, kind=kind)
    srt = keys[order]
    new = np.empty(srt.size, dtype=bool)
    new[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    # Compress through the new keys' positions: a boolean mask over a
    # random pattern mispredicts (~5x slower at 84k keys).
    uniq = srt.take(np.flatnonzero(new))
    # A key's position is the number of new keys before it, the first not
    # counted.  The running count is written in the index dtype directly.
    new[:1] = False
    inv = np.empty(keys.size, dtype=index_dtype(keys.size))
    inv[order] = np.cumsum(new, dtype=inv.dtype)
    # A plan may hand these positions to both of its sides: a write
    # through one would corrupt the other, so none is allowed.
    inv.flags.writeable = False
    return uniq, inv


def union_with_maps(sets: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Union the sorted unique key sets; return (union, per-set position maps).

    This is the configuration-phase kernel: node ``k`` receives index sets
    from its ``d_i`` neighbours, unions them, and memoises where each
    neighbour's elements landed.  ``union`` is sorted unique ``uint64`` and
    ``union.take(maps[j]) == sets[j]``; each map is a C-contiguous array
    in :func:`index_dtype` of the total input size (``int32`` below 2**31
    keys), strictly increasing as its set is.  The maps are consecutive
    slices of one read-only array.
    """
    parts = [_as_keys(s) for s in sets]
    cat = np.concatenate(parts) if parts else _EMPTY
    # Stable: the argsort merges the sorted runs, no re-sort.
    union, inv = unique_with_inverse(cat, kind="stable")
    ends = list(accumulate((p.size for p in parts), initial=0))
    return union, [inv[a:b] for a, b in zip(ends, ends[1:])]
