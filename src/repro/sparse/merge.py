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
input key inside it.  Those are the maps ``f^i_jk`` / ``g^i_jk`` of
§III-A: during reduction they let a node scatter-add an arriving value
vector into its partial (down pass) and extract the slice a neighbour
asked for (up pass) in O(1) per element.

The strawmen of the §VI-A ablation (hash-set union, unbalanced pairwise
fold, balanced tree of two-way merges) live with that ablation, in
``benchmarks/test_ablation_merge.py``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

__all__ = ["is_sorted_unique", "union_with_maps"]

_EMPTY = np.empty(0, dtype=np.uint64)


def is_sorted_unique(arr: np.ndarray) -> bool:
    """True when ``arr`` is strictly increasing (sorted with no duplicates).

    The protocol invariant for every key array and every position map:
    strict increase implies injectivity, which is what lets reduction use
    plain fancy indexing instead of ``ufunc.at``.
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


def union_with_maps(sets: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Union the sorted unique key sets; return (union, per-set position maps).

    This is the configuration-phase kernel: node ``k`` receives index sets
    from its ``d_i`` neighbours, unions them, and memoises where each
    neighbour's elements landed.  ``union`` is sorted unique ``uint64`` and
    ``union[maps[j]] == sets[j]``; each map is a C-contiguous ``intp`` array
    (strictly increasing, as its set is), usable directly for fancy
    indexing.  The maps are consecutive slices of one read-only array.
    """
    parts = [_as_keys(s) for s in sets]
    cat = np.concatenate(parts) if parts else _EMPTY
    order = np.argsort(cat, kind="stable")  # merges the sorted runs, no re-sort
    srt = cat[order]
    new = np.empty(srt.size, dtype=bool)
    new[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    union = srt[new]
    # A key's union position is the number of new keys before it, the
    # first not counted.  An int32 running count is about twice as fast as
    # an intp one and widening it afterwards is cheap.
    new[:1] = False
    ids = np.cumsum(new, dtype=np.int32 if cat.size < 2**31 else np.intp)
    inv = np.empty(cat.size, dtype=np.intp)
    inv[order] = ids.astype(np.intp, copy=False)
    # A plan may hand these maps to both of its sides: a write through
    # one would corrupt the other, so none is allowed.
    inv.flags.writeable = False
    ends = list(accumulate((p.size for p in parts), initial=0))
    return union, [inv[a:b] for a, b in zip(ends, ends[1:])]
