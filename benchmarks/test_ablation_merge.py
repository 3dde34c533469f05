"""§VI-A ablation: merging sorted index sets vs hashing them.

Paper claim reproduced here: maintaining index sets sorted and unioning
them with a balanced tree of two-way merges beats a hash-table union —
"This was 5x faster than a hash implementation."  Exact constants differ
(NumPy merge vs Python dict instead of Java arrays vs HashMap), but the
ordering and a substantial factor must hold; the pairwise (unbalanced)
fold must also lose to the tree on many same-sized inputs.

The production kernel, :func:`repro.sparse.union_with_maps`, does the
balanced merge inside one stable argsort and builds the position maps
from the same permutation; it is timed union *and* maps against the
hash union.  The strawmen below exist only for this ablation:

* :func:`hash_merge` — Python ``set``-based union,
* :func:`pairwise_merge` — left-fold of two-way merges (unbalanced; cost
  is quadratic-ish when inputs are similar sizes),
* :func:`tree_merge` — balanced binary tree of two-way merges (each
  element participates in ~log2(k) merges).
"""

import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sparse import union_with_maps

_EMPTY = np.empty(0, dtype=np.uint64)


def merge_two(a, b):
    """Union of two sorted unique arrays: concatenate, mergesort, dedupe
    (NumPy has no linear merge primitive)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    merged = np.sort(np.concatenate([a, b]), kind="mergesort")
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def hash_merge(sets):
    """Union via a Python hash set — the slow baseline."""
    seen = set()
    for s in sets:
        seen.update(np.asarray(s, dtype=np.uint64).tolist())
    return np.fromiter(sorted(seen), dtype=np.uint64, count=len(seen))


def pairwise_merge(sets):
    """Left-fold union: acc = merge(acc, s) over the inputs."""
    acc = _EMPTY
    for s in sets:
        acc = merge_two(acc, s)
    return acc


def tree_merge(sets):
    """Balanced binary-tree union: siblings merge level by level, so
    merged operands stay approximately equal in length and total work is
    O(N log k) for k sets of total size N."""
    level = [np.asarray(s, dtype=np.uint64) for s in sets]
    if not level:
        return _EMPTY
    while len(level) > 1:
        nxt = [merge_two(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def make_sets(k=64, size=50_000, n=10_000_000, seed=0):
    """k sparse index sets of equal size (config-phase merge shape).

    Heads overlap (power-law collisions), tails are spread over a large
    key space, matching what a Kylix node unions at each layer.
    """
    rng = np.random.default_rng(seed)
    sets = []
    head = np.arange(size // 4, dtype=np.uint64)  # shared hot head
    for _ in range(k):
        tail = rng.choice(n, size=size, replace=False).astype(np.uint64)
        sets.append(np.unique(np.concatenate([head, tail])))
    return sets


def _time(fn, sets, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(sets)
        best = min(best, time.perf_counter() - t0)
    return best


def arr(xs):
    return np.array(sorted(set(xs)), dtype=np.uint64)


class TestStrawmenAgree:
    CASES = [
        [],
        [[]],
        [[1, 2, 3]],
        [[1, 2], [2, 3], [3, 4]],
        [[10], [5], [1], [7], [3]],
        [list(range(0, 100, 2)), list(range(1, 100, 2))],
        [[1, 2, 3], [], [2, 3, 4], []],
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_all_strategies_equal(self, case):
        sets = [arr(c) for c in case]
        expect = union_with_maps(sets)[0].tolist()
        for strategy in (hash_merge, pairwise_merge, tree_merge):
            assert strategy(sets).tolist() == expect, strategy.__name__

    def test_merge_two(self):
        assert merge_two(arr([1, 2, 3]), arr([2, 3, 4])).tolist() == [1, 2, 3, 4]
        assert merge_two(arr([]), arr([1, 2])).tolist() == [1, 2]
        assert merge_two(arr([5, 6]), arr([5, 6])).tolist() == [5, 6]

    def test_tree_merge_odd_count(self):
        assert tree_merge([arr([i]) for i in range(7)]).tolist() == list(range(7))


@given(st.lists(st.lists(st.integers(0, 2**64 - 1), max_size=50).map(arr), max_size=8))
def test_prop_strategies_agree(sets):
    expected = union_with_maps(sets)[0]
    for strategy in (tree_merge, pairwise_merge, hash_merge):
        np.testing.assert_array_equal(strategy(sets), expected)


def test_merge_strategies_agree_before_timing(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sets = make_sets(k=16, size=5_000)
    expect = union_with_maps(sets)[0]
    for strategy in (tree_merge, hash_merge, pairwise_merge):
        np.testing.assert_array_equal(strategy(sets), expect)


def test_ablation_union_kernel_vs_hash_merge(benchmark):
    sets = make_sets()
    benchmark.pedantic(lambda: union_with_maps(sets), rounds=3, iterations=1)
    t_kernel = _time(union_with_maps, sets)
    t_tree = _time(tree_merge, sets)
    t_hash = _time(hash_merge, sets)
    print(
        f"\n§VI-A merge ablation (64 sets x ~62k keys): "
        f"union_with_maps (union + maps)={t_kernel * 1e3:.1f} ms  "
        f"tree (union only)={t_tree * 1e3:.1f} ms  hash={t_hash * 1e3:.1f} ms  "
        f"speedup={t_hash / t_kernel:.1f}x"
    )
    # Paper: ~5x. Accept anything clearly above 2x (different substrate).
    assert t_hash / t_kernel > 2.0


def test_ablation_tree_vs_pairwise_merge(benchmark):
    """Balanced merging keeps operands equal-sized (§VI-A's requirement:
    'the merged sets must be approximately equal in length or this will
    not be efficient')."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sets = make_sets(k=128, size=8_000)
    t_tree = _time(tree_merge, sets)
    t_pair = _time(pairwise_merge, sets)
    print(
        f"\ntree={t_tree * 1e3:.1f} ms  pairwise-fold={t_pair * 1e3:.1f} ms  "
        f"ratio={t_pair / t_tree:.2f}x"
    )
    assert t_tree < t_pair
