"""Unit and property tests for the union kernel and its position maps."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.sparse import union_with_maps


def arr(xs):
    return np.array(sorted(set(xs)), dtype=np.uint64)


def union_of(*sets):
    return union_with_maps(list(sets))[0]


class TestMergeTwo:
    """Two-set unions, the building block of §VI-A's merge."""

    def test_disjoint(self):
        assert union_of(arr([1, 3]), arr([2, 4])).tolist() == [1, 2, 3, 4]

    def test_overlap_deduplicated(self):
        assert union_of(arr([1, 2, 3]), arr([2, 3, 4])).tolist() == [1, 2, 3, 4]

    def test_empty_sides(self):
        a = arr([1, 2])
        assert union_of(a, arr([])).tolist() == [1, 2]
        assert union_of(arr([]), a).tolist() == [1, 2]
        assert union_of(arr([]), arr([])).size == 0

    def test_identical(self):
        a = arr([5, 6, 7])
        assert union_of(a, a).tolist() == [5, 6, 7]

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            union_of(np.zeros((2, 2), dtype=np.uint64), arr([1]))


class TestStrategiesAgree:
    """The kernel against a Python set union on hand-picked shapes (the
    strawman strategies' agreement lives in the §VI-A ablation)."""

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
        expect = sorted(set().union(*[set(c) for c in case])) if case else []
        assert union_of(*sets).tolist() == expect

    def test_odd_set_count(self):
        sets = [arr([i]) for i in range(7)]
        assert union_of(*sets).tolist() == list(range(7))

    def test_single_set(self):
        assert union_of(arr([1, 9])).tolist() == [1, 9]


class TestPositionMaps:
    def test_maps_recover_sets(self):
        sets = [arr([1, 5, 9]), arr([2, 5, 8]), arr([1, 8])]
        union, maps = union_with_maps(sets)
        for s, m in zip(sets, maps):
            np.testing.assert_array_equal(union[m], s)

    def test_maps_enable_scatter_add(self):
        sets = [arr([1, 5]), arr([5, 9])]
        union, maps = union_with_maps(sets)
        total = np.zeros(union.size)
        np.add.at(total, maps[0], np.array([1.0, 2.0]))
        np.add.at(total, maps[1], np.array([10.0, 20.0]))
        # union = [1, 5, 9]; key 5 got 2 + 10.
        assert total.tolist() == [1.0, 12.0, 20.0]

    def test_empty_set_ok(self):
        _, maps = union_with_maps([arr([1, 2]), arr([])])
        assert maps[1].size == 0

    def test_map_dtype_is_intp(self):
        _, maps = union_with_maps([arr([1, 2, 3])])
        assert maps[0].dtype == np.intp


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

key_sets = st.lists(
    st.lists(st.integers(0, 10_000), max_size=50).map(arr), max_size=8
)

# Keys from the whole uint64 ring, with the ends and a shared pool drawn
# often so that sets overlap heavily.
ring_keys = st.one_of(
    st.sampled_from([0, 1, 2**63, 2**64 - 2, 2**64 - 1]),
    st.integers(0, 30),
    st.integers(0, 2**64 - 1),
)
ring_sets = st.lists(st.lists(ring_keys, max_size=40), max_size=8)


@given(ring_sets)
@example([])
@example([[], [], []])
@example([[0, 2**64 - 1]])
@example([[0, 7, 2**64 - 1]] * 8)
def test_prop_union_with_maps_matches_reference(raw):
    """Against a pure-Python reference: the union is the sorted set of all
    keys, and map ``j`` holds each key's position in it."""
    sets = [arr(s) for s in raw]
    union, maps = union_with_maps(sets)
    expect = sorted(set().union(*map(set, raw)))
    where = {key: i for i, key in enumerate(expect)}
    assert union.dtype == np.uint64
    assert union.tolist() == expect
    assert len(maps) == len(sets)
    for s, m in zip(sets, maps):
        assert m.dtype == np.intp and m.flags.c_contiguous
        assert m.tolist() == [where[key] for key in s.tolist()]
        np.testing.assert_array_equal(union[m], s)
        assert np.all(m[1:] > m[:-1])


@given(key_sets)
def test_prop_union_contains_every_element(sets):
    union, maps = union_with_maps(sets)
    assert union.size == len(set().union(*[set(s.tolist()) for s in sets])) if sets else union.size == 0
    for s, m in zip(sets, maps):
        np.testing.assert_array_equal(union[m], s)


@given(key_sets)
def test_prop_union_sorted_unique(sets):
    union, _ = union_with_maps(sets)
    if union.size > 1:
        assert np.all(union[1:] > union[:-1])


@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_prop_full_64bit_domain(keys):
    """Unions must be correct over the whole uint64 ring (hashed keys)."""
    a = arr(keys)
    union, maps = union_with_maps([a, a])
    np.testing.assert_array_equal(union, a)
    np.testing.assert_array_equal(maps[0], maps[1])
