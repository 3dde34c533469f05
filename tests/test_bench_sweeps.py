"""Unit tests for the degree-stack sweep machinery."""

import numpy as np
import pytest

from repro.bench.sweeps import all_degree_stacks, sweep_degree_stacks
from repro.data import twitter_like


class TestAllDegreeStacks:
    def test_small_cases(self):
        assert all_degree_stacks(1) == [(1,)]
        assert all_degree_stacks(2) == [(2,)]
        assert set(all_degree_stacks(4)) == {(4,), (2, 2)}
        assert set(all_degree_stacks(6)) == {(6,), (3, 2), (2, 3)}
        assert set(all_degree_stacks(12)) == {
            (12,), (6, 2), (4, 3), (3, 4), (2, 6),
            (3, 2, 2), (2, 3, 2), (2, 2, 3),
        }

    def test_every_stack_multiplies_to_m(self):
        for m in (8, 24, 64):
            for stack in all_degree_stacks(m):
                assert int(np.prod(stack)) == m
                assert all(d >= 2 for d in stack) or stack == (1,)

    def test_count_for_64(self):
        # ordered factorizations of 2^6 into parts >= 2 = compositions of 6.
        assert len(all_degree_stacks(64)) == 32

    def test_ordering_shallow_first(self):
        stacks = all_degree_stacks(16)
        assert stacks[0] == (16,)
        assert len(stacks[0]) <= len(stacks[-1])

    def test_prime(self):
        assert all_degree_stacks(13) == [(13,)]

    def test_cap_and_validation(self):
        assert len(all_degree_stacks(64, max_stacks=5)) <= 6
        with pytest.raises(ValueError):
            all_degree_stacks(0)


@pytest.fixture(scope="module")
def tiny():
    return twitter_like(m=8, n_vertices=4_000)


class TestSweep:
    def test_sweep_small_dataset(self, tiny):
        res = sweep_degree_stacks(tiny, (4, 2), reduce_iters=1)
        assert len(res.rows) == len(all_degree_stacks(8))
        # sorted fastest first
        totals = res.column("total_s")
        assert totals == sorted(totals)
        # bookkeeping values
        best = res.rows[0]["degrees"]
        assert res.row(degrees=best)["rank"] == 1
        assert res.row(degrees=best)["gap"] == pytest.approx(1.0)
        assert res.row(degrees=(8,))["gap"] >= 1.0
        assert res.column("rank") == list(range(1, len(res.rows) + 1))
        with pytest.raises(LookupError):
            res.row(degrees=(3, 3))
        assert res.row(degrees=(4, 2))["pick"] == "<- workflow pick"
        assert [r["pick"] for r in res.rows].count("") == len(res.rows) - 1
        assert "workflow pick" in res.table()

    def test_table_appends_pick_outside_top(self, tiny):
        """A pick that ranks last is still printed, marked, with its rank."""
        res = sweep_degree_stacks(tiny, (2, 2, 2), reduce_iters=1)
        last = res.rows[-1]
        assert last["degrees"] == (2, 2, 2) and last["rank"] == len(res.rows)
        assert last["pick"] == "<- workflow pick"
        line = res.table().splitlines()[-1]
        assert line.lstrip().startswith("2x2x2") and line.endswith("<- workflow pick")
