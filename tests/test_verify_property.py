"""Property tests for the plan checker: odd cluster sizes, degenerate
stacks, and randomised sparse workloads (extends the strategy matrix of
``test_property_protocols.py`` with non-power-of-two shapes)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allreduce import ReduceSpec
from repro.allreduce.topology import ButterflyTopology
from repro.verify import (
    analyze_flow,
    build_plans,
    check_topology,
    default_stacks,
    verify_stack,
)

# Odd/composite sizes with their interesting factorisations, plus the two
# degenerate stacks the module docstrings promise: [m] (direct) and
# [2]*log2(m) (binary butterfly).
ODD_STACKS = [
    (3, [3]),
    (5, [5]),
    (6, [6]),
    (6, [3, 2]),
    (7, [7]),
    (9, [3, 3]),
    (10, [5, 2]),
    (12, [2, 3, 2]),
    (15, [3, 5]),
    (15, [15]),
    (8, [8]),
    (8, [2, 2, 2]),
    (16, [2, 2, 2, 2]),
]


@st.composite
def spec_case(draw):
    m, degrees = draw(st.sampled_from(ODD_STACKS))
    n = draw(st.integers(m, 120))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    in_idx, out_idx = {}, {}
    for r in range(m):
        # strided base guarantees coverage; random extras create collisions
        out_idx[r] = np.concatenate(
            [np.arange(r, n, m), rng.choice(n, size=rng.integers(1, 8))]
        ).astype(np.int64)
        in_idx[r] = rng.choice(n, size=rng.integers(1, max(2, n // 3)), replace=False)
    return m, degrees, ReduceSpec(in_idx, out_idx)


def violations(topo, spec):
    """Topology invariants plus the certifier's pass over fresh plans."""
    plans = build_plans(topo, spec)
    return check_topology(topo) + analyze_flow(topo, plans, spec).violations


@given(spec_case())
@settings(max_examples=40, deadline=None)
def test_prop_plans_satisfy_all_invariants(case):
    m, degrees, spec = case
    assert violations(ButterflyTopology(degrees, m), spec) == []


@given(st.sampled_from(ODD_STACKS), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_prop_synthetic_sweep_clean(stack, seed):
    m, degrees = stack
    assert verify_stack(m, degrees, n=96, seed=seed) == []


@given(st.integers(2, 24))
@settings(max_examples=23, deadline=None)
def test_prop_default_stacks_factor_and_verify(m):
    for degrees in default_stacks(m):
        assert int(np.prod(degrees)) == m
        assert verify_stack(m, degrees, n=64) == []


@given(spec_case())
@settings(max_examples=15, deadline=None)
def test_prop_single_node_edge_case(case):
    # m=1 is its own degenerate stack: one layer of degree 1.
    _, _, spec = case
    topo = ButterflyTopology([1], 1)
    one = ReduceSpec(
        {0: spec.in_indices[0]}, {0: spec.out_indices[0]}
    )
    assert violations(topo, one) == []
