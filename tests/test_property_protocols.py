"""Deep property-based tests across the protocol matrix.

Dimensions covered: reduction operator (sum/min/max/or) × value shape
(scalar / rows) × dtype × topology (several degree stacks) × combined vs
separate messaging, plus a failure-injection property for replicated
networks: runs either produce exactly correct results or fail loudly —
never silently wrong values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allreduce import (
    KylixAllreduce,
    ReduceSpec,
    TreeAllreduce,
    dense_reduce,
)
from repro.cluster import Cluster
from repro.faults import FaultPlan
from repro.simul import SimulationError

STACKS = [(2, [2]), (4, [2, 2]), (6, [3, 2]), (8, [2, 2, 2])]


@st.composite
def protocol_case(draw):
    m, degrees = draw(st.sampled_from(STACKS))
    op = draw(st.sampled_from(["sum", "min", "max", "or"]))
    shape = draw(st.sampled_from([(), (2,)]))
    n = draw(st.integers(8, 50))
    dtype = np.uint64 if op == "or" else np.float64
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    in_idx, out_idx, vals = {}, {}, {}
    for r in range(m):
        in_idx[r] = rng.choice(n, size=rng.integers(1, max(2, n // 3)), replace=False)
        out_idx[r] = np.concatenate(
            [rng.choice(n, size=rng.integers(1, 8)), np.arange(r, n, m)]
        ).astype(np.int64)
        if op == "or":
            vals[r] = rng.integers(
                0, 2**40, size=(out_idx[r].size, *shape), dtype=np.uint64
            )
        else:
            vals[r] = rng.normal(size=(out_idx[r].size, *shape))
    spec = ReduceSpec(in_idx, out_idx, value_shape=shape, dtype=dtype, op=op)
    return m, degrees, spec, vals


@given(protocol_case())
@settings(max_examples=40, deadline=None)
def test_prop_every_op_shape_topology_matches_reference(case):
    m, degrees, spec, vals = case
    ref = dense_reduce(spec, vals)
    got = KylixAllreduce(Cluster(m), degrees).allreduce(spec, vals)
    for r in range(m):
        if spec.dtype.kind == "u":
            np.testing.assert_array_equal(got[r], ref[r])
        else:
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)


@given(protocol_case())
@settings(max_examples=25, deadline=None)
def test_prop_combined_equals_separate_across_matrix(case):
    m, degrees, spec, vals = case
    sep = KylixAllreduce(Cluster(m), degrees).allreduce(spec, vals)
    comb = KylixAllreduce(Cluster(m), degrees).allreduce_combined(spec, vals)
    for r in range(m):
        np.testing.assert_array_equal(sep[r], comb[r])


@given(protocol_case())
@settings(max_examples=20, deadline=None)
def test_prop_tree_agrees_with_kylix(case):
    m, degrees, spec, vals = case
    kylix = KylixAllreduce(Cluster(m), degrees).allreduce(spec, vals)
    tree = TreeAllreduce(Cluster(m)).allreduce(spec, vals)
    for r in range(m):
        if spec.dtype.kind == "u":
            np.testing.assert_array_equal(kylix[r], tree[r])
        else:
            np.testing.assert_allclose(kylix[r], tree[r], atol=1e-9)


# ---------------------------------------------------------------------------
# Failure-injection property: correct or loud, never silently wrong.
# ---------------------------------------------------------------------------


@given(
    st.sets(st.integers(0, 7), max_size=5),
    st.integers(0, 500),
)
@settings(max_examples=40, deadline=None)
def test_prop_replicated_correct_or_loud(dead_set, seed):
    """Any subset of dead physical nodes (8 nodes, 4 logical slots, s=2):
    if every logical slot keeps a live replica the result is exact;
    otherwise the run raises.  There is no silent-corruption outcome."""
    m_log, s = 4, 2
    rng = np.random.default_rng(seed)
    n = 60
    in_idx = {r: rng.choice(n, size=10, replace=False) for r in range(m_log)}
    out_idx = {r: np.arange(r, n, m_log) for r in range(m_log)}
    vals = {r: rng.normal(size=out_idx[r].size) for r in range(m_log)}
    spec = ReduceSpec(in_idx, out_idx)
    ref = dense_reduce(spec, vals)

    cluster = Cluster(8, failures=FaultPlan({n: 0.0 for n in dead_set}), seed=seed)
    net = KylixAllreduce(cluster, [2, 2], replication=s)

    slot_dead = {slot: {slot, slot + m_log} <= dead_set for slot in range(m_log)}
    survivable = not any(slot_dead.values())

    if survivable:
        net.configure(spec)
        got = net.reduce(vals)
        for r in range(m_log):
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)
    else:
        with pytest.raises((SimulationError, RuntimeError)):
            net.configure(spec)
            net.reduce(vals)


@given(
    st.lists(st.tuples(st.integers(0, 7), st.floats(0.0, 2e-3)), max_size=3),
    st.integers(0, 200),
)
@settings(max_examples=25, deadline=None)
def test_prop_mid_run_deaths_correct_or_loud(deaths, seed):
    """Timed mid-run deaths: same correct-or-loud guarantee."""
    m_log, s = 4, 2
    plan = FaultPlan({node: t for node, t in deaths})
    dead_set = set(plan.deaths)

    rng = np.random.default_rng(seed)
    n = 40
    in_idx = {r: rng.choice(n, size=8, replace=False) for r in range(m_log)}
    out_idx = {r: np.arange(r, n, m_log) for r in range(m_log)}
    vals = {r: rng.normal(size=out_idx[r].size) for r in range(m_log)}
    spec = ReduceSpec(in_idx, out_idx)
    ref = dense_reduce(spec, vals)

    cluster = Cluster(8, failures=plan, seed=seed)
    net = KylixAllreduce(cluster, [2, 2], replication=s)
    try:
        net.configure(spec)
        got = net.reduce(vals)
    except (SimulationError, RuntimeError):
        # Loud failure is acceptable only if some slot lost both replicas.
        slot_both_dead = any(
            {slot, slot + m_log} <= dead_set for slot in range(m_log)
        )
        assert slot_both_dead, f"spurious failure with deaths {deaths}"
        return
    for r in range(m_log):
        np.testing.assert_allclose(got[r], ref[r], atol=1e-9)


@pytest.mark.parametrize("backend, examples", [("sim", 20), ("local", 5)])
def test_prop_runner_exact_under_a_kill_and_a_late_link(backend, examples):
    """The runner's judgement over drawn schedules: one step kill in the
    down or up pass plus one straggler link, delayed by at most
    ``STRAGGLER_DELAY`` (under the first receive deadline, so the message
    is late, not lost).  Every run is exact outside its reported losses,
    and every loss lies inside the static bound."""
    from repro.faults import LinkFault
    from repro.obs.runner import EXPERIMENTS, STRAGGLER_DELAY, run_traced

    @settings(max_examples=examples, deadline=None)
    @given(
        kill=st.tuples(st.integers(0, 7), st.sampled_from(["down", "up"]), st.integers(1, 2)),
        link=st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True),
        delay=st.floats(1e-4, STRAGGLER_DELAY),
    )
    def check(kill, link, delay):
        w = EXPERIMENTS["quickstart"](0)
        w["faults"] = FaultPlan().with_rule(LinkFault(src=link[0], dst=link[1], delay=delay))
        _, info = run_traced(w, backend=backend, failure=[kill])
        assert info["exact"], (kill, link, delay)
        assert info["bound_violations"] == [], (kill, link, delay)

    check()
