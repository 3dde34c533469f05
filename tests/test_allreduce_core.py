"""The sans-IO protocol core, driven with no engine and no transport.

``repro.allreduce.core`` is pure protocol: generators that yield one
``Exchange`` per layer.  The lockstep pump below is a complete (if
unrealistic) driver in twenty lines — every node advances one exchange,
parts are routed by group position, every node is resumed — which is the
point: anything the simulator driver and the pipe/TCP driver add is IO,
not protocol.
"""

import ast
import pickle
from pathlib import Path
import tracemalloc
from types import SimpleNamespace
import zlib

import numpy as np
import pytest

from repro.allreduce import ButterflyTopology, KylixAllreduce, ReduceSpec, core, dense_reduce
from repro.allreduce.base import reduction_identity, reduction_ufunc
from repro.cluster import Cluster
from repro.faults import FaultPlan
from repro.net import LocalKylix
from repro.sparse import MultiplicativeHasher, union_with_maps
from repro.verify.errors import ProtocolInvariantError
from repro.verify.plan import build_plans, synthetic_spec
from test_plan_golden import CASES as GOLDEN_CASES
from test_plan_golden import equal_sets

STACKS = [[8], [2, 2, 2], [4, 2], [2, 4], [3, 5]]


def pump(gens, on_resume=None):
    """Run one pass on every node in lockstep; ``{rank: return value}``.
    ``on_resume(rank, exchange, got)`` sees every resume."""
    results = {}
    exchanges = {rank: next(gen) for rank, gen in gens.items()}
    while exchanges:
        resumed = {}
        for rank, ex in exchanges.items():
            # Member j cut its state into one part per group position;
            # ours is the one at our own position.
            got = [exchanges[member].parts[ex.pos] for member in ex.group]
            if on_resume is not None:
                on_resume(rank, ex, got)
            try:
                resumed[rank] = gens[rank].send(got)
            except StopIteration as stop:
                results[rank] = stop.value
        exchanges = resumed
    return results


def make_case(m, seed, *, integral):
    rng = np.random.default_rng(seed)
    n = 40 * m
    idx = {
        r: np.unique(np.concatenate([rng.choice(n, 30), np.arange(r, n, m)]))
        for r in range(m)
    }
    spec = ReduceSpec(in_indices=idx, out_indices=idx)
    if integral:  # sums of small integers are exact in any order
        vals = {r: rng.integers(-9, 10, idx[r].size).astype(np.float64) for r in range(m)}
    else:
        vals = {r: rng.normal(size=idx[r].size) for r in range(m)}
    return spec, vals


def pump_up(spec, plans, bottoms):
    """Bottom partials -> results aligned with ``spec.in_indices``."""
    ups = {}
    for rank, plan in plans.items():
        r, _ = core.bottom_projection(plan, spec, bottoms[rank])
        ups[rank] = core.up_pass(plan, spec, r)
    return {
        rank: r[plans[rank].in_inverse] for rank, (r, _) in pump(ups).items()
    }


def pump_allreduce(degrees, spec, vals, *, combined):
    m = int(np.prod(degrees))
    topo, hasher = ButterflyTopology(degrees, m), MultiplicativeHasher()
    if combined:
        downs = pump(
            {r: core.down_pass(topo, hasher, spec, r, vals[r]) for r in range(m)}
        )
        plans = {r: plan for r, (plan, _, _) in downs.items()}
        bottoms = {r: v for r, (_, v, _) in downs.items()}
    else:
        configs = pump({r: core.down_pass(topo, hasher, spec, r) for r in range(m)})
        plans = {r: plan for r, (plan, _, _) in configs.items()}
        downs = pump(
            {r: core.value_down_pass(plans[r], spec, vals[r]) for r in range(m)}
        )
        bottoms = {r: v for r, (v, _) in downs.items()}
    return pump_up(spec, plans, bottoms)


@pytest.mark.parametrize("combined", [False, True], ids=["config+reduce", "combined"])
@pytest.mark.parametrize("degrees", STACKS, ids=lambda d: "x".join(map(str, d)))
def test_lockstep_pump_matches_dense_reduce(degrees, combined):
    m = int(np.prod(degrees))
    spec, vals = make_case(m, seed=m, integral=True)
    out = pump_allreduce(degrees, spec, vals, combined=combined)
    ref = dense_reduce(spec, vals)
    for r in range(m):
        np.testing.assert_array_equal(out[r], ref[r])


def test_a_hole_in_a_strict_up_pass_is_an_invariant_violation():
    """Outside degraded completion every member's up part is required: a
    ``None`` part raises instead of leaving its slice unwritten."""
    degrees = [2, 2, 2]
    m = 8
    spec, vals = make_case(m, seed=3, integral=True)
    topo, hasher = ButterflyTopology(degrees, m), MultiplicativeHasher()
    configs = pump({r: core.down_pass(topo, hasher, spec, r) for r in range(m)})
    plans = {r: plan for r, (plan, _, _) in configs.items()}
    downs = pump({r: core.value_down_pass(plans[r], spec, vals[r]) for r in range(m)})
    ups = {
        r: core.up_pass(plans[r], spec, core.bottom_projection(plans[r], spec, v)[0])
        for r, (v, _) in downs.items()
    }

    def drop_one(rank, ex, got):
        if rank == 0 and ex.layer == 1:
            got[1 - ex.pos] = None

    with pytest.raises(ProtocolInvariantError) as err:
        pump(ups, drop_one)
    assert err.value.invariant == "up-reassembly"


def test_pump_simulator_and_pipes_are_bit_identical():
    """One core, three drivers: same seed, same bits — not merely close."""
    degrees = [2, 2]
    spec, vals = make_case(4, seed=5, integral=False)
    pumped = pump_allreduce(degrees, spec, vals, combined=True)
    sim = KylixAllreduce(Cluster(4), degrees).allreduce_combined(spec, vals)
    pipes = LocalKylix(degrees).allreduce(spec, vals)
    for r in range(4):
        np.testing.assert_array_equal(pumped[r], sim[r])
        np.testing.assert_array_equal(pumped[r], pipes[r])
        np.testing.assert_array_equal(
            pumped[r], pump_allreduce(degrees, spec, vals, combined=False)[r]
        )


# ---------------------------------------------------------------------------
# One union per layer where the in and out sides coincide
# ---------------------------------------------------------------------------
def configure_pumped(name, on_resume=None):
    """Config-only down passes of a golden plan case: ``(spec, topo, plans)``."""
    m, degrees, make_spec = GOLDEN_CASES[name]
    spec = make_spec()
    topo, hasher = ButterflyTopology(degrees, m), MultiplicativeHasher()
    out = pump({r: core.down_pass(topo, hasher, spec, r) for r in range(m)}, on_resume)
    return spec, topo, {r: plan for r, (plan, _, _) in out.items()}


def shares(lp):
    """Whether a layer's in side is the out side's arrays — all or none."""
    same = [i is o for i, o in zip(lp.in_recv_maps, lp.out_recv_maps)]
    assert all(same) or not any(same)
    return all(same)


def test_equal_sets_share_every_layer():
    _, _, plans = configure_pumped("m64_4x4x4_inout")
    for plan in plans.values():
        assert plan.in_inverse is plan.out_inverse
        for lp in plan.layers:
            assert shares(lp) and lp.in_union_size == lp.out_union_size
            # Arrays shared, lists not: the lists stay editable per side.
            assert lp.in_recv_maps is not lp.out_recv_maps
            assert lp.in_slices == lp.out_slices and lp.in_slices is not lp.out_slices


# (rank, layer) of m16_4x4_one_off whose group sent at least one unequal
# in/out pair.  Rank 5's in set lacks one key that only rank 5 holds: the
# member its layer-1 part with that key goes to (13) falls back, then the
# member 13's layer-2 part with that key goes to (15).  Every other pair
# of the two layers shares.
ONE_OFF_UNSHARED = [(13, 1), (15, 2)]


def test_one_off_shares_exactly_where_every_received_pair_was_equal():
    equal = {}

    def record(rank, ex, got):
        equal[rank, ex.layer] = all(np.array_equal(p[0], p[1]) for p in got)

    _, _, plans = configure_pumped("m16_4x4_one_off", record)
    assert not np.array_equal(plans[5].in_inverse, plans[5].out_inverse)
    shared = {
        (r, layer)
        for r, plan in plans.items()
        for layer, lp in enumerate(plan.layers, start=1)
        if shares(lp)
    }
    assert shared == {key for key, eq in equal.items() if eq}
    assert sorted(set(equal) - shared) == ONE_OFF_UNSHARED


def test_shared_arrays_are_read_only():
    _, maps = union_with_maps(
        [np.array([1, 5], dtype=np.uint64), np.array([2, 5], dtype=np.uint64)]
    )
    _, _, shared = configure_pumped("m64_4x4x4_inout")
    _, _, unshared = configure_pumped("m16_4x4")
    arrays = [maps[0], shared[0].out_inverse, shared[0].layers[0].in_recv_maps[1]]
    arrays += [unshared[0].in_inverse, unshared[0].out_inverse]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


@pytest.mark.parametrize("name", ["m64_4x4x4_inout", "m16_4x4"])
def test_plan_nbytes_counts_each_buffer_once(name):
    spec, topo, plans = configure_pumped(name)
    for rank, twin in build_plans(topo, spec).items():
        # The unshared twin: every map side is one array its maps tile.
        arrays = [twin.out_inverse, twin.in_inverse, twin.bottom_pos, twin.bottom_hit]
        arrays += [twin.bottom_out_keys]
        arrays += [m for lp in twin.layers for m in lp.out_recv_maps + lp.in_recv_maps]
        assert twin.nbytes == sum(a.nbytes for a in arrays)
        if name.endswith("_inout"):
            assert plans[rank].nbytes <= 0.75 * twin.nbytes
        else:
            assert plans[rank].nbytes == twin.nbytes


def test_plans_and_cached_reduce_stay_small():
    """What a configured plan and one cached reduce cost in memory, as
    multiples of the input, on the in = out golden case (64 nodes,
    [4,4,4]).  ``intp`` maps and a reduce that held its spent arrays
    across every wait measured 4.77x and 4.76x; ``int32`` maps and
    releases before each wait measure 2.70x and ~2.25x."""
    m, degrees, make_spec = GOLDEN_CASES["m64_4x4x4_inout"]
    spec = make_spec()
    net = KylixAllreduce(Cluster(m), degrees=degrees)
    plans = net.configure(spec)
    index_bytes = sum(spec.out_indices[r].nbytes for r in range(m))
    assert sum(plan.nbytes for plan in plans.values()) <= 3.7 * index_bytes
    values = {r: np.ones(spec.out_indices[r].size) for r in range(m)}
    net.reduce(values)  # warm: the first reduce pays one-off allocations
    tracemalloc.start()
    try:
        result = net.reduce(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * sum(r.nbytes for r in result.values())


def test_degraded_run_on_shared_plans_matches_unshared_plans():
    """A kill at down layer 1 under degraded completion: the shared plans
    of ``configure`` and the unshared ones of ``build_plans`` give the same
    values and the same CoverageReport."""
    spec = equal_sets(synthetic_spec(8, n=400, seed=3))
    rng = np.random.default_rng(3)
    vals = {r: rng.integers(-9, 10, spec.out_indices[r].size).astype(float) for r in range(8)}
    runs = []
    for adopt in (False, True):
        net = KylixAllreduce(
            Cluster(8, failures=FaultPlan().kill_at_step(3, "down", 1)),
            degrees=[4, 2], degrade=True,
        )
        if adopt:
            net.adopt_plans(spec, build_plans(net.topology, spec, net.hasher))
        else:
            assert all(shares(lp) for p in net.configure(spec).values() for lp in p.layers)
        runs.append((net.reduce(vals), net.last_report))
    (a, ra), (b, rb) = runs
    assert not ra.complete and 3 in ra.dead_members
    assert sorted(a) == sorted(b) == [r for r in range(8) if r != 3]
    for r in a:
        np.testing.assert_array_equal(a[r], b[r])
    assert (ra.total_ranks, ra.in_sizes, ra.dead_members, ra.losses) == (
        rb.total_ranks, rb.in_sizes, rb.dead_members, rb.losses
    )
    assert sorted(ra.lost_indices) == sorted(rb.lost_indices)
    for r in ra.lost_indices:
        np.testing.assert_array_equal(ra.lost_indices[r], rb.lost_indices[r])


def test_local_kylix_on_equal_sets_matches_dense_reduce():
    spec = equal_sets(synthetic_spec(4, n=300, seed=7))
    rng = np.random.default_rng(7)
    vals = {r: rng.integers(-9, 10, spec.out_indices[r].size).astype(float) for r in range(4)}
    out = LocalKylix([2, 2]).allreduce(spec, vals)
    ref = dense_reduce(spec, vals)
    for r in range(4):
        np.testing.assert_array_equal(out[r], ref[r])


def test_core_imports_no_io():
    """Sans-IO, checked: no engine, fabric, transport, thread, socket or
    clock is importable from the core."""
    tree = ast.parse(Path(core.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # core lives in repro.allreduce: one dot is that package.
            base = ["repro", "allreduce"][: 3 - node.level] if node.level else []
            imported.add(".".join(base + ([node.module] if node.module else [])))
    forbidden = ("repro.simul", "repro.cluster", "repro.net", "threading", "socket", "time")
    for name in imported:
        assert not any(
            name == bad or name.startswith(bad + ".") for bad in forbidden
        ), f"core.py imports {name}"
    assert {"repro.sparse", "repro.allreduce.base"} <= imported  # resolver sanity


def gather_op_scatter(lp, spec, parts, degrade):
    """The scatter as it was before it accumulated in place: gather the
    partial at each map, combine, scatter back.  The oracle below."""
    ufunc = reduction_ufunc(spec.op)
    partial = np.full(
        (lp.out_union_size, *spec.value_shape),
        reduction_identity(spec.op, spec.dtype), dtype=spec.dtype,
    )
    mask = np.ones(lp.out_union_size, dtype=bool) if degrade else None
    for m, part in zip(lp.out_recv_maps, parts):
        if part is None:
            mask[m] = False
            continue
        if degrade:
            partial[m] = ufunc(partial[m], part[0])
            mask[m] &= part[1]
        else:
            partial[m] = ufunc(partial[m], part)
    return partial, mask


@pytest.mark.parametrize("op", ["sum", "max", "min", "or"])  # every op ReduceSpec has
@pytest.mark.parametrize("dtype", ["f4", "f8", "i4", "i8", "u8"])
@pytest.mark.parametrize("value_shape", [(), (3,)])
@pytest.mark.parametrize("degrade", [False, True])
def test_scatter_matches_gather_op_scatter_byte_for_byte(op, dtype, value_shape, degrade):
    if op == "or" and dtype[0] == "f":
        pytest.skip("bitwise-or reduces integers only")
    rng = np.random.default_rng(zlib.crc32(repr((op, dtype, value_shape, degrade)).encode()))
    size = 300
    maps = [np.sort(rng.choice(size, n, replace=False)).astype(np.intp) for n in (120, 0, 250)]
    lp = SimpleNamespace(out_recv_maps=maps, out_union_size=size)
    spec = ReduceSpec(
        in_indices={0: np.arange(3)}, out_indices={0: np.arange(3)},
        value_shape=value_shape, dtype=dtype, op=op,
    )
    parts = []
    for m in maps:
        values = (rng.normal(size=(m.size, *value_shape)) * 50).astype(spec.dtype)
        parts.append((values, rng.random(m.size) < 0.9) if degrade else values)
    if degrade:
        parts[1] = None  # an unrecoverable member
    got, got_mask = core._scatter(lp, spec, parts, degrade)
    want, want_mask = gather_op_scatter(lp, spec, parts, degrade)
    assert got.dtype is spec.dtype and got.tobytes() == want.tobytes()
    assert (got_mask is None) == (want_mask is None)
    if degrade:
        assert got_mask.tobytes() == want_mask.tobytes()


def test_spec_dtype_is_the_canonical_instance():
    fresh = pickle.loads(pickle.dumps(np.dtype(np.float64)))
    assert fresh is not np.dtype(np.float64)  # unpickling makes an equal copy
    spec = ReduceSpec(in_indices={0: np.arange(3)}, out_indices={0: np.arange(3)}, dtype=fresh)
    assert spec.dtype is np.dtype(np.float64)
    assert pickle.loads(pickle.dumps(spec)).dtype is np.dtype(np.float64)
