"""The sans-IO protocol core, driven with no engine and no transport.

``repro.allreduce.core`` is pure protocol: generators that yield one
``Exchange`` per layer.  The lockstep pump below is a complete (if
unrealistic) driver in twenty lines — every node advances one exchange,
parts are routed by group position, every node is resumed — which is the
point: anything the simulator driver and the pipe/TCP driver add is IO,
not protocol.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.allreduce import ButterflyTopology, KylixAllreduce, ReduceSpec, core, dense_reduce
from repro.cluster import Cluster
from repro.net import LocalKylix
from repro.sparse import MultiplicativeHasher

STACKS = [[8], [2, 2, 2], [4, 2], [2, 4], [3, 5]]


def pump(gens):
    """Run one pass on every node in lockstep; ``{rank: return value}``."""
    results = {}
    exchanges = {rank: next(gen) for rank, gen in gens.items()}
    while exchanges:
        resumed = {}
        for rank, ex in exchanges.items():
            # Member j cut its state into one part per group position;
            # ours is the one at our own position.
            got = [exchanges[member].parts[ex.pos] for member in ex.group]
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
