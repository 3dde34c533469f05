"""Golden plan fingerprints: what no change to the union kernel may move.

Every literal in ``GOLDEN`` is a :class:`~repro.verify.flow.Certificate`
fingerprint — sha256 over the full memoised plan state (groups, slices,
union sizes, every position map, the bottom union) — captured with the
tree-merge kernel (a mergesort per tree level, then a ``searchsorted``
per part) and asserted unchanged since.  The two ``equal_sets`` cases were
captured while every layer still ran two unions; since then
``core.down_pass`` shares one union between the in and out sides where
its group sent equal pairs, and ``build_plans`` still does not.  Each
case configures three ways, which must agree with each other and with
the literal: the simulated ``configure`` (``core.down_pass`` in
config-only mode), the combined configure-and-reduce pass, and the
static ``build_plans`` sweep.

``python tests/test_plan_golden.py`` prints the current values.
"""

import numpy as np
import pytest

from repro.allreduce import KylixAllreduce, ReduceSpec
from repro.allreduce.topology import ButterflyTopology
from repro.cluster import Cluster
from repro.verify.flow import certify
from repro.verify.plan import synthetic_spec


def overlapping_spec(m, n, seed, k):
    """Heavy key overlap: every rank draws ``k`` keys from a shared
    power-law head plus a strided slice that keeps coverage total."""
    rng = np.random.default_rng(seed)
    out_idx = {
        r: np.unique(np.concatenate([rng.zipf(1.3, k) % n, np.arange(r, n, m)]))
        for r in range(m)
    }
    in_idx = {r: np.unique(rng.choice(n, k // 2)) for r in range(m)}
    return ReduceSpec(in_indices=in_idx, out_indices=out_idx)


def equal_sets(spec, *, drop_from=None):
    """Every rank asks for the keys it contributes: ``spec``'s out sets,
    as copies (not the same objects), so equality must be read off the
    values.  Rank ``drop_from``'s in set lacks its middle key."""
    in_idx = {r: keys.copy() for r, keys in spec.out_indices.items()}
    if drop_from is not None:
        keys = in_idx[drop_from]
        in_idx[drop_from] = np.delete(keys, keys.size // 2)
    return ReduceSpec(in_indices=in_idx, out_indices=spec.out_indices)


CASES = {
    "m64_4x4x4": (64, [4, 4, 4], lambda: overlapping_spec(64, 30_000, seed=25, k=1_500)),
    "m16_4x4": (16, [4, 4], lambda: synthetic_spec(16, n=4_000, seed=12)),
    "m8_2x2x2": (8, [2, 2, 2], lambda: synthetic_spec(8, n=1_500, seed=13)),
    # In = out on every rank: one union per layer is shared by both sides.
    "m64_4x4x4_inout": (
        64, [4, 4, 4],
        lambda: equal_sets(overlapping_spec(64, 30_000, seed=25, k=1_500)),
    ),
    # In = out except on rank 5: only the members its missing key is routed
    # to fall back to two unions.
    "m16_4x4_one_off": (
        16, [4, 4], lambda: equal_sets(synthetic_spec(16, n=4_000, seed=12), drop_from=5)
    ),
}


def fingerprints(name):
    m, degrees, make_spec = CASES[name]
    spec = make_spec()
    topo = ButterflyTopology(degrees, m)
    configured = KylixAllreduce(Cluster(m), degrees=degrees).configure(spec)
    combined_net = KylixAllreduce(Cluster(m), degrees=degrees)
    combined_net.allreduce_combined(
        spec, {r: np.ones(spec.out_indices[r].size) for r in range(m)}
    )
    return configured, {
        "configure": certify(topo, spec, plans=configured).fingerprint,
        "combined": certify(topo, spec, plans=combined_net.plans).fingerprint,
        "build_plans": certify(topo, spec).fingerprint,
    }


GOLDEN = {
    "m64_4x4x4": "4a11bd163883f49fa1c38f02aeb7548345e510525c6d81bc76de81c546028976",
    "m16_4x4": "f7e2dc72e5092d93055b5f76b160e04b14ea7489f02f58ba5ae6f7fc0fd10748",
    "m8_2x2x2": "3ada425bea971aa8d658779e2ae2cc724f105a2c45afd29a98e218ace6caa836",
    "m64_4x4x4_inout": "d17b8238e399d544d02df565667e73488a90f05fa3492c9858fe450c5a921904",
    "m16_4x4_one_off": "1e88654a940f698d88796d6fbd3d8d023ef434d02b610821bb92cb750cf8fb7e",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_fingerprint(name):
    plans, got = fingerprints(name)
    assert got == dict.fromkeys(got, GOLDEN[name])
    for plan in plans.values():
        for lp in plan.layers:
            for m in lp.out_recv_maps + lp.in_recv_maps:
                assert m.dtype == np.intp and m.flags.c_contiguous


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: fingerprints(name)[1] for name in sorted(CASES)}, width=100)
