"""The static checkers: clean topologies and plans pass, seeded violations fire.

Each topology fixture mutates one structural property of an otherwise
valid topology and asserts that the matching invariant reports it.  The
plan cases run rows of the certifier's corruption table
(``test_verify_flow.CORRUPTIONS``) through both plan-checker entry points.
"""

import numpy as np
import pytest

from repro import (
    Cluster,
    KylixAllreduce,
    ProtocolInvariantError,
    ReduceSpec,
)
from repro.__main__ import main as cli_main
from repro.allreduce.topology import ButterflyTopology
from repro.faults import FaultPlan, LinkFault
from repro.verify import (
    build_plans,
    check_topology,
    default_stacks,
    synthetic_spec,
    verify_stack,
)
from test_verify_flow import assert_rejected


def invariants_fired(violations):
    return {v.invariant for v in violations}


class TestCleanPlans:
    @pytest.mark.parametrize(
        "m,degrees",
        [(4, [4]), (4, [2, 2]), (8, [2, 2, 2]), (8, [4, 2]), (12, [3, 2, 2]), (16, [4, 4])],
    )
    def test_shipped_stacks_pass(self, m, degrees):
        assert verify_stack(m, degrees, n=256) == []

    def test_default_stacks_include_degenerates(self):
        stacks = default_stacks(16)
        assert [16] in stacks  # direct all-to-all
        assert [2, 2, 2, 2] in stacks  # binary butterfly

    def test_static_plans_match_simulated_configure(self):
        m, degrees = 8, [4, 2]
        spec = synthetic_spec(m, n=150, seed=7)
        net = KylixAllreduce(Cluster(m), degrees)
        net.configure(spec)
        static = build_plans(net.topology, spec)
        for r in range(m):
            sim, st = net.plans[r], static[r]
            assert sim.n_out == st.n_out and sim.n_in == st.n_in
            np.testing.assert_array_equal(sim.bottom_out_keys, st.bottom_out_keys)
            np.testing.assert_array_equal(sim.bottom_pos, st.bottom_pos)
            for a, b in zip(sim.layers, st.layers):
                assert a.group == b.group and a.pos == b.pos
                assert a.out_slices == b.out_slices and a.in_slices == b.in_slices
                for x, y in zip(a.in_recv_maps, b.in_recv_maps):
                    np.testing.assert_array_equal(x, y)
                assert a.in_prev_size == b.in_prev_size

    def test_verify_plans_method_passes_after_configure(self):
        m = 8
        spec = synthetic_spec(m, n=100)
        same = ReduceSpec(in_indices=spec.out_indices, out_indices=spec.out_indices)
        values = {r: np.ones(spec.out_indices[r].size) for r in range(m)}
        drops = FaultPlan(seed=0).with_rule(LinkFault(drop=0.2))
        for net, run in (
            (KylixAllreduce(Cluster(m), [2, 4]), lambda net: net.configure(spec)),
            # in = out: the in side shares the out side's read-only arrays
            (KylixAllreduce(Cluster(m), [2, 4]), lambda net: net.configure(same)),
            (KylixAllreduce(Cluster(m), [4, 2]),
             lambda net: net.allreduce_combined(spec, values)),
            (KylixAllreduce(Cluster(2 * m), [4, 2], replication=2),
             lambda net: net.configure(spec)),
            (KylixAllreduce(Cluster(m, seed=1, failures=drops), [2, 2, 2]),
             lambda net: net.configure(spec)),
        ):
            run(net)
            net.verify_plans()  # should not raise

    def test_verify_plans_requires_configure(self):
        net = KylixAllreduce(Cluster(4), [2, 2])
        with pytest.raises(RuntimeError):
            net.verify_plans()

    def test_topology_self_check_passes(self):
        ButterflyTopology([8, 4, 2], 64).self_check()


class TestSeededViolations:
    """Corrupt one property at a time; the matching invariant must fire."""

    def test_range_tiling_violation(self):
        topo = ButterflyTopology([2, 2], 4)

        class Broken(ButterflyTopology):
            def key_range(self, node, layer):
                rng = super().key_range(node, layer)
                if layer == 1 and node == 0:
                    return type(rng)(rng.lo, rng.hi - 1)  # leave a gap
                return rng

        broken = Broken([2, 2], 4)
        assert "range-tiling" in invariants_fired(check_topology(broken))
        assert check_topology(topo) == []

    def test_range_nesting_violation(self):
        class Broken(ButterflyTopology):
            def key_range(self, node, layer):
                rng = super().key_range(node, layer)
                if layer == 2 and node == 1:
                    # node 1's layer-2 range swapped for its sibling's
                    return super().key_range(0, layer)
                return rng

        fired = invariants_fired(check_topology(Broken([2, 2], 4)))
        assert "range-nesting" in fired

    def test_group_symmetry_violation(self):
        class Broken(ButterflyTopology):
            def group(self, node, layer):
                g = super().group(node, layer)
                if node == 0 and layer == 1:
                    g = list(reversed(g))  # wrong position order
                return g

        fired = invariants_fired(check_topology(Broken([2, 2], 4)))
        assert "group-symmetry" in fired

    def test_slice_cover_violation(self):
        assert_rejected("slice_drops_a_key", "slice_not_unit_stride")

    def test_map_injective_violation(self):
        assert_rejected("map_duplicate_position")

    def test_map_out_of_bounds_violation(self):
        assert_rejected("map_out_of_bounds")

    def test_map_cover_violation(self):
        assert_rejected("union_position_nobody_sends")

    def test_group_consistency_violation(self):
        assert_rejected("pos_of_swapped", "group_members_swapped", "wrong_position")

    def test_nesting_violation(self):
        assert_rejected("in_prev_size_bumped")

    def test_missing_layer_is_nesting_violation(self):
        assert_rejected("layer_missing")

    def test_part_size_violation(self):
        assert_rejected("map_shorter_than_part")

    def test_bottom_projection_violation(self):
        assert_rejected("bottom_pos_out_of_bounds")

    def test_verify_plans_method_detects_corruption(self):
        m = 8
        net = KylixAllreduce(Cluster(m), [2, 2, 2])
        net.configure(synthetic_spec(m, n=100))
        net.plans[0].layers[0].in_prev_size += 1
        with pytest.raises(ProtocolInvariantError):
            net.verify_plans()
        # Slot 0's second replica (physical 8), the one results are read
        # from once replica 0 is dead, is checked too.
        net = KylixAllreduce(Cluster(2 * m), [4, 2], replication=2)
        net.configure(synthetic_spec(m, n=200, seed=1))
        net.plans[8].layers[0].in_prev_size += 1
        with pytest.raises(ProtocolInvariantError) as exc:
            net.verify_plans()
        assert exc.value.invariant == "replication"

    def test_self_check_raises_on_broken_topology(self):
        class Broken(ButterflyTopology):
            def group(self, node, layer):
                g = super().group(node, layer)
                return list(reversed(g)) if node == 0 else g

        with pytest.raises(ProtocolInvariantError):
            Broken([2, 2], 4).self_check()


class TestVerifyCLI:
    def test_verify_passes_on_shipped_stacks(self, capsys):
        assert cli_main(["verify", "--stacks", "4,6,8", "--n", "128"]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out
        assert "m=6 degrees=3x2" in out

    def test_verify_rejects_bad_stacks_argument(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["verify", "--stacks", "4,x"])

    def test_verify_fails_on_violation(self, capsys, monkeypatch):
        import repro.verify.plan as planmod
        from repro.verify.invariants import Violation

        def broken(m, degrees, **kw):
            return [Violation("nesting", "seeded failure", node=0, layer=1)]

        monkeypatch.setattr(planmod, "verify_stack", broken)
        assert cli_main(["verify", "--stacks", "4"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "seeded failure" in out

