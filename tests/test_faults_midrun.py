"""Mid-run node deaths on the simulated backends.

The scenarios the paper's fault story (§V) must survive — and the ones
plain Kylix must now *report* instead of hanging or corrupting:

* a node dying between configuration and the reduce pass,
* a node dying during the up-pass,
* strict mode raising :class:`PeerFailedError` naming the dead slot,
* degraded completion whose :class:`CoverageReport` exactly matches the
  entries that actually differ from a fault-free run (the route-chain
  oracle: lost entries hold the reduction identity, everything else is
  bit-identical).
"""

import numpy as np
import pytest

from repro.allreduce import (
    KylixAllreduce,
    ReduceSpec,
    dense_reduce,
    dense_reduce_without,
)
from repro.cluster import Cluster
from repro.faults import FaultPlan, PeerFailedError, exact_outside_lost


def make_case(m, n, seed):
    rng = np.random.default_rng(seed)
    idx = {
        r: np.unique(np.concatenate([rng.choice(n, 50), np.arange(r, n, m)]))
        for r in range(m)
    }
    spec = ReduceSpec(in_indices=idx, out_indices=idx)
    vals = {r: rng.normal(size=idx[r].size) for r in range(m)}
    return spec, vals


def assert_report_is_exact(out, base, spec, report, survivors):
    """The route-chain oracle: the report's lost set per rank must equal
    exactly the positions whose value differs from the fault-free run,
    and those positions must hold the reduction identity (0 for sum)."""
    for r in survivors:
        lost = set(report.lost_indices.get(r, np.empty(0)).tolist())
        actually_lost = {
            int(ix)
            for i, ix in enumerate(spec.in_indices[r])
            if out[r][i] != base[r][i]
        }
        assert lost == actually_lost, f"rank {r}: reported {lost} != {actually_lost}"
        for i, ix in enumerate(spec.in_indices[r]):
            if int(ix) in lost:
                assert out[r][i] == 0.0


class TestPlainKylixStrict:
    def test_death_during_up_pass_names_slot(self):
        spec, vals = make_case(8, 400, 1)
        plan = FaultPlan().kill_at_step(3, "up", 1)
        net = KylixAllreduce(Cluster(8, failures=plan), degrees=[4, 2])
        with pytest.raises(PeerFailedError) as ei:
            net.allreduce(spec, vals)
        assert ei.value.slot == 3

    def test_death_during_down_pass_names_slot(self):
        spec, vals = make_case(8, 400, 2)
        plan = FaultPlan().kill_at_step(5, "down", 2)
        net = KylixAllreduce(Cluster(8, failures=plan), degrees=[2, 2, 2])
        with pytest.raises(PeerFailedError) as ei:
            net.allreduce(spec, vals)
        assert ei.value.slot == 5

    def test_peerfailederror_is_a_runtimeerror(self):
        assert issubclass(PeerFailedError, RuntimeError)


class TestPlainKylixDegraded:
    @pytest.mark.parametrize(
        "phase,layer",
        [("config", 1), ("config", 2), ("down", 1), ("down", 2), ("up", 1), ("up", 2)],
    )
    def test_coverage_report_matches_actual_losses(self, phase, layer):
        spec, vals = make_case(8, 400, 3)
        base = KylixAllreduce(Cluster(8), degrees=[4, 2]).allreduce(spec, vals)

        plan = FaultPlan().kill_at_step(3, phase, layer)
        net = KylixAllreduce(Cluster(8, failures=plan), degrees=[4, 2], degrade=True)
        out = net.allreduce(spec, vals)
        report = net.last_report
        assert report is not None and not report.complete
        assert 3 in report.dead_members
        survivors = [r for r in range(8) if r != 3]
        assert set(out) == set(survivors)
        assert_report_is_exact(out, base, spec, report, survivors)
        # The dead rank itself is reported fully lost.
        assert report.satisfied_fraction(3) == 0.0

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_dead_from_start_is_exact_without_the_victim(self, seed):
        """A node dead before the run starts sends nothing, so its keys
        reach no union: the survivors owe the reduction over the other
        members, exactly, and the victim's own slice is reported lost."""
        spec, vals = make_case(8, 400, seed)
        net = KylixAllreduce(
            Cluster(8, failures=FaultPlan().kill(3)), degrees=[4, 2], degrade=True
        )
        out = net.allreduce(spec, vals)
        report = net.last_report
        assert set(out) == {r for r in range(8) if r != 3}
        assert report.satisfied_fraction(3) == 0.0
        ref = dense_reduce_without(spec, vals, [3])
        for r in out:
            assert exact_outside_lost(
                out[r], ref[r], spec.in_indices[r], report.lost_indices.get(r)
            ), f"rank {r}"

    def test_death_between_config_and_reduce(self):
        """Configure cleanly, then the node dies before its first reduce
        send — the split-protocol analogue of 'died between phases'."""
        spec, vals = make_case(8, 400, 4)
        plan = FaultPlan().kill_at_step(2, "down", 1)
        cluster = Cluster(8, failures=plan)
        net = KylixAllreduce(cluster, degrees=[4, 2], degrade=True)
        net.configure(spec)  # config phase is untouched by a "down" kill
        assert not cluster.fabric.is_crashed(2)
        net.reduce(vals)
        assert cluster.fabric.is_crashed(2)
        report = net.last_report
        assert not report.complete and 2 in report.dead_members

    def test_losses_empty_on_clean_run(self):
        spec, vals = make_case(4, 200, 5)
        plan = FaultPlan(seed=1)  # installs the machinery, injects nothing
        net = KylixAllreduce(Cluster(4, failures=plan), degrees=[2, 2], degrade=True)
        out = net.allreduce(spec, vals)
        assert net.last_report.complete
        ref = dense_reduce(spec, vals)
        for r in range(4):
            np.testing.assert_allclose(out[r], ref[r], atol=1e-9)


class TestReplicatedMidRun:
    def test_midrun_death_is_bit_identical_to_fault_free(self):
        spec, vals = make_case(8, 400, 6)
        base_net = KylixAllreduce(Cluster(16), degrees=[4, 2], replication=2)
        base_net.configure(spec)
        base = base_net.reduce(vals)

        plan = FaultPlan().kill_at_step(3, "down", 1)
        net = KylixAllreduce(
            Cluster(16, failures=plan), degrees=[4, 2], replication=2
        )
        net.configure(spec)
        out = net.reduce(vals)
        for r in range(8):
            np.testing.assert_array_equal(out[r], base[r])

    def test_midrun_death_during_up_pass(self):
        spec, vals = make_case(8, 400, 7)
        ref = dense_reduce(spec, vals)
        plan = FaultPlan().kill_at_step(11, "up", 2)
        net = KylixAllreduce(
            Cluster(16, failures=plan), degrees=[4, 2], replication=2
        )
        net.configure(spec)
        out = net.reduce(vals)
        for r in range(8):
            np.testing.assert_allclose(out[r], ref[r], atol=1e-9)

    def test_whole_replica_group_dead_raises_typed_error(self):
        spec, vals = make_case(4, 200, 8)
        plan = FaultPlan().kill_at_step(1, "down", 1).kill_at_step(5, "down", 1)
        net = KylixAllreduce(
            Cluster(8, failures=plan), degrees=[2, 2], replication=2
        )
        net.configure(spec)
        with pytest.raises(PeerFailedError) as ei:
            net.reduce(vals)
        assert ei.value.slot == 1

    def test_whole_replica_group_dead_degraded_reports_full_loss(self):
        spec, vals = make_case(4, 200, 9)
        plan = FaultPlan().kill_at_step(1, "down", 1).kill_at_step(5, "down", 1)
        net = KylixAllreduce(
            Cluster(8, failures=plan), degrees=[2, 2], replication=2, degrade=True
        )
        net.configure(spec)
        out = net.reduce(vals)
        report = net.last_report
        assert 1 not in out
        assert report.satisfied_fraction(1) == 0.0


class TestInstallValidation:
    def test_cluster_rejects_out_of_range_fault_targets(self):
        with pytest.raises(ValueError):
            Cluster(4, failures=FaultPlan().kill(9))
        with pytest.raises(ValueError):
            Cluster(4, failures=FaultPlan().kill_at_step(7, "down", 1))
