"""Unit tests for the fault-injection subsystem (repro.faults).

Covers the value-like plan builders, the deterministic per-message fault
oracle, retry-policy timeout derivation, coverage-report accounting, and
the plan's own validation and the replication invariant checker — no
simulation here.
"""

import numpy as np
import pytest

from repro.faults import (
    CoverageReport,
    FaultPlan,
    FaultPlanError,
    LinkFault,
    LossRecord,
    RetryPolicy,
    canonical_phase,
    derive_timeout,
)
from repro.netmodel import EC2_LIKE
from repro.verify import check_replication


class TestBuilders:
    def test_builders_return_new_plans(self):
        base = FaultPlan()
        killed = base.kill(3).kill(5, at=1.5)
        assert dict(base.deaths) == {} and dict(killed.deaths) == {3: 0.0, 5: 1.5}
        stepped = killed.kill_at_step(1, "gather_up", 2)
        assert killed.step_killed_nodes == [] and stepped.step_killed_nodes == [1]
        ruled = stepped.with_rule(LinkFault(drop=0.5))
        assert stepped.rules == () and len(ruled.rules) == 1
        assert ruled.with_seed(7).seed == 7 and ruled.seed == 0

    def test_empty_plan_is_no_plan(self):
        """Emptiness is the plan's content: any death, step kill or rule
        makes it a plan; ``victims`` are the nodes it can kill."""
        assert not FaultPlan() and not FaultPlan(seed=4)
        assert FaultPlan().kill(2) and FaultPlan().kill_at_step(1, "down", 1)
        ruled = FaultPlan().with_rule(LinkFault(delay=0.01))
        assert ruled and ruled.victims == []
        assert FaultPlan({4: 1.0}).kill_at_step(1, "up", 1).victims == [1, 4]

    def test_chained_kills_accumulate(self):
        plan = FaultPlan().kill(3).kill(5, at=2.0)
        assert not plan.is_alive(3, 0.0)
        assert plan.is_alive(5, 1.0) and not plan.is_alive(5, 2.0)

    def test_recovery_window(self):
        plan = FaultPlan().kill(1, at=1.0).recover(1, at=3.0)
        assert plan.is_alive(1, 0.5)
        assert not plan.is_alive(1, 2.0)
        assert plan.is_alive(1, 3.0)

    def test_recovery_must_follow_death(self):
        with pytest.raises(FaultPlanError):
            FaultPlan().kill(1, at=2.0).recover(1, at=1.0)
        with pytest.raises(FaultPlanError):
            FaultPlan().recover(1, at=1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FaultPlan().kill_at_step(1, "dwn", 1),
            lambda: FaultPlan(step_kills={1: ("gahter_up", 1)}),
            lambda: LinkFault(phase="gahter_up", drop=1.0),
        ],
        ids=["kill_at_step", "step_kills", "LinkFault"],
    )
    def test_misspelt_phase_rejected(self, build):
        """A phase that names no protocol step would never fire: it is
        rejected where the plan or rule is built."""
        with pytest.raises(FaultPlanError, match="unknown phase"):
            build()

    def test_step_kill_phase_canonicalised(self):
        plan = FaultPlan().kill_at_step(0, "gather_up", 1)
        assert plan.step_kill_for(0) == ("up", 1)
        assert plan.step_killed_nodes == [0]

    def test_rule_probability_validation(self):
        with pytest.raises(FaultPlanError):
            LinkFault(drop=1.5)
        with pytest.raises(FaultPlanError):
            LinkFault(delay=-1.0)
        with pytest.raises(FaultPlanError):
            FaultPlan(seed=-1)

    def test_validate_rejects_out_of_range_targets(self):
        with pytest.raises(Exception):
            FaultPlan().kill(9).validate(4)
        with pytest.raises(FaultPlanError):
            FaultPlan().kill_at_step(9, "down", 1).validate(4)
        with pytest.raises(FaultPlanError):
            FaultPlan(rules=[LinkFault(src=9)]).validate(4)


class TestOracle:
    def test_canonical_phases(self):
        assert canonical_phase("reduce_down") == "down"
        assert canonical_phase("combined_down") == "down"
        assert canonical_phase("gather_up") == "up"
        assert canonical_phase("config") == "config"

    def test_decide_is_pure(self):
        plan = FaultPlan(seed=11).with_rule(LinkFault(drop=0.3, duplicate=0.2))
        for seq in range(20):
            a = plan.decide(1, 2, "reduce_down", 1, seq)
            b = plan.decide(1, 2, "down", 1, seq)
            assert (a.drop, a.duplicates, a.delay) == (b.drop, b.duplicates, b.delay)

    def test_drop_rate_tracks_probability(self):
        plan = FaultPlan(seed=5).with_rule(LinkFault(drop=0.2))
        drops = sum(
            plan.decide(s, d, "down", 1, q).drop
            for s in range(8)
            for d in range(8)
            if s != d
            for q in range(20)
        )
        rate = drops / (8 * 7 * 20)
        assert 0.15 < rate < 0.25

    def test_attempt_gives_independent_draw(self):
        plan = FaultPlan(seed=2).with_rule(LinkFault(drop=0.5))
        fates = {
            plan.decide(0, 1, "down", 1, 0, attempt=k).drop for k in range(12)
        }
        assert fates == {True, False}

    def test_rule_targeting(self):
        rule = LinkFault(src=1, phase="gather_up", layer=2, delay=0.01)
        plan = FaultPlan().with_rule(rule)
        assert plan.decide(1, 0, "up", 2, 0).delay == pytest.approx(0.01)
        assert plan.decide(2, 0, "up", 2, 0).clean
        assert plan.decide(1, 0, "up", 1, 0).clean
        assert plan.decide(1, 0, "down", 2, 0).clean

    def test_no_rules_is_clean(self):
        assert FaultPlan().decide(0, 1, "down", 1, 0).clean


class TestRetryPolicy:
    def test_backoff_ladder(self):
        p = RetryPolicy(base_timeout=1.0, backoff=2.0, max_retries=3)
        assert p.timeout_for(EC2_LIKE, 0, 0) == pytest.approx(1.0)
        assert p.timeout_for(EC2_LIKE, 0, 2) == pytest.approx(4.0)
        assert p.total_budget(EC2_LIKE, 0) == pytest.approx(1 + 2 + 4 + 8)

    def test_derived_timeout_scales_with_size(self):
        small = derive_timeout(EC2_LIKE, 1_000)
        large = derive_timeout(EC2_LIKE, 50_000_000)
        assert large > small > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)


class TestCoverageReport:
    def test_complete_report(self):
        rep = CoverageReport(total_ranks=2, in_sizes={0: 4, 1: 4})
        assert rep.complete
        assert rep.affected_ranks == []
        assert rep.min_satisfied_fraction == 1.0
        assert "complete" in rep.summary()

    def test_lost_ranges_merge_adjacent(self):
        rep = CoverageReport(
            total_ranks=2,
            in_sizes={0: 10, 1: 10},
            lost_indices={0: np.array([3, 4, 5, 9]), 1: np.array([4])},
            dead_members=(7,),
            losses=(LossRecord(rank=0, member=7, phase="up", layer=1),),
        )
        assert not rep.complete
        assert rep.affected_ranks == [0, 1]
        assert rep.lost_ranges() == [(3, 6), (9, 10)]
        assert list(rep.lost_union()) == [3, 4, 5, 9]
        assert rep.satisfied_fraction(0) == pytest.approx(0.6)
        assert rep.satisfied_fraction(1) == pytest.approx(0.9)
        assert rep.min_satisfied_fraction == pytest.approx(0.6)
        assert "dead members [7]" in rep.summary()


class TestStaticCheckers:
    def test_clean_plan_has_no_violations(self):
        plan = (
            FaultPlan(seed=1)
            .kill(0)
            .kill(2, at=1.0)
            .recover(2, at=2.0)
            .kill_at_step(1, "down", 1)
            .with_rule(LinkFault(src=7, dst=0, phase="reduce_down", drop=0.1))
        )
        plan.validate(8)

    def test_out_of_range_targets_reported(self):
        for plan, what in [
            (FaultPlan({9: 0.0}), "death targets node 9"),
            (FaultPlan(step_kills={8: ("down", 1)}), "step-kill targets node 8"),
            (FaultPlan(rules=[LinkFault(dst=4)]), "fault rule targets node 4"),
        ]:
            with pytest.raises(FaultPlanError, match=what):
                plan.validate(4)

    def test_replication_structure(self):
        assert check_replication(16, 2) == []
        assert check_replication(16, 1) == []
        assert any(
            v.invariant == "replication" for v in check_replication(15, 2)
        )
        assert any(
            v.invariant == "replication" for v in check_replication(8, 0)
        )
