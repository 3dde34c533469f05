"""The seeded chaos acceptance scenario, on both backends.

With 10% message drop, 5% duplication, two straggler links, and one
mid-run node death injected from one seeded :class:`FaultPlan`:

* ``KylixAllreduce(replication=2)`` returns results bit-identical to its own
  fault-free run (and matching the dense reference),
* plain ``KylixAllreduce`` under degraded completion returns a
  :class:`CoverageReport` whose lost-index set exactly matches the
  entries that actually differ from a fault-free run,
* identical seeds give bit-identical message traces,
* the real-process backend recovers from the same chaos via NACKs, and a
  death surfaces as :class:`PeerFailedError` in bounded time with zero
  live child processes afterwards.
"""

import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.allreduce import (
    ButterflyTopology,
    KylixAllreduce,
    ReduceSpec,
    dense_reduce,
)
from repro.cluster import Cluster
from repro.faults import FaultPlan, LinkFault, PeerFailedError, RetryPolicy
from repro.net import LocalKylix, TcpKylix
from repro.verify import worst_case_loss


def net_topology(degrees):
    return ButterflyTopology(degrees, int(np.prod(degrees)))


def make_case(m, n, seed):
    rng = np.random.default_rng(seed)
    idx = {
        r: np.unique(np.concatenate([rng.choice(n, 50), np.arange(r, n, m)]))
        for r in range(m)
    }
    spec = ReduceSpec(in_indices=idx, out_indices=idx)
    vals = {r: rng.normal(size=idx[r].size) for r in range(m)}
    return spec, vals


# CI's fault-matrix job sweeps this (3 seeds x both backends); every
# assertion below must hold for any seed, not just the default.
CHAOS_SEED = int(os.environ.get("KYLIX_CHAOS_SEED", "3"))


def chaos_plan(seed=CHAOS_SEED, *, death=None):
    """10% drop, 5% duplication, two straggler links (+ optional death)."""
    plan = (
        FaultPlan(seed=seed)
        .with_rule(LinkFault(drop=0.10, duplicate=0.05))
        .with_rule(LinkFault(src=1, delay=2e-3))
        .with_rule(LinkFault(src=5, delay=2e-3))
    )
    if death is not None:
        plan = plan.kill_at_step(*death)
    return plan


class TestSimulatedChaos:
    def test_plain_kylix_recovers_exactly(self):
        spec, vals = make_case(8, 500, 1)
        base = KylixAllreduce(Cluster(8), degrees=[4, 2]).allreduce(spec, vals)
        cluster = Cluster(8, failures=chaos_plan())
        net = KylixAllreduce(cluster, degrees=[4, 2])
        out = net.allreduce(spec, vals)
        for r in range(8):
            np.testing.assert_array_equal(out[r], base[r])
        injected = cluster.fabric.injected
        assert injected["dropped"] > 0 and injected["resent"] > 0

    def test_plain_kylix_chaos_plus_death_reports_exact_losses(self):
        spec, vals = make_case(8, 500, 2)
        base = KylixAllreduce(Cluster(8), degrees=[4, 2]).allreduce(spec, vals)
        plan = chaos_plan(death=(3, "up", 1))
        net = KylixAllreduce(Cluster(8, failures=plan), degrees=[4, 2], degrade=True)
        out = net.allreduce(spec, vals)
        report = net.last_report
        assert not report.complete and 3 in report.dead_members
        for r in range(8):
            if r == 3:
                assert report.satisfied_fraction(3) == 0.0
                continue
            lost = set(report.lost_indices.get(r, np.empty(0)).tolist())
            actually_lost = {
                int(ix)
                for i, ix in enumerate(spec.in_indices[r])
                if out[r][i] != base[r][i]
            }
            assert lost == actually_lost
            for i, ix in enumerate(spec.in_indices[r]):
                if int(ix) in lost:
                    assert out[r][i] == 0.0

    def test_replicated_chaos_plus_death_bit_identical(self):
        spec, vals = make_case(8, 500, 3)
        base_net = KylixAllreduce(Cluster(16), degrees=[4, 2], replication=2)
        base_net.configure(spec)
        base = base_net.reduce(vals)

        plan = chaos_plan(seed=CHAOS_SEED + 2, death=(3, "down", 1))
        net = KylixAllreduce(
            Cluster(16, failures=plan), degrees=[4, 2], replication=2
        )
        net.configure(spec)
        out = net.reduce(vals)
        ref = dense_reduce(spec, vals)
        for r in range(8):
            np.testing.assert_array_equal(out[r], base[r])
            np.testing.assert_allclose(out[r], ref[r], atol=1e-9)

    def test_identical_seeds_give_bit_identical_traces(self):
        spec, vals = make_case(8, 500, 4)

        def run_once():
            cluster = Cluster(8, failures=chaos_plan(), observe=True)
            net = KylixAllreduce(cluster, degrees=[4, 2])
            out = net.allreduce(spec, vals)
            return out, cluster.obs.messages, dict(cluster.fabric.injected), cluster.now

        out_a, trace_a, injected_a, now_a = run_once()
        out_b, trace_b, injected_b, now_b = run_once()
        assert trace_a == trace_b
        assert injected_a == injected_b
        assert now_a == now_b
        for r in range(8):
            np.testing.assert_array_equal(out_a[r], out_b[r])

    @pytest.mark.parametrize("jitter_seed", [0, 7, 123])
    def test_zero_jitter_traffic_bit_identical(self, jitter_seed):
        """RetryPolicy's docstring promise, property-tested: ``jitter=0``
        leaves the fault schedule, the message trace, and the simulated
        clock bit-identical to the default policy, whatever the jitter
        seed — the seed may only matter once jitter is non-zero."""
        spec, vals = make_case(8, 500, 10)

        def run_with(retry):
            cluster = Cluster(8, failures=chaos_plan(), observe=True)
            net = KylixAllreduce(cluster, degrees=[4, 2], retry=retry)
            out = net.allreduce(spec, vals)
            return out, cluster.obs.messages, dict(cluster.fabric.injected), cluster.now

        base_out, base_trace, base_injected, base_now = run_with(RetryPolicy())
        out, trace, injected, now = run_with(
            RetryPolicy(jitter=0.0, jitter_seed=jitter_seed)
        )
        assert trace == base_trace
        assert injected == base_injected
        assert now == base_now
        for r in range(8):
            np.testing.assert_array_equal(out[r], base_out[r])

    def test_nonzero_jitter_changes_deadlines_not_results(self):
        spec, vals = make_case(8, 500, 10)

        def run_with(retry):
            cluster = Cluster(8, failures=chaos_plan())
            net = KylixAllreduce(cluster, degrees=[4, 2], retry=retry)
            return net.allreduce(spec, vals), cluster.now

        base_out, base_now = run_with(RetryPolicy())
        out, now = run_with(RetryPolicy(jitter=0.5, jitter_seed=1))
        assert now != base_now  # desynchronized retry deadlines
        for r in range(8):
            np.testing.assert_array_equal(out[r], base_out[r])

    def test_different_seeds_inject_different_schedules(self):
        spec, vals = make_case(8, 500, 5)

        def injected_with(seed):
            cluster = Cluster(8, failures=chaos_plan(seed=seed))
            KylixAllreduce(cluster, degrees=[4, 2]).allreduce(spec, vals)
            return dict(cluster.fabric.injected)

        assert injected_with(3) != injected_with(17)

    def test_completion_within_retry_budget_bound(self):
        """The simulated clock at completion stays within an explicit
        per-layer deadline bound — no unbounded stall."""
        spec, vals = make_case(8, 500, 6)
        retry = RetryPolicy(max_retries=3)
        cluster = Cluster(8, failures=chaos_plan())
        net = KylixAllreduce(cluster, degrees=[4, 2], retry=retry)
        net.allreduce(spec, vals)
        nbytes = max(v.nbytes for v in vals.values())
        # Generous static bound: every protocol step (config/reduce/up,
        # 2 layers each) exhausting its full retry budget, doubled for
        # cascade waits.
        bound = 12 * retry.total_budget(cluster.params, 4 * nbytes)
        assert cluster.now < bound

    @pytest.mark.parametrize(
        "degrees,death",
        [
            ([4, 2], (3, "down", 2)),
            ([2, 2, 2], (3, "down", 2)),
            ([2, 2, 2], (3, "down", 3)),
            ([2, 4], (2, "down", 2)),
        ],
    )
    def test_combined_midstack_death_audit_is_exact(self, degrees, death):
        """The simulator port of the wire protocol's dead-partial key
        audit (mirroring TestTcpChaos): a node crashing *mid-stack* in the
        combined down pass takes an accumulated partial with it, and the
        coverage report must name exactly the requester indices whose
        aggregates actually degraded — no unreported losses, no false
        alarms — all within the static ``worst_case_loss`` envelope."""
        victim = death[0]
        spec, vals = make_case(8, 500, 21)
        base = KylixAllreduce(
            Cluster(8), degrees=degrees, degrade=True
        ).allreduce_combined(spec, vals)
        net = KylixAllreduce(
            Cluster(8, failures=chaos_plan(death=death)),
            degrees=degrees,
            degrade=True,
        )
        out = net.allreduce_combined(spec, vals)
        report = net.last_report
        assert not report.complete and victim in report.dead_members
        envelope = worst_case_loss(
            net.topology, spec, net.hasher, chaos_plan(death=death)
        )
        for r in range(8):
            if r == victim:
                continue
            lost = set(
                np.asarray(report.lost_indices.get(r, np.empty(0)))
                .astype(int)
                .tolist()
            )
            actually_lost = {
                int(ix)
                for i, ix in enumerate(spec.in_indices[r])
                if out[r][i] != base[r][i]
            }
            assert lost == actually_lost
            assert lost <= set(np.asarray(envelope.get(r, np.empty(0))).astype(int).tolist())


class TestLocalChaos:
    def test_local_backend_recovers_from_chaos(self):
        spec, vals = make_case(4, 200, 7)
        ref = dense_reduce(spec, vals)
        plan = (
            FaultPlan(seed=CHAOS_SEED)
            .with_rule(LinkFault(drop=0.10, duplicate=0.05))
            .with_rule(LinkFault(src=1, delay=0.02))
        )
        net = LocalKylix(
            [2, 2], faults=plan, retry=RetryPolicy(base_timeout=0.3)
        )
        out = net.allreduce(spec, vals)
        for r in range(4):
            np.testing.assert_allclose(out[r], ref[r], atol=1e-9)
        assert mp.active_children() == []

    def test_local_midrun_death_bounded_time_zero_children(self):
        spec, vals = make_case(4, 200, 8)
        retry = RetryPolicy(base_timeout=0.2, max_retries=2, backoff=2.0)
        net = LocalKylix(
            [2, 2],
            faults=FaultPlan().kill_at_step(2, "up", 1),
            retry=retry,
            timeout=30.0,
            join_timeout=5.0,
        )
        start = time.monotonic()
        with pytest.raises(PeerFailedError):
            net.allreduce(spec, vals)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0  # far below the old hard-coded 120 s hang
        deadline = time.monotonic() + 5.0
        while mp.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert mp.active_children() == []

    def test_local_death_after_config_before_traffic_heartbeat_reaps(self):
        """The heartbeat-reaping edge: the victim builds its transport
        (the 'configure' stage of the combined run) and dies immediately
        before its first send — it never posts a result and never sends
        a byte, so only the EOF of its control pipe (its exit closes the
        one end) tells the driver.  The typed error must arrive in
        seconds, far below both the 30 s run budget and the peers' own
        retry ladders."""
        spec, vals = make_case(4, 200, 11)
        retry = RetryPolicy(base_timeout=0.2, max_retries=2)
        net = LocalKylix(
            [2, 2],
            faults=FaultPlan().kill_at_step(1, "down", 1),
            retry=retry,
            timeout=30.0,
            join_timeout=5.0,
        )
        start = time.monotonic()
        with pytest.raises(PeerFailedError):
            net.allreduce(spec, vals)
        elapsed = time.monotonic() - start
        # Spawn/teardown slack and the peers' ladders, not the timeout.
        assert elapsed < 15.0
        deadline = time.monotonic() + 5.0
        while mp.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert mp.active_children() == []

    def test_local_midstack_death_audit_is_exact(self):
        """One case of TestSimulatedChaos's mid-stack audit on real
        processes: the hole policy is the core's, so a node crashing in
        the middle of a three-layer combined down pass must be reported
        exactly on pipes too — keys only the dead partial carried included
        — inside the static ``worst_case_loss`` envelope.  The generous
        deadline costs nothing: the victim's peers see EOF at once."""
        victim, degrees = 3, [2, 2, 2]
        spec, vals = make_case(8, 500, 21)
        base = LocalKylix(degrees).allreduce(spec, vals)
        plan = FaultPlan().kill_at_step(victim, "down", 2)
        net = LocalKylix(
            degrees,
            faults=plan,
            retry=RetryPolicy(base_timeout=1.0, max_retries=2),
            degrade=True,
            timeout=60.0,
        )
        out = net.allreduce(spec, vals)
        report = net.last_report
        assert not report.complete and victim in report.dead_members
        envelope = worst_case_loss(net_topology(degrees), spec, None, plan)
        for r in range(8):
            if r == victim:
                continue
            lost = set(
                np.asarray(report.lost_indices.get(r, np.empty(0)))
                .astype(int)
                .tolist()
            )
            actually_lost = {
                int(ix)
                for i, ix in enumerate(spec.in_indices[r])
                if out[r][i] != base[r][i]
            }
            assert lost == actually_lost
            assert lost <= set(np.asarray(envelope.get(r, np.empty(0))).astype(int).tolist())
        assert mp.active_children() == []

    @pytest.mark.parametrize("backend", [LocalKylix, TcpKylix], ids=["local", "tcp"])
    def test_local_midstack_death_with_late_audit_replies(self, monkeypatch, backend):
        """The mid-stack audit case with every retained-key fetch answered
        after the asker's fetch deadline, on pipes and on loopback TCP.
        Audit frames are control plane, which the fault plan never
        touches, so the holders' replies are held back in the transport
        itself (forked workers inherit the patch; ``TcpTransport`` is a
        ``SocketTransport``); 0.8 s is past the 0.5 s fetch deadline this
        retry policy once implied.  A kept value must still equal the
        fault-free run at every index the CoverageReport does not list as
        lost."""
        from repro.net.transport import SocketTransport

        send_frame = SocketTransport._send_frame

        def late_audit_replies(self, member, frame):
            if frame[0] == "audit-rep":
                self.schedule_at(
                    time.monotonic() + 0.8, lambda: send_frame(self, member, frame)
                )
            else:
                send_frame(self, member, frame)

        monkeypatch.setattr(SocketTransport, "_send_frame", late_audit_replies)
        victim, degrees = 3, [2, 2, 2]
        spec, vals = make_case(8, 500, 21)
        base = backend(degrees).allreduce(spec, vals)
        net = backend(
            degrees,
            faults=FaultPlan().kill_at_step(victim, "down", 2),
            retry=RetryPolicy(base_timeout=0.25, max_retries=2),
            degrade=True,
            timeout=60.0,
        )
        out = net.allreduce(spec, vals)
        report = net.last_report
        assert not report.complete and victim in report.dead_members
        for r in range(8):
            if r == victim:
                continue
            lost = set(np.asarray(report.lost_indices.get(r, np.empty(0))).astype(int).tolist())
            short = [
                int(ix)
                for i, ix in enumerate(spec.in_indices[r])
                if int(ix) not in lost and out[r][i] != base[r][i]
            ]
            assert short == [], f"rank {r}: silent short sums at {short[:8]}"
        assert mp.active_children() == []

    def test_local_dead_from_start_zero_children(self):
        spec, vals = make_case(4, 200, 9)
        net = LocalKylix(
            [2, 2],
            faults=FaultPlan().kill(1),
            retry=RetryPolicy(base_timeout=0.2, max_retries=2),
            timeout=30.0,
        )
        with pytest.raises(PeerFailedError) as ei:
            net.allreduce(spec, vals)
        assert ei.value.slot == 1
        deadline = time.monotonic() + 5.0
        while mp.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert mp.active_children() == []
