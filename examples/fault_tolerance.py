#!/usr/bin/env python
"""Fault tolerance: replication + packet racing surviving dead nodes (§V).

A 16-node cluster hosts an 8-slot logical butterfly with replication
factor 2.  We kill machines — including mid-run — and show that every
reduction still returns exact results as long as one replica of each
logical slot survives, at a modest time overhead.  Then we turn on the
full fault-injection subsystem (docs/faults.md): a seeded FaultPlan
drops, duplicates, and delays messages while a node dies mid-run, the
retry layer recovers what it can, and an unreplicated network completes
degraded with an exact CoverageReport of what was lost.

Run:  python examples/fault_tolerance.py
"""

from dataclasses import replace

import numpy as np

from repro.allreduce import (
    KylixAllreduce,
    ReduceSpec,
    dense_reduce,
    expected_failures_survived,
)
from repro.cluster import Cluster
from repro.faults import FaultPlan, LinkFault, PeerFailedError
from repro.netmodel import EC2_LIKE

M_PHYSICAL, REPLICATION = 16, 2
M_LOGICAL = M_PHYSICAL // REPLICATION
N = 2_000

rng = np.random.default_rng(7)
out_idx = {
    r: np.unique(np.concatenate([rng.choice(N, 200), np.arange(r, N, M_LOGICAL)]))
    for r in range(M_LOGICAL)
}
in_idx = {r: rng.choice(N, 100, replace=False) for r in range(M_LOGICAL)}
spec = ReduceSpec(in_indices=in_idx, out_indices=out_idx)
values = {r: rng.normal(size=out_idx[r].size) for r in range(M_LOGICAL)}
reference = dense_reduce(spec, values)

# Jittery commodity fabric: variance is what packet racing exploits.
params = replace(EC2_LIKE, latency_sigma=0.8, service_sigma=0.8)


def run(failures=None, label=""):
    cluster = Cluster(M_PHYSICAL, params=params, failures=failures, seed=3)
    net = KylixAllreduce(cluster, degrees=[4, 2], replication=REPLICATION)
    net.configure(spec)
    t0 = cluster.now
    result = net.reduce(values)
    elapsed = cluster.now - t0
    for r in range(M_LOGICAL):
        np.testing.assert_allclose(result[r], reference[r], atol=1e-9)
    dead = failures.victims if failures else []
    print(f"{label:<38} reduce {elapsed * 1e3:7.2f} ms   dead={dead}   exact ✓")
    return elapsed


print(f"{M_PHYSICAL} machines, {M_LOGICAL} logical slots, replication={REPLICATION}")
print(f"expected random failures survivable ≈ "
      f"{expected_failures_survived(M_LOGICAL, REPLICATION):.1f} (birthday bound)\n")

base = run(None, "no failures")
run(FaultPlan().kill(2), "one machine dead from the start")
run(FaultPlan({n: 0.0 for n in (1, 6, 12)}), "three machines dead (distinct slots)")
run(FaultPlan({5: 2e-4}), "machine 5 dies mid-run")

# For comparison: the unreplicated network at the same logical width.
cluster = Cluster(M_LOGICAL, params=params, seed=3)
plain = KylixAllreduce(cluster, degrees=[4, 2])
plain.configure(spec)
t0 = cluster.now
plain.reduce(values)
print(f"\nunreplicated {M_LOGICAL}-node reference      "
      f"reduce {(cluster.now - t0) * 1e3:7.2f} ms")
print("replication overhead stays well under the worst-case 2x thanks to racing")

# And the failure mode replication cannot save: a whole replica group.
# A non-empty FaultPlan switches the deadline/retry layer on, so instead
# of a simulation deadlock strict mode raises a typed error naming the slot.
try:
    run(FaultPlan().kill(3).kill(3 + M_LOGICAL), "both replicas of slot 3 dead")
except PeerFailedError as exc:
    print(f"\nboth replicas of slot 3 dead -> {type(exc).__name__}: "
          f"slot {exc.slot} (typed, names the root cause)")

# ---------------------------------------------------------------------------
# Chaos: message faults + a mid-run death from one seeded FaultPlan.
# ---------------------------------------------------------------------------
print("\n--- seeded chaos: 10% drop, 5% duplication, straggler link, "
      "mid-run death ---")
chaos = (
    FaultPlan(seed=3)
    .with_rule(LinkFault(drop=0.10, duplicate=0.05))
    .with_rule(LinkFault(src=1, delay=2e-3))
    .kill_at_step(5, "down", 1)
)
elapsed = run(chaos, "replicated, chaos + mid-run death")
print(f"retries + racing mask everything; overhead vs clean run "
      f"{elapsed / base:.2f}x")

# Without replication the same chaos cannot be fully masked once a node
# dies — degraded completion returns the surviving sums plus an exact
# account of what was lost, instead of raising.
plan = (
    FaultPlan(seed=3)
    .with_rule(LinkFault(drop=0.10, duplicate=0.05))
    .kill_at_step(3, "up", 1)
)
cluster = Cluster(M_LOGICAL, params=params, failures=plan, seed=3)
net = KylixAllreduce(cluster, degrees=[4, 2], degrade=True)
out = net.allreduce(spec, values)
rep = net.last_report
ranges = rep.lost_ranges()
print(f"\nunreplicated + degrade=True: dead members {list(rep.dead_members)}, "
      f"{len(rep.affected_ranks)}/{rep.total_ranks} ranks affected, "
      f"{len(ranges)} lost key ranges, e.g. {ranges[:4]}")
surv = min(rep.satisfied_fraction(r) for r in out)
print(f"surviving ranks keep >= {surv:.0%} of their requested entries")
for r in out:           # everything not reported lost is still exact
    lost = set(np.asarray(rep.lost_indices.get(r, [])).tolist())
    keep = [i for i, ix in enumerate(spec.in_indices[r]) if int(ix) not in lost]
    np.testing.assert_allclose(out[r][keep], reference[r][keep], atol=1e-9)
print("every entry outside the reported lost set verified exact ✓")
