"""The experiment runner: a named workload run under a failure schedule
on any backend, and judged — the one runner behind ``trace``,
``monitor``, ``certify`` and ``drive-cluster``.

Each experiment is a small, seeded end-to-end workload that finishes in
seconds.  ``quickstart`` mirrors ``examples/quickstart.py`` exactly (same
sizes, same seed), so the trace you get from the CLI is the timeline of
the README example.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "EXPERIMENTS",
    "BACKENDS",
    "FAILURE_MODES",
    "VICTIM_RANK",
    "STRAGGLER_NODE",
    "STRAGGLER_DELAY",
    "Schedule",
    "failure_schedule",
    "merge_reports",
    "parse_kill",
    "run_traced",
]

BACKENDS = ("sim", "local", "tcp")
FAILURE_MODES = ("none", "crash", "slow-node", "partition")
#: The afflicted rank of every failure mode: a mode and a seed name a schedule.
VICTIM_RANK = 1

#: The deliberately slow node in the ``straggler`` experiment and the
#: fixed delay its outgoing links carry.  Exposed so the acceptance tests
#: can assert the analyzer's straggler report names exactly this node.
#: The delay is chosen to be enormous against the simulator's netmodel
#: latencies (~ms) yet comfortably inside the real backend's 0.25 s
#: receive-timeout ladder, so the same experiment runs on both backends
#: without exhausting any retry budget.
STRAGGLER_NODE = 5
STRAGGLER_DELAY = 0.05


def _workload(m: int, n: int, contrib: int, want: int, seed: int):
    """Random sparse in/out sets with a home slice (full coverage)."""
    rng = np.random.default_rng(seed)
    out_idx = {
        r: np.unique(np.concatenate([rng.choice(n, contrib), np.arange(r, n, m)]))
        for r in range(m)
    }
    in_idx = {r: rng.choice(n, want, replace=False) for r in range(m)}
    values = {r: rng.normal(size=out_idx[r].size) for r in range(m)}
    return out_idx, in_idx, values


def _quickstart(seed: int) -> Dict[str, Any]:
    out_idx, in_idx, values = _workload(8, 1_000, 120, 60, seed)
    return {"m": 8, "n": 1_000, "degrees": [4, 2], "out_idx": out_idx,
            "in_idx": in_idx, "values": values}


def _demo(seed: int) -> Dict[str, Any]:
    out_idx, in_idx, values = _workload(16, 5_000, 400, 200, seed)
    return {"m": 16, "n": 5_000, "degrees": [4, 2, 2], "out_idx": out_idx,
            "in_idx": in_idx, "values": values}


def _faults(seed: int) -> Dict[str, Any]:
    """The quickstart workload under 5% message drops — the trace shows
    NACK retransmissions and the fault counters fill in."""
    from ..faults import FaultPlan, LinkFault

    w = _quickstart(seed)
    w["faults"] = FaultPlan(seed=seed).with_rule(LinkFault(drop=0.05))
    return w


def _straggler(seed: int) -> Dict[str, Any]:
    """The quickstart workload with one deliberately slow node: every
    message *from* :data:`STRAGGLER_NODE` is delayed by
    :data:`STRAGGLER_DELAY` seconds.  The analyzer's straggler report
    must finger that node (reason "link") from the per-source delivery
    latencies — this is the §V skew scenario in miniature.

    The explicit ``base_timeout`` matters: the delay dwarfs the
    netmodel-derived deadlines the fault plan would otherwise
    auto-enable, so without it every delayed message would burn the
    whole retry budget instead of simply arriving late.
    """
    from ..faults import FaultPlan, LinkFault, RetryPolicy

    w = _quickstart(seed)
    w["faults"] = FaultPlan(seed=seed).with_rule(
        LinkFault(src=STRAGGLER_NODE, delay=STRAGGLER_DELAY)
    )
    w["retry"] = RetryPolicy(base_timeout=0.25, max_retries=4)
    return w


def _soak(seed: int) -> Dict[str, Any]:
    """The 64-node soak: the scheduled-CI workload — a full three-layer
    butterfly under 2% message drops with observation on.  Big enough to
    exercise cross-layer interleaving and the NACK path at scale, small
    enough to finish in seconds on the simulator."""
    from ..faults import FaultPlan, LinkFault

    out_idx, in_idx, values = _workload(64, 20_000, 500, 250, seed)
    return {"m": 64, "n": 20_000, "degrees": [4, 4, 4], "out_idx": out_idx,
            "in_idx": in_idx, "values": values,
            "faults": FaultPlan(seed=seed).with_rule(LinkFault(drop=0.02))}


EXPERIMENTS: Dict[str, Callable[[int], Dict[str, Any]]] = {
    "quickstart": _quickstart,
    "demo": _demo,
    "faults": _faults,
    "straggler": _straggler,
    "soak": _soak,
}




def parse_kill(text: str) -> Tuple[int, str, int]:
    """``N:PHASE:L`` → ``(node, phase, layer)``, or ``ValueError``."""
    bits = text.split(":")
    if len(bits) != 3 or bits[1] not in ("config", "down", "up"):
        raise ValueError(f"a kill is N:PHASE:L with PHASE in config|down|up, got {text!r}")
    try:
        return int(bits[0]), bits[1], int(bits[2])
    except ValueError:
        raise ValueError(f"a kill's node and layer are integers, got {text!r}") from None


class Schedule(NamedTuple):
    """What a failure schedule means for one run."""

    plan: Any  # the FaultPlan the run executes (None: fault-free)
    retry: Any  # RetryPolicy override (None: the workload's, else the backend default)
    degrade: bool  # complete on survivors and report the losses
    bound: Any  # the crash plan worst_case_loss bounds the losses by
    absent: Tuple[int, ...]  # victims whose values reached nobody; results unjudged


def failure_schedule(failure: Any, w: Dict[str, Any], seed: int) -> Schedule:
    """Map ``failure`` — a name of :data:`FAILURE_MODES` or a list of
    ``(node, phase, layer)`` kills — onto workload ``w``'s fault plan.

    ``crash`` is the kill ``(VICTIM_RANK, "down", 1)``; kills degrade and
    are bounded by their own plan.  A partitioned node sends and hears
    nothing, so it is bounded as dead from the start.  A victim that dies
    before its first layer-1 send of configuration or the down pass, or
    is partitioned, is *absent*: no survivor owes its values.
    """
    from ..faults import FaultPlan, LinkFault, RetryPolicy

    m, base = w["m"], w.get("faults")
    victim = VICTIM_RANK % m
    if failure is None or failure == "none":
        return Schedule(base, None, False, None, ())
    plan = (base or FaultPlan()).with_seed(seed)
    if failure == "slow-node":
        # Late, not lost: the first deadline outlasts the delay.
        plan = plan.with_rule(LinkFault(src=victim, delay=STRAGGLER_DELAY))
        return Schedule(plan, RetryPolicy(base_timeout=0.25, max_retries=4), False, None, ())
    if failure == "partition":
        plan = plan.with_rule(LinkFault(src=victim, drop=1.0))
        plan = plan.with_rule(LinkFault(dst=victim, drop=1.0))
        retry = RetryPolicy(base_timeout=0.15, max_retries=1)
        return Schedule(plan, retry, True, FaultPlan().kill(victim), (victim,))
    if failure == "crash":
        failure = [(victim, "down", 1)]
    elif isinstance(failure, str):
        raise ValueError(f"unknown failure mode {failure!r}; choose from {FAILURE_MODES}")
    for node, phase, layer in failure:
        if not 0 <= node < m:
            raise ValueError(f"kill node {node} outside [0, {m})")
        plan = plan.kill_at_step(node, phase, layer)
    # Small deadlines: the dead member is given up on in seconds.
    retry = w.get("retry") or RetryPolicy(base_timeout=0.2, max_retries=2)
    absent = tuple(node for node, phase, layer in failure if layer == 1 and phase != "up")
    return Schedule(plan, retry, True, plan, absent)


def merge_reports(reports: Sequence[Any]) -> Any:
    """One :class:`~repro.faults.CoverageReport` for several runs of a spec."""
    from ..faults import CoverageReport

    lost: Dict[int, list] = {}
    for rep in reports:
        for r, ix in rep.lost_indices.items():
            lost.setdefault(r, []).append(ix)
    losses = tuple(e for rep in reports for e in rep.losses)
    return CoverageReport(
        reports[0].total_ranks, reports[0].in_sizes,
        {r: np.concatenate(ix) for r, ix in lost.items()},
        tuple(e.member for e in losses), losses,
    )


def run_traced(
    experiment: Any,
    *,
    backend: Any = "sim",
    seed: int = 0,
    failure: Any = None,
    rounds: int = 1,
    telemetry_interval: Optional[float] = None,
) -> Tuple[Any, Dict[str, Any]]:
    """Run an experiment fully observed and judge it; return ``(observer, info)``.

    ``experiment`` is a name of :data:`EXPERIMENTS` or a workload dict of
    that shape; ``backend`` one of :data:`BACKENDS` or a launched
    cluster's manifest; ``failure`` a :func:`failure_schedule` input;
    ``rounds`` reductions run (one session on a real backend).
    ``telemetry_interval`` samples every node's metrics into
    ``observer.telemetry`` (on ``sim`` on the virtual clock, so the same
    seed gives a bit-identical series).

    ``info`` holds the verdict: ``exact`` — every result of a rank not
    absent equals the reference outside its reported losses, and every
    missing result is reported lost — with the ``checked_rounds`` /
    ``exact_rounds`` counts behind it, the merged coverage ``report``,
    and under degraded completion ``bound_violations`` (losses outside
    the static :func:`~repro.verify.flow.worst_case_loss`).  Real backends
    add the session's ``errors``, ``dead`` ranks and config ``cache``
    counts; the simulator its traffic ``stats`` and virtual
    ``config_seconds`` / ``reduce_seconds``.
    """
    if isinstance(backend, str) and backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if telemetry_interval is not None and telemetry_interval <= 0:
        raise ValueError("telemetry_interval must be positive")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    from ..allreduce import ButterflyTopology, ReduceSpec, dense_reduce, dense_reduce_without
    from ..faults import exact_outside_lost, lost_outside_bound
    from ..verify.flow import worst_case_loss
    from .observer import Observer

    if isinstance(experiment, str) and experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}"
        )
    name = experiment if isinstance(experiment, str) else "workload"
    w = EXPERIMENTS[name](seed) if isinstance(experiment, str) else experiment
    m, degrees, values = w["m"], w["degrees"], w["values"]
    sched = failure_schedule(failure, w, seed)
    spec = ReduceSpec(in_indices=w["in_idx"], out_indices=w["out_idx"])
    label = backend if isinstance(backend, str) else "cluster"
    info: Dict[str, Any] = {
        "experiment": name, "backend": label, "m": m, "n": w["n"],
        "degrees": degrees, "seed": seed,
    }
    retry = sched.retry or w.get("retry")
    if backend == "sim":
        from ..allreduce import KylixAllreduce
        from ..cluster import Cluster
        from .telemetry import Sampler, TelemetryAgent

        cluster = Cluster(m, seed=seed, failures=sched.plan, observe=True)
        obs = cluster.obs
        obs.name = f"{name}@sim"
        sampler = None
        if telemetry_interval is not None:
            sampler = Sampler(
                cluster.engine,
                TelemetryAgent(obs, node=-1, interval=float(telemetry_interval)),
            ).start()
        net = KylixAllreduce(cluster, degrees=degrees, retry=retry, degrade=sched.degrade)
        net.configure(spec)
        results: Dict[int, list] = {}
        reports = []
        for _ in range(rounds):
            out = net.reduce(values)
            reports.append(net.last_report)
            round_lost = reports[-1].lost_indices if sched.degrade else {}
            for r, got in out.items():
                results.setdefault(r, []).append((got, round_lost.get(r)))
        if sampler is not None:
            sampler.stop(flush=True)
        report = merge_reports(reports) if sched.degrade else None
        info["stats"] = cluster.stats
        info["config_seconds"] = net.config_timing.elapsed
        info["reduce_seconds"] = net.last_reduce_timing.elapsed
    else:
        from ..net import LocalKylix, TcpKylix
        from ..net.cluster import ClusterKylix

        obs = Observer(name=f"{name}@{label}")
        options = dict(
            faults=sched.plan, retry=retry, observe=obs, degrade=sched.degrade,
            telemetry_interval=telemetry_interval,
        )
        if isinstance(backend, str):
            net = (LocalKylix if backend == "local" else TcpKylix)(degrees, **options)
        else:
            net = ClusterKylix(backend, degrees, **options)
        session = net.run_session(spec, [values] * rounds)
        results = {
            r: [(got, lost_raw) for got, lost_raw, _ in per_round]
            for r, per_round in session.rounds.items()
        }
        report = session.report
        info["errors"] = [f"rank {r}: {exc}" for r, exc in session.errors.items()]
        info["dead"] = session.dead
        info["cache"] = session.cache

    # The reference rule, the exactness check and the bound gate.
    if sched.absent:
        reference = dense_reduce_without(spec, values, sched.absent)
    else:
        reference = dense_reduce(spec, values)
    reported = report.lost_indices if report is not None else {}
    owed = [r for r in range(m) if len(results.get(r, ())) < rounds and r not in reported]
    judged = [
        exact_outside_lost(got, reference[r], spec.in_indices[r], lost_raw)
        for r, per_round in results.items() if r not in sched.absent
        for got, lost_raw in per_round
    ]
    info.update(
        report=report,
        checked_rounds=len(judged),
        exact_rounds=sum(judged),
        exact=all(judged) and not owed,
    )
    if sched.degrade:
        bound = worst_case_loss(ButterflyTopology(degrees, m), spec, None, sched.bound)
        info["bound_violations"] = [
            f"rank {r}: {extra.size} lost indices outside the static bound"
            for r, extra in lost_outside_bound(reported, bound.get).items()
        ]
    return obs, info
