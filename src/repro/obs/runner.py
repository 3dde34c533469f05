"""Named traced experiments for ``python -m repro trace``.

Each experiment is a small, seeded end-to-end workload that runs under
full observation on either execution backend and finishes in seconds —
the instrumented smoke runs CI archives as artifacts.  ``quickstart``
mirrors ``examples/quickstart.py`` exactly (same sizes, same seed), so
the trace you get from the CLI is the timeline of the README example.

:func:`run_traced` returns ``(observer, info)``; ``info`` carries the
workload shape and an exactness check against the dense reference
reduction, and — on the simulator — the cluster's
:class:`~repro.cluster.stats.TrafficStats` for cross-checking the
observer's byte counters.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

import numpy as np

__all__ = [
    "EXPERIMENTS",
    "BACKENDS",
    "STRAGGLER_NODE",
    "STRAGGLER_DELAY",
    "run_traced",
]

BACKENDS = ("sim", "local", "tcp")

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


def run_traced(
    experiment: str,
    *,
    backend: str = "sim",
    seed: int = 0,
    kill: Any = None,
    telemetry_interval: Any = None,
) -> Tuple[Any, Dict[str, Any]]:
    """Run one named experiment fully observed; return ``(observer, info)``.

    ``kill`` — an optional ``(node, phase, layer)`` crash point — augments
    the experiment's fault plan with a ``kill_at_step`` and switches the
    run to degraded completion: the survivors finish, ``info["report"]``
    carries the :class:`~repro.faults.CoverageReport`, and the exactness
    check skips exactly the indices the report declares lost.

    ``telemetry_interval`` turns on the live telemetry plane
    (:mod:`repro.obs.telemetry`): on ``sim`` a :class:`Sampler`
    ticks the virtual clock (same seed ⇒ bit-identical series); on the
    real backends every worker's :class:`Sampler` ticks in its
    transport's pump and its samples ride the snapshot home.  The samples
    land in ``observer.telemetry``, ready for
    :meth:`TimeSeriesAggregator.ingest_observer`.
    """
    if experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}"
        )
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    from ..allreduce import ReduceSpec, dense_reduce, dense_reduce_without
    from ..faults import FaultPlan, RetryPolicy, exact_outside_lost
    from .observer import Observer

    w = EXPERIMENTS[experiment](seed)
    m, degrees = w["m"], w["degrees"]
    spec = ReduceSpec(in_indices=w["in_idx"], out_indices=w["out_idx"])
    faults = w.get("faults")
    retry = w.get("retry")
    degrade = kill is not None
    if degrade:
        node, phase, layer = kill
        faults = (faults or FaultPlan(seed=seed)).kill_at_step(
            int(node), phase, int(layer)
        )
        # Degraded completion needs wall-clock deadlines; keep them small
        # so the dead member is given up on in seconds, not minutes.
        retry = retry or RetryPolicy(base_timeout=0.2, max_retries=2)

    info: Dict[str, Any] = {
        "experiment": experiment,
        "backend": backend,
        "m": m,
        "n": w["n"],
        "degrees": degrees,
        "seed": seed,
        "report": None,
    }

    if telemetry_interval is not None and telemetry_interval <= 0:
        raise ValueError("telemetry_interval must be positive")

    if backend == "sim":
        from ..allreduce import KylixAllreduce
        from ..cluster import Cluster
        from .telemetry import Sampler, TelemetryAgent

        cluster = Cluster(m, seed=seed, failures=faults, observe=True)
        obs = cluster.obs
        obs.name = f"{experiment}@sim"
        sampler = None
        if telemetry_interval is not None:
            sampler = Sampler(
                cluster.engine,
                TelemetryAgent(obs, node=-1, interval=float(telemetry_interval)),
            ).start()
        net = KylixAllreduce(cluster, degrees=degrees, retry=retry, degrade=degrade)
        net.configure(spec)
        result = net.reduce(w["values"])
        if sampler is not None:
            sampler.stop(flush=True)
        info["stats"] = cluster.stats
        info["config_seconds"] = net.config_timing.elapsed
        info["reduce_seconds"] = net.last_reduce_timing.elapsed
        info["report"] = net.last_report
    else:
        from ..net import LocalKylix, TcpKylix

        obs = Observer(name=f"{experiment}@{backend}")
        net = (LocalKylix if backend == "local" else TcpKylix)(
            degrees=degrees, faults=faults, retry=retry, observe=obs,
            degrade=degrade, telemetry_interval=telemetry_interval,
        )
        result = net.allreduce(spec, w["values"])
        info["report"] = net.last_report

    if degrade and backend != "sim" and phase == "down" and int(layer) == 1:
        # The victim died before sending anything: on the combined
        # backends its contributions reached nobody and its keys never
        # joined any union, so the surviving aggregates are exactly the
        # reduction over the *other* members.  (The simulator branch
        # runs the separate protocol, whose config maps let receivers
        # mask every victim-touched key — there the full reference
        # holds.)  Deeper kills leave the victim's layer-1 parts
        # integrated everywhere, so the full reference applies and the
        # dead-partial audit accounts what its crash took with it.
        reference = dense_reduce_without(spec, w["values"], int(node))
    else:
        reference = dense_reduce(spec, w["values"])
    report = info["report"]
    lost = getattr(report, "lost_indices", {}) if report is not None else {}

    def _exact(r: int) -> bool:
        got = result.get(r) if isinstance(result, dict) else result[r]
        if got is None:
            return r in lost  # dead rank: no result is fine iff accounted
        return exact_outside_lost(got, reference[r], w["in_idx"][r], lost.get(r))

    info["exact"] = all(_exact(r) for r in range(m))
    return obs, info
