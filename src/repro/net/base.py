"""Shared process supervision for the real-execution backends.

:class:`ForkedKylixBase` is everything a "one OS process per logical
node" backend needs that is neither the medium nor the session: argument
validation, forking one :func:`~repro.net.session.run_node` per rank
with a control each (a :class:`~repro.net.session.SocketControl` over a
``socket.socketpair()``, so round results come home out of band, with
no user-space copy), raising the first failure
:func:`~repro.net.session.collect` settles (a worker that dies without
posting a result is noticed at once, as EOF on its control, not at the
120 s budget), and the terminate/join/kill ladder that
guarantees zero zombie processes on every exit path.
:class:`~repro.net.local.LocalKylix` plugs in a pipe mesh,
:class:`~repro.net.tcp.TcpKylix` a loopback socket mesh; the
supervision — and therefore the failure semantics the tests pin — is
identical.
"""

from __future__ import annotations

import socket
from functools import partial
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

from ..allreduce import ReduceSpec
from ..faults import CoverageReport, FaultPlan, RetryPolicy
from ..obs import NULL_OBSERVER, Observer
from ..sparse import IndexHasher, MultiplicativeHasher
from .session import NodeJob, SocketControl, collate, collect, failure, release, run_node

__all__ = ["ForkedKylixBase"]


class ForkedKylixBase:
    """Common shell of the forked real-execution backends.

    Subclasses implement :meth:`_make_mesh` (pre-fork medium setup),
    :meth:`_open_transport` (child-side medium construction), and
    :meth:`_release_mesh` (parent-side handle cleanup after fork).

    Parameters
    ----------
    faults:
        Optional :class:`~repro.faults.FaultPlan`.  Message-fault rules
        and ``kill_at_step`` / at-start deaths are honoured (a step-kill
        is an ``os._exit`` right before the worker's first send at that
        phase and layer); time-based deaths and recoveries need a
        simulated clock and are rejected.
    retry:
        :class:`~repro.faults.RetryPolicy` for receive deadlines/NACKs.
        Defaults to ``RetryPolicy()`` with a 0.25 s wall-clock base.
    timeout:
        Total wall-clock budget (seconds) for collecting worker results.
    join_timeout:
        Budget for joining each worker during cleanup; workers still
        alive after it are terminated, then killed — no zombies on any
        exit path.
    observe:
        Optional :class:`~repro.obs.Observer`.  Each worker records
        spans, traffic counters and fault metrics into a private
        wall-clock observer and ships a snapshot back with its result;
        the parent absorbs them here, one trace process row per worker.
    degrade:
        Complete on survivors instead of raising
        :class:`~repro.faults.PeerFailedError` when a peer is
        unrecoverable; the run's :class:`~repro.faults.CoverageReport`
        lands on :attr:`last_report`.  Default off (strict).
    telemetry_interval:
        With ``observe``: every worker samples its metrics on this
        wall-clock interval (:mod:`repro.obs.telemetry`).
    """

    def __init__(
        self,
        degrees: Sequence[int],
        *,
        hasher: Optional[IndexHasher] = None,
        strict_coverage: bool = True,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        timeout: float = 120.0,
        join_timeout: float = 10.0,
        observe: Optional[Observer] = None,
        degrade: bool = False,
        telemetry_interval: Optional[float] = None,
    ):
        self.degrees = [int(d) for d in degrees]
        self.size = int(np.prod(self.degrees))
        if hasher is None:
            hasher = MultiplicativeHasher()
        elif not isinstance(hasher, MultiplicativeHasher):
            raise ValueError(f"{type(self).__name__} supports MultiplicativeHasher only")
        self.hasher = hasher
        self.strict_coverage = strict_coverage
        if timeout <= 0 or join_timeout <= 0:
            raise ValueError("timeout and join_timeout must be positive")
        self.timeout = float(timeout)
        self.join_timeout = float(join_timeout)
        if faults is not None:
            faults.validate(self.size)
            for node, at in faults.deaths.items():
                if at > 0.0:
                    raise ValueError(
                        f"{type(self).__name__} has no simulated clock: death of "
                        f"node {node} at t={at} is not executable — use "
                        f"kill(node) (dead from start) or kill_at_step()"
                    )
            if faults.recoveries:
                raise ValueError(
                    f"{type(self).__name__} does not support recovery schedules"
                )
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
        self.observe = observe
        self.degrade = bool(degrade)
        if telemetry_interval is not None and telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be positive")
        if telemetry_interval is not None and observe is None:
            raise ValueError("telemetry_interval requires observe=Observer(...)")
        self.telemetry_interval = telemetry_interval
        #: :class:`CoverageReport` of the last degraded run (None outside
        #: degraded completion) — same contract as the simulator backend.
        self.last_report: Optional[CoverageReport] = None

    # -- medium hooks (subclass responsibilities) --------------------------
    def _make_mesh(self):
        """Create pre-fork medium state; returns an opaque mesh handle."""
        raise NotImplementedError

    def _open_transport(self, mesh, rank: int, plan, retry, obs):
        """Child side: build ``rank``'s transport over the inherited mesh."""
        raise NotImplementedError

    def _release_mesh(self, mesh) -> None:
        """Drop the parent's copies of per-child medium handles."""
        raise NotImplementedError

    # -- the run -----------------------------------------------------------
    def allreduce(
        self, spec: ReduceSpec, out_values: Mapping[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        return self._run(spec, [out_values])[0]

    def allreduce_rounds(
        self,
        spec: ReduceSpec,
        rounds_values: Sequence[Mapping[int, np.ndarray]],
    ) -> list:
        """Many same-pattern reductions over one fork and one config.

        Round 0 runs the combined protocol and keeps each worker's
        routing plan; rounds 1.. replay values only through the cached
        maps (:func:`~repro.net.protocol.run_rounds`) on the same live
        mesh — the paper's amortization without re-paying fork, connect,
        or configuration.  Returns one ``{rank: values}`` dict per round.
        Clean runs only: fault plans and degraded completion need the
        combined protocol's per-round accounting.
        """
        rounds_values = list(rounds_values)
        if not rounds_values:
            return []
        if self.faults is not None or self.degrade:
            raise ValueError(
                "allreduce_rounds caches the round-0 plan and cannot "
                "replay fault schedules; use allreduce per round instead"
            )
        return self._run(spec, rounds_values)

    def _run(
        self,
        spec: ReduceSpec,
        rounds_values: Sequence[Mapping[int, np.ndarray]],
    ) -> list:
        """Fork the workers, run one reduction per entry of
        ``rounds_values`` on one mesh; one ``{rank: values}`` per round."""
        import multiprocessing as mp

        if set(spec.ranks) != set(range(self.size)):
            raise ValueError(
                f"spec must cover ranks 0..{self.size - 1} (got {spec.ranks})"
            )
        ctx = mp.get_context("fork")
        mesh = self._make_mesh()
        procs: Dict[int, Any] = {}
        controls: Dict[int, Any] = {}
        obs = self.observe if self.observe is not None else NULL_OBSERVER
        if obs.enabled:
            obs.name_pid(0, "driver")
        run_span = obs.begin(
            f"allreduce({self._BACKEND_NAME})", degrees=str(self.degrees)
        )
        self.last_report = None

        try:
            for rank in range(self.size):
                job = NodeJob.for_rank(
                    rank,
                    spec,
                    rounds_values,
                    degrees=tuple(self.degrees),
                    hasher=self.hasher,
                    strict=self.strict_coverage,
                    plan=self.faults,
                    retry=self.retry,
                    degrade=self.degrade,
                    observe=obs.enabled,
                    telemetry_interval=self.telemetry_interval,
                )
                driver_end, node_end = map(SocketControl, socket.socketpair())
                controls[rank] = driver_end
                p = ctx.Process(
                    target=run_node,
                    args=(rank, job, partial(self._open_transport, mesh), node_end),
                )
                p.daemon = True
                p.start()
                procs[rank] = p
                node_end.close()  # before the next fork: the node's EOF is its death
            self._release_mesh(mesh)
            records = {}
            for frame in collect(controls, timeout=self.timeout):
                if frame[0] == "telemetry":
                    continue  # the samples also ride the snapshot
                records[frame[1]] = frame
                if frame[0] == "result" and frame[4] is not None:
                    # One trace process row per worker (pid 0 = driver).
                    obs.absorb(frame[4], pid=frame[1] + 1, name=f"worker {frame[1]}")
                # Fail at the first bad frame, not after the slowest retry
                # ladder; under degraded completion a lost rank is a hole.
                exc = failure(frame)
                if exc is not None and not (self.degrade and frame[0] == "lost"):
                    raise exc
            out = collate(records, spec, self.size, self.degrade)
            self.last_report = out.report
            return [
                {rank: rounds[rnd][0] for rank, rounds in out.rounds.items()}
                for rnd in range(len(rounds_values))
            ]
        finally:
            release(controls)
            self._reap(procs)
            obs.end(run_span)

    _BACKEND_NAME = "net"

    # -- parent-side supervision ------------------------------------------
    def _reap(self, procs) -> None:
        """Terminate + join every worker; zero live children afterwards."""
        for p in procs.values():
            p.join(timeout=self.join_timeout)
        for p in procs.values():
            if p.is_alive():
                p.terminate()
        for p in procs.values():
            if p.is_alive():
                p.join(timeout=1.0)
            if p.is_alive():  # pragma: no cover - terminate() ignored
                p.kill()
                p.join(timeout=1.0)
