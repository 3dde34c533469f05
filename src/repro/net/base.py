"""The one driver of every real backend, and the forked way to start nodes.

:class:`KylixDriver` is the driver half of a session, written once:
argument validation, one :class:`~repro.net.session.NodeJob` per rank,
raising the first failure :func:`~repro.net.session.collect` settles (a
node that dies without posting a result is noticed at once, as EOF on
its control, not at the 120 s budget), :func:`~repro.net.session.collate`
and the done handshake.  How the nodes start is a subclass's:
:class:`ForkedKylixBase` forks them, with a
:class:`~repro.net.session.SocketControl` over a ``socket.socketpair()``
each and the terminate/join/kill ladder that guarantees zero zombie
processes on every exit path (:class:`~repro.net.local.LocalKylix` plugs
in a pipe mesh, :class:`~repro.net.tcp.TcpKylix` a loopback socket
mesh); :class:`~repro.net.cluster.ClusterKylix` attaches to a launched
cluster's.  The failure semantics the tests pin are identical on all.
"""

from __future__ import annotations

import multiprocessing as mp
import socket
from contextlib import contextmanager
from functools import partial
from itertools import chain
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

import numpy as np

from ..allreduce import ReduceSpec
from ..faults import CoverageReport, FaultPlan, RetryPolicy
from ..obs import NULL_OBSERVER, Observer
from ..sparse import IndexHasher, MultiplicativeHasher
from .session import Collated, NodeJob, SocketControl, collate, collect, failure, release, run_node

__all__ = ["KylixDriver", "ForkedKylixBase"]


class KylixDriver:
    """The driver of real-node sessions; subclasses say how nodes start.

    Subclasses implement ``_nodes(jobs)``: a context manager that starts
    or reaches one node per ``{rank: NodeJob}`` entry and yields
    ``(controls, lost)`` — a control per reached rank and a settled
    ``("lost", rank, why)`` frame per rank it could not reach — and
    releases the nodes on exit.

    Parameters
    ----------
    faults:
        Optional :class:`~repro.faults.FaultPlan`.  Message-fault rules
        and ``kill_at_step`` / at-start deaths are honoured (a step-kill
        is an ``os._exit`` right before the node's first send at that
        phase and layer); time-based deaths and recoveries need a
        simulated clock, and a config-phase kill a separate configuration
        pass: both are rejected.
    retry:
        :class:`~repro.faults.RetryPolicy` for receive deadlines/NACKs.
        Defaults to ``RetryPolicy()`` with a 0.25 s wall-clock base.
    timeout:
        Total wall-clock budget (seconds) for collecting node results.
    observe:
        Optional :class:`~repro.obs.Observer`.  Each node records
        spans, traffic counters and fault metrics into a private
        wall-clock observer and ships a snapshot back with its result;
        the driver absorbs them here, one trace process row per node.
    degrade:
        Complete on survivors instead of raising
        :class:`~repro.faults.PeerFailedError` when a peer is
        unrecoverable; the run's :class:`~repro.faults.CoverageReport`
        lands on :attr:`last_report`.  Default off (strict).
    telemetry_interval:
        With ``observe``: every node samples its metrics on this
        wall-clock interval (:mod:`repro.obs.telemetry`).
    """

    _BACKEND_NAME = "net"
    #: Label of a node's trace process row (pid 0 is the driver).
    _ROW = "worker"

    def __init__(
        self,
        degrees: Sequence[int],
        *,
        hasher: Optional[IndexHasher] = None,
        strict_coverage: bool = True,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        timeout: float = 120.0,
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
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = float(timeout)
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
            for node in faults.step_killed_nodes:
                if faults.step_kill_for(node)[0] == "config":
                    raise ValueError(
                        f"{type(self).__name__} runs the combined protocol, which has "
                        f"no config phase: a kill of node {node} there never fires"
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

    # -- the run -----------------------------------------------------------
    def allreduce(
        self, spec: ReduceSpec, out_values: Mapping[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        return self.allreduce_rounds(spec, [out_values])[0]

    def allreduce_rounds(
        self,
        spec: ReduceSpec,
        rounds_values: Sequence[Mapping[int, np.ndarray]],
    ) -> list:
        """Many same-pattern reductions in one session.

        On a clean session round 0 runs the combined protocol and keeps
        each node's routing plan; rounds 1.. replay values only through
        the cached maps (:func:`~repro.net.protocol.run_rounds`) on the
        same live mesh — the paper's amortization without re-paying
        start-up, connect, or configuration.  Under a fault plan or
        degraded completion every round runs the combined protocol.
        Returns one ``{rank: values}`` dict per round; raises at the
        first failing frame.
        """
        rounds_values = list(rounds_values)
        if not rounds_values:
            return []
        out = self.run_session(spec, rounds_values, on_frame=self._raise_failure)
        return [
            {rank: rounds[rnd][0] for rank, rounds in out.rounds.items()}
            for rnd in range(len(rounds_values))
        ]

    def _raise_failure(self, frame) -> None:
        # Fail at the first bad frame, not after the slowest retry ladder;
        # under degraded completion a lost rank is a hole.
        if frame[0] == "telemetry":
            return
        exc = failure(frame)
        if exc is not None and not (self.degrade and frame[0] == "lost"):
            raise exc

    def run_session(
        self,
        spec: ReduceSpec,
        rounds_values: Sequence[Mapping[int, np.ndarray]],
        on_frame: Optional[Callable[[tuple], None]] = None,
    ) -> Collated:
        """One session: a job per rank, every rank settled, collated.

        ``on_frame`` sees every frame as it arrives, telemetry included,
        after the driver recorded it; an exception it raises ends the
        session there (the nodes are released all the same).
        """
        if set(spec.ranks) != set(range(self.size)):
            raise ValueError(
                f"spec must cover ranks 0..{self.size - 1} (got {spec.ranks})"
            )
        obs = self.observe if self.observe is not None else NULL_OBSERVER
        jobs = {
            rank: NodeJob.for_rank(
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
            for rank in range(self.size)
        }
        if obs.enabled:
            obs.name_pid(0, "driver")
        run_span = obs.begin(
            f"allreduce({self._BACKEND_NAME})", degrees=str(self.degrees)
        )
        self.last_report = None
        records: Dict[int, tuple] = {}
        try:
            with self._nodes(jobs) as (controls, lost):
                for frame in chain(lost.values(), collect(controls, timeout=self.timeout)):
                    if frame[0] != "telemetry":
                        records[frame[1]] = frame
                    if frame[0] == "result" and frame[4] is not None:
                        # One trace process row per node (pid 0 = driver).
                        obs.absorb(frame[4], pid=frame[1] + 1, name=f"{self._ROW} {frame[1]}")
                    if on_frame is not None:
                        on_frame(frame)
        finally:
            obs.end(run_span)
        out = collate(records, spec, self.size, self.degrade)
        self.last_report = out.report
        return out


def _run_forked(driver_ends, *node_args) -> None:
    """A forked node's body: drop the driver's ends of the controls it
    inherited (its own and the earlier ranks'), then run the node.  A copy
    left open in a node hides the driver's hang-up from that control."""
    for end in driver_ends:
        end.close()
    run_node(*node_args)


class ForkedKylixBase(KylixDriver):
    """The driver over forked nodes: one OS process per rank.

    Subclasses implement ``_make_mesh()`` (pre-fork medium setup; returns
    an opaque mesh handle and the handles in it the children inherit) and
    ``_open_transport(mesh, rank, plan, retry, obs)`` (child side:
    ``rank``'s transport over the inherited mesh).

    Parameters: those of :class:`KylixDriver`, and

    join_timeout:
        Budget for joining each worker during cleanup; workers still
        alive after it are terminated, then killed — no zombies on any
        exit path.
    """

    def __init__(self, degrees: Sequence[int], *, join_timeout: float = 10.0, **options):
        super().__init__(degrees, **options)
        if join_timeout <= 0:
            raise ValueError("join_timeout must be positive")
        self.join_timeout = float(join_timeout)

    @contextmanager
    def _nodes(self, jobs: Dict[int, NodeJob]):
        """Fork one worker per job over a fresh mesh, a socket-pair
        control each; release and reap them all on exit."""
        ctx = mp.get_context("fork")
        mesh, inherited = self._make_mesh()
        procs: Dict[int, Any] = {}
        controls: Dict[int, SocketControl] = {}
        try:
            for rank, job in jobs.items():
                driver_end, node_end = map(SocketControl, socket.socketpair())
                controls[rank] = driver_end
                p = ctx.Process(
                    target=_run_forked,
                    args=(
                        list(controls.values()),
                        rank, job, partial(self._open_transport, mesh), node_end,
                    ),
                )
                p.daemon = True
                p.start()
                procs[rank] = p
                node_end.close()  # before the next fork: the node's EOF is its death
            # Every child inherited the mesh at fork; drop the parent's
            # copies: one it kept open would hide a dead worker from its
            # peers.
            for handle in inherited:
                handle.close()
            yield controls, {}
        finally:
            release(controls)
            self._reap(procs)

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
