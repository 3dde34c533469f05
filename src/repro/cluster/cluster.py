"""The simulated commodity cluster: nodes + fabric + failure oracle.

A :class:`Cluster` wires an event engine, a message fabric with the
EC2-like cost model, per-node compute accounting, and a failure plan into
one object.  Protocols run via :meth:`Cluster.run`, which spawns one
simulation process per participating node and executes the event loop to
completion — the returned per-node values and the advanced simulated clock
are the experiment's outputs.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence

from ..faults.plan import FaultPlan
from ..netmodel import EC2_LIKE, NetworkParams
from ..simul import Engine
from .fabric import Fabric
from .node import SimNode

__all__ = ["Cluster"]


class Cluster:
    """A simulated cluster of ``num_nodes`` commodity machines.

    Parameters
    ----------
    num_nodes:
        Cluster size ``m``.
    params:
        Interconnect model; defaults to the EC2-calibrated bundle.
    threads / hw_threads:
        Software message threads per node and the physical thread count
        (Fig 7's experiment varies ``threads`` at fixed ``hw_threads=16``).
    compute_rate:
        Effective bytes/s for memory-bound local kernels (merge,
        scatter-add); converts data footprint into simulated compute time.
    node_speeds:
        Optional per-node compute-speed multipliers (1.0 = nominal);
        models §II's "variable compute node performance and external
        loads" — a 0.5 node takes twice as long for the same kernel.
    failures:
        Optional :class:`~repro.faults.FaultPlan`: dead nodes drop all
        traffic, step kills crash a node at a protocol step, and rules
        inject message faults.  An empty plan is the same as none.
    seed:
        Seeds latency jitter; identical seeds give identical runs.
    creation_order:
        Optional permutation of ``range(num_nodes)`` controlling the
        order :meth:`run` spawns node processes in.  Protocol *results*
        must be invariant to it — the schedule-perturbation determinism
        tests shuffle it to catch hidden order dependence.
    record_trace:
        When True the engine records ``(time, seq, event)`` for every
        processed event (see :attr:`repro.simul.Engine.trace`).
    scheduler:
        Optional :class:`~repro.simul.Scheduler` controlling which queued
        event the engine fires next — the model checker's entry point for
        exploring alternative interleavings.  ``None`` (default) keeps
        the engine's original deterministic heap order.
    observe:
        Observability hook.  ``True`` creates a fresh
        :class:`~repro.obs.Observer`; an :class:`~repro.obs.Observer`
        instance is adopted as-is.  Either way its clock is bound to the
        simulated clock, the fabric reports every delivery to it, its
        ``net.*`` series read :attr:`stats`, and protocol code (Kylix
        phases) opens spans on it — available as :attr:`obs`.  Default
        off: unobserved runs pay nothing.
    """

    def __init__(
        self,
        num_nodes: int,
        params: NetworkParams = EC2_LIKE,
        *,
        threads: int = 16,
        hw_threads: int = 16,
        compute_rate: float = 1.0e9,
        node_speeds: Optional[Sequence[float]] = None,
        failures: Optional[FaultPlan] = None,
        seed: int = 0,
        creation_order: Optional[Sequence[int]] = None,
        record_trace: bool = False,
        observe: Any = None,
        scheduler: Any = None,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if compute_rate <= 0:
            raise ValueError("compute_rate must be positive")
        if node_speeds is not None:
            node_speeds = [float(x) for x in node_speeds]
            if len(node_speeds) != num_nodes:
                raise ValueError("need one speed per node")
            if any(x <= 0 for x in node_speeds):
                raise ValueError("node speeds must be positive")
        if creation_order is not None:
            creation_order = [int(r) for r in creation_order]
            if sorted(creation_order) != list(range(num_nodes)):
                raise ValueError("creation_order must permute range(num_nodes)")
        self.num_nodes = num_nodes
        self.params = params
        self.compute_rate = compute_rate
        self.creation_order = creation_order
        self.engine = Engine(record_trace=record_trace, scheduler=scheduler)
        self.failures = failures if failures is not None else FaultPlan()
        # Install-time validation: a plan naming nodes outside the cluster
        # is a test bug that used to silently inject nothing.
        self.failures.validate(num_nodes)
        self.fabric = Fabric(
            self.engine,
            params,
            num_nodes,
            threads=threads,
            hw_threads=hw_threads,
            seed=seed,
        )
        self.stats = self.fabric.stats
        if self.failures:
            # The fabric's message-fault and step-kill oracle; it also
            # enables the sent-payload cache that serves NACK resends.  An
            # empty plan is never asked: the no-fault send path is untouched.
            self.fabric.set_fault_plan(self.failures)
        if self.failures.deaths:
            # Only timed deaths need the per-message liveness check.
            self.fabric.set_liveness(
                lambda i: self.failures.is_alive(i, self.engine.now)
            )
        self.node_speeds = node_speeds or [1.0] * num_nodes
        self.compute_seconds = [0.0] * num_nodes
        self._nodes = [SimNode(self, i) for i in range(num_nodes)]
        self.obs = None
        if observe:
            self.enable_observer(observe if observe is not True else None)

    def enable_observer(self, observer=None):
        """Switch observation on (idempotent); returns the observer.

        Binds the observer's clock to simulated time, installs it as the
        fabric's message-event sink, and serves its ``net.*`` series
        from :attr:`stats`, the one byte ledger: they report every send
        since the cluster was built (or the stats were reset), and the
        observer never counts a send itself.
        """
        if self.obs is None:
            from ..obs import Observer
            from ..obs.metrics import LedgerCounter

            self.obs = observer if observer is not None else Observer(name="sim")
            self.obs.set_clock(lambda: self.engine.now)
            self.obs.name_pid(0, "sim")
            for name, fields in self.stats.SERIES.items():
                self.obs.metrics.adopt(LedgerCounter(name, partial(self.stats.series, *fields)))
            self.fabric.set_observer(self.obs)
        return self.obs

    # -- access ------------------------------------------------------------
    def node(self, rank: int) -> SimNode:
        return self._nodes[rank]

    def is_alive(self, rank: int) -> bool:
        return self.failures.is_alive(rank, self.engine.now) and not self.fabric.is_crashed(rank)

    @property
    def live_nodes(self) -> list[int]:
        return [i for i in range(self.num_nodes) if self.is_alive(i)]

    @property
    def now(self) -> float:
        return self.engine.now

    def pending_messages(self) -> int:
        """Messages sitting undelivered in mailboxes.

        Zero after any unreplicated protocol completes (every message is
        consumed); replicated runs legitimately leave losing race copies
        behind.  Useful as a leak check in tests.
        """
        return sum(len(box) for box in self.fabric.mailboxes)

    @property
    def total_compute_seconds(self) -> float:
        return sum(self.compute_seconds)

    @property
    def max_compute_seconds(self) -> float:
        return max(self.compute_seconds)

    # -- execution ------------------------------------------------------------
    def run(
        self,
        protocol: Callable[..., Any],
        *args: Any,
        nodes: Optional[Sequence[int]] = None,
        **kwargs: Any,
    ) -> Dict[int, Any]:
        """Run ``protocol(node, *args, **kwargs)`` on every (live) node.

        ``protocol`` must be a generator function; one simulation process
        is spawned per node.  Runs the engine until every spawned process
        completes, then returns ``{rank: return value}``.  A protocol
        exception on any node propagates out (simulation bugs fail fast);
        waiting forever for a dead node raises a deadlock error unless the
        protocol (e.g. replicated Kylix) tolerates it.
        """
        if nodes is not None:
            participants = list(nodes)
        elif self.creation_order is not None:
            participants = [r for r in self.creation_order if self.is_alive(r)]
        else:
            participants = self.live_nodes
        procs = {
            rank: self.engine.process(protocol(self._nodes[rank], *args, **kwargs))
            for rank in participants
        }
        # Kept for post-mortem quiescence analysis: the model checker
        # walks each stuck process's awaited event back to the mailbox it
        # is parked on when diagnosing a deadlocked schedule.
        self._last_procs = dict(procs)
        if not self.failures.victims:
            self.engine.run_until_complete(*procs.values())
            return {rank: proc.value for rank, proc in procs.items()}

        # With a failure plan, processes on nodes that die mid-run are
        # abandoned (a dead machine finishes nothing); completion is
        # required only of nodes still alive.
        def settled() -> bool:
            return all(
                p.triggered or not self.is_alive(r) for r, p in procs.items()
            )

        while self.engine._queue and not settled():
            self.engine.step()
        failures = [
            (rank, p.value) for rank, p in procs.items()
            if p.triggered and p.ok is False
        ]
        if failures:
            # Under fault injection a single death cascades: nodes stuck
            # behind the detector also time out, blaming live-but-stuck
            # peers.  Surface the root cause — an error naming a slot
            # that is actually dead — ahead of the cascade errors.
            def names_dead_slot(item) -> int:
                slot = getattr(item[1], "slot", None)
                return 0 if slot is not None and not self.is_alive(slot) else 1

            failures.sort(key=names_dead_slot)
            raise failures[0][1]
        from ..simul import SimulationError

        for rank, p in procs.items():
            if not p.triggered and self.is_alive(rank):
                raise SimulationError(
                    f"deadlock: live node {rank} still waiting after the "
                    "event queue drained (all replicas of a peer dead?)"
                )
        return {
            rank: p.value for rank, p in procs.items() if p.triggered and p.ok
        }

    def parallel_compute(self, seconds_by_rank: Mapping[int, float]) -> float:
        """Charge per-node local computation, in parallel across nodes.

        Application drivers (PageRank, SGD) call this between allreduces:
        simulated time advances by the *maximum* charge (nodes compute
        concurrently), and each node's compute account is billed for the
        Fig-9 compute/communication breakdown.  Returns the elapsed time.
        """

        def proto(node: SimNode):
            yield node.compute(float(seconds_by_rank.get(node.rank, 0.0)))

        start = self.engine.now
        self.run(proto)
        return self.engine.now - start
