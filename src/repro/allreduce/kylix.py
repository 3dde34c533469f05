"""Kylix on the simulator: the virtual-clock driver of the protocol core (§III).

The protocol itself — split, scatter, union and memoise maps on the way
down, replay the maps back up — lives in :mod:`repro.allreduce.core` as
sans-IO generators that yield one ``Exchange`` per layer, and so does
the one exchange step that drives them on every medium
(:func:`~repro.allreduce.core.drive`).  :class:`KylixAllreduce` runs
that step as each node's simulator process over the simulator medium:
message tags, sends and receives through the replica
:class:`~repro.faults.SlotMap`, the simulator runner of the one
:class:`~repro.faults.ReceiveLadder`, merge cost charged to the node's CPU
on the virtual clock, the hole policy's retained keys held in memory —
and it holds the public configure/reduce API.

The paper's baselines and its §V fault tolerance are arguments of the
one class, not subclasses: the degree stack ``[m]`` is the direct
all-to-all allreduce (§II-A.2), ``[2]*log2(m)`` the binary butterfly
(:func:`~repro.allreduce.butterfly.binary_degrees`), and
``replication=s`` hosts each logical slot on ``s`` physical replicas
that race every part (§V).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..cluster import Cluster, SimNode
from ..cluster.node import payload_nbytes
from ..faults import CoverageReport, LossRecord, PeerFailedError, RetryPolicy
from ..faults.ladder import DUPLICATE, ReceiveLadder, RetainedKeys, SlotMap, slot_status
from ..obs import NULL_OBSERVER
from ..simul import WaitTimeout, wait_with_timeout
from ..sparse import IndexHasher, MultiplicativeHasher
from . import core
from .base import (
    PHASE_COMBINED_DOWN,
    PHASE_CONFIG,
    PHASE_GATHER_UP,
    PHASE_REDUCE_DOWN,
    ReduceSpec,
)
from .core import NodePlan
from .topology import ButterflyTopology

__all__ = ["KylixAllreduce", "PhaseTiming", "expected_failures_survived"]

#: Message-tag kind of each pass; a tag is ``(name, kind, instance, layer)``.
_TAG_KIND = {
    PHASE_CONFIG: "cfg",
    PHASE_COMBINED_DOWN: "cmb",
    PHASE_REDUCE_DOWN: "rd",
    PHASE_GATHER_UP: "up",
}


class _SimMedium:
    """The simulator medium of :func:`~repro.allreduce.core.drive`: one
    node's fabric for one protocol instance.

    Message tags are ``(name, kind, instance, layer)``; the node's own
    part crosses the fabric like any other; the merge is charged to the
    node's CPU on the virtual clock; the retained keys are read in memory.
    """

    piggyback = False  # a node keeps its own raw keys; parts carry none

    def __init__(self, net: "KylixAllreduce", node: SimNode, inst: int):
        self.net, self.node, self.name, self.round = net, node, net.name, inst
        self.fabric = node.cluster.fabric
        self.rank = net._logical(node.rank)
        self.topo, self.spec, self.slots = net.topology, net.spec, net.slots
        self.obs = net._obs
        self.degrade = net.degrade

    @property
    def retained(self) -> RetainedKeys:
        return self.net._retained[self.rank]

    def fetch(self, holder: int, direction: str, layer: int, about: int):
        return self.net._retained[holder].get(direction, self.round, layer, about)

    def send(self, sends, phase: str, layer: int) -> None:
        """The exchange's ``(dst, part)`` pairs, one fabric call."""
        self.fabric.send_group(
            self.node.rank,
            [(dst, part, payload_nbytes(part)) for dst, part in sends],
            tag=(self.name, _TAG_KIND[phase], self.round, layer),
            phase=phase,
            layer=layer,
        )

    def recv(self, ex: core.Exchange, pos_of: Dict[int, int]):
        """Receive one message per group position, the first copy per
        position; returns their payloads indexed by position (``None`` =
        a hole) and their bytes.

        Without a retry policy this is one group receive: the process
        wakes once per layer, when the last position fills.  With one it
        is the simulator runner of the :class:`~repro.faults.ReceiveLadder`:
        each wait is one message's, bounded by the netmodel envelope at
        the ladder's step (``retry.timeout_for``), so the engine trace and
        the timer-versus-delivery races ``repro.mc`` explores stay as
        they were; an expiry NACKs through the fabric (every replica of
        the slot), and the ladder decides the rest.
        """
        tag = (self.name, _TAG_KIND[ex.phase], self.round, ex.layer)
        retry = self.net._effective_retry()
        slot_of = self.slots.slot_fn(pos_of)
        if retry is None:
            msgs = yield self.node.recv_all(len(ex.group), tag=tag, slot_of=slot_of)
        else:
            msgs = yield from self._ladder_recv(ex, tag, slot_of, retry)
        return (
            [None if msg is None else msg.payload for msg in msgs],
            sum([msg.nbytes for msg in msgs if msg is not None]),
        )

    def _ladder_recv(self, ex: core.Exchange, tag, slot_of, retry: RetryPolicy):
        """The deadline/NACK receive (a generator of its own, so the
        group receive's frame holds no closure cells while it waits)."""
        net, node, group = self.net, self.node, ex.group
        ladder = ReceiveLadder(
            group, rank=self.rank, phase=ex.phase, layer=ex.layer,
            max_retries=retry.max_retries, degrade=net.degrade,
            reset_on_arrival=True, losses=net._loss_events,
        )
        request_resend = self.fabric.request_resend
        physical = self.slots.physical

        def nack(q: int, attempt: int):
            return slot_status(
                [request_resend(node.rank, src, tag, attempt) for src in physical[group[q]]]
            )

        params, engine = node.cluster.params, node.engine
        while not ladder.done:
            try:
                msg = yield from wait_with_timeout(
                    engine, node.recv(tag=tag),
                    retry.timeout_for(params, ex.nbytes_hint, ladder.step),
                )
            except WaitTimeout:
                ladder.expire(nack)
                continue
            if ladder.arrive(slot_of(msg.src), msg, (msg.src, msg.seq)) == DUPLICATE:
                net.duplicates_dropped += 1
                self.obs.counter("faults.duplicates_dropped").inc(
                    phase=ex.phase, layer=ex.layer
                )
        return [ladder.parts.get(q) for q in range(len(group))]

    def charge(self, nbytes: int, d: int, building: bool):
        if building:
            # Modelled union cost: a balanced merge of d sorted parts,
            # every element taking part in ~log2(d)+1 merges.
            nbytes *= max(1, int(np.ceil(np.log2(max(d, 2)))) + 1)
        return self.node.compute_bytes(nbytes)


@dataclass(frozen=True)
class PhaseTiming:
    """Simulated wall time of one protocol phase."""

    start: float
    end: float

    @property
    def elapsed(self) -> float:
        return self.end - self.start


def expected_failures_survived(num_logical: int, replication: int = 2) -> float:
    """Birthday-paradox estimate of tolerable random failures (§V-A).

    For replication 2 the network survives until two failures land on the
    same replica group: about ``√m`` failures in expectation (the paper's
    figure).  For general ``s`` the generalized birthday bound gives
    ``(s! · m^(s-1))^(1/s) · Γ(1 + 1/s)`` — superlinear gains per extra
    replica.
    """
    if replication < 2:
        return 0.0
    if replication == 2:
        return float(np.sqrt(num_logical))
    from math import factorial, gamma

    s = replication
    return float(
        (factorial(s) * num_logical ** (s - 1)) ** (1.0 / s) * gamma(1.0 + 1.0 / s)
    )


class KylixAllreduce:
    """Sparse allreduce over a simulated cluster with a fixed degree stack.

    Parameters
    ----------
    cluster:
        The simulated cluster to run on.
    degrees:
        Butterfly degrees over the logical slots, top layer first; their
        product must equal the slot count (the cluster size over
        ``replication``).  ``[m]`` degenerates to direct all-to-all,
        ``[2]*log2(m)`` to the binary butterfly.
    replication:
        Physical replicas per logical slot (§V).  With ``s`` replicas the
        ``m`` physical nodes host ``m/s`` slots: node ``p`` is replica
        ``p // (m/s)`` of slot ``p % (m/s)`` (the paper: "data on machine
        i also appears on the replicas m+i through i+(s-1)*m").  Every
        logical message goes from each live replica of its source to
        every replica of its destination, and a receiver keeps the first
        copy — **packet racing** — so the run completes unless all
        replicas of some slot are dead; a NACK goes to every replica.
        The cost is up to ``s``× the traffic; racing wins part of it back
        on jittery links (Table I).  ``1`` (default) is plain Kylix.
    hasher:
        Index↔key bijection; defaults to multiplicative hashing over the
        64-bit ring.  Pass :class:`IdentityHasher` in tests for readable
        key spaces.
    strict_coverage:
        When True (default) a requested in-index nobody contributes raises
        :class:`CoverageError` during reduction; when False such entries
        return zeros.
    retry:
        Optional :class:`~repro.faults.RetryPolicy` enabling bounded
        receive deadlines with NACK retransmission.  ``None`` (default)
        keeps the wait-forever receive — unless ``degrade`` is set or the
        cluster's :class:`~repro.faults.FaultPlan` is non-empty (any
        death, step kill or rule), in which case the default
        :class:`~repro.faults.RetryPolicy` switches on (a fault-injected
        run without deadlines would hang on the first loss, and degraded
        completion needs deadlines to notice one).
    degrade:
        Fault-loss handling when a peer is unrecoverable (all replicas of
        a slot dead, retries exhausted).  ``False`` (strict, the default)
        raises :class:`~repro.faults.PeerFailedError` naming the dead
        slot; ``True`` completes with the surviving data — unrecoverable
        entries hold the reduction identity — and publishes an exact
        :class:`~repro.faults.CoverageReport` as :attr:`last_report`.
        Implies the default retry policy when ``retry`` is None.
    name:
        Namespaces this instance's message tags on a shared fabric.

    Every entry point returns ``{logical rank: result}`` by one rule
    (:meth:`_collate`): a slot's result, and its :attr:`last_report`
    accounting, come from its first live replica.

    Usage::

        net = KylixAllreduce(cluster, degrees=[8, 4, 2])
        net.configure(spec)              # once per index-set epoch
        out = net.reduce(values)         # many times (e.g. per PageRank iter)
    """

    def __init__(
        self,
        cluster: Cluster,
        degrees: Sequence[int],
        *,
        replication: int = 1,
        hasher: Optional[IndexHasher] = None,
        strict_coverage: bool = True,
        retry: Optional[RetryPolicy] = None,
        degrade: bool = False,
        name: str = "kylix",
    ):
        self.cluster = cluster
        self.hasher = hasher if hasher is not None else MultiplicativeHasher()
        self.slots = SlotMap(cluster.num_nodes, replication)
        self.replication = replication
        self.size = self.slots.size
        self.topology = ButterflyTopology(
            degrees, self.size, key_space=self.hasher.key_space
        )
        self.strict_coverage = strict_coverage
        self.retry = retry
        self.degrade = degrade
        self.name = name
        self.spec: Optional[ReduceSpec] = None
        self.plans: Dict[int, NodePlan] = {}
        self.config_timing: Optional[PhaseTiming] = None
        self.last_reduce_timing: Optional[PhaseTiming] = None
        self.last_combined_timing: Optional[PhaseTiming] = None
        self.last_report: Optional[CoverageReport] = None
        self.duplicates_dropped = 0  # retransmit/injected copies deduped by seq
        self._loss_events: List[LossRecord] = []
        self._instance = 0
        # The hole policy's retained keys (combined path, degraded
        # completion), one store per logical rank, read in memory by
        # core.tombstone_part.
        self._retained: Dict[int, RetainedKeys] = defaultdict(RetainedKeys)

    @property
    def now(self) -> float:
        """The session clock: the cluster's simulated seconds."""
        return self.cluster.now

    @property
    def _obs(self):
        """The cluster's observer, or the no-op one when observation is
        off — instrumentation sites call unconditionally."""
        return getattr(self.cluster, "obs", None) or NULL_OBSERVER

    def _logical(self, physical_rank: int) -> int:
        """Logical slot hosted by a physical node."""
        return self.slots.logical(physical_rank)

    def _effective_retry(self) -> Optional[RetryPolicy]:
        """The retry policy actually in force for this protocol.

        Explicit wins; otherwise a default policy auto-enables under
        ``degrade`` or when the cluster's fault plan is non-empty.  ``None``
        keeps the wait-forever receive path exactly.
        """
        if self.retry is not None:
            return self.retry
        if self.degrade or self.cluster.failures:
            return RetryPolicy()
        return None

    def _run(self, name: str, proto, *args, phase: str = ""):
        """One cluster run of ``proto(node, *args, inst)`` on every node as
        a fresh protocol instance, under a ``name`` span; returns
        ``(results, timing)``."""
        inst = self.next_instance()
        start = self.cluster.now
        self._loss_events = []
        with self._obs.span(name, phase=phase):
            raw = self.cluster.run(proto, *args, inst)
        return raw, PhaseTiming(start, self.cluster.now)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def _check_spec(self, spec: ReduceSpec) -> None:
        if set(spec.ranks) != set(range(self.size)):
            raise ValueError(
                f"spec must cover every logical rank (got {len(spec.ranks)} of "
                f"{self.size})"
            )

    @contextmanager
    def _building(self, spec: ReduceSpec):
        """Put ``spec`` in force for a plan-building run.  A run that
        raises restores the previous spec, so it stays beside its plans."""
        self._check_spec(spec)
        previous, self.spec = self.spec, spec
        try:
            yield
        except BaseException:
            self.spec = previous
            raise

    def configure(self, spec: ReduceSpec) -> Dict[int, NodePlan]:
        """Run the configuration pass; memoises routing for reductions."""
        with self._building(spec):
            raw, self.config_timing = self._run(
                "configure", self._down, phase=PHASE_CONFIG
            )
        self.plans = {rank: plan for rank, (plan, _, _) in raw.items()}
        return self.plans

    def adopt_plans(self, spec: ReduceSpec, plans: Dict[int, NodePlan]) -> None:
        """Install a memoised configuration without re-running the pass.

        The service layer's cache hit path: ``plans`` must come from a
        :meth:`configure` (or combined) run of a spec with an identical
        fingerprint — same degree stack, hasher, operator, dtype, and
        per-rank index sets (:func:`repro.service.spec_fingerprint`
        guarantees this by keying on all of them).  Costs zero simulated
        time: amortization is the point.
        """
        self._check_spec(spec)
        if set(plans) != set(range(self.cluster.num_nodes)):
            raise ValueError(
                f"plans must cover every physical rank (got {sorted(plans)})"
            )
        self.spec = spec
        self.plans = plans
        now = self.cluster.now
        self.config_timing = PhaseTiming(now, now)

    # ------------------------------------------------------------------
    # The per-node seam: one node's passes as simulator processes.  The
    # public methods below and repro.service (concurrent waves, pipelined
    # minibatches) compose these inside a single cluster run.
    # ------------------------------------------------------------------
    def next_instance(self) -> int:
        """Allocate a protocol-instance id.  It namespaces the message
        tags of one reduction, so instances sharing a fabric — several
        streams in one run, overlapping pipelined rounds — cannot
        cross-talk."""
        self._instance += 1
        return self._instance

    def node_down(self, node: SimNode, out_values: Mapping[int, np.ndarray], inst: int):
        """Generator: ``node``'s downward half of reduction ``inst`` over
        the configured plans.  Returns ``(r, r_mask)`` — the fully reduced
        values of the keys the node hosts at the bottom, ready for
        :meth:`node_up` (``r_mask`` is None outside degraded completion)."""
        v, v_mask = yield from self._value_down(node, out_values, inst)
        return core.bottom_projection(
            self.plans[node.rank], self.spec, v, v_mask, strict=self.strict_coverage
        )

    def node_up(self, node: SimNode, r, inst: int, r_mask=None):
        """Generator: ``node``'s upward half of reduction ``inst``.
        Returns the values aligned with the node's ``spec.in_indices`` —
        paired with their validity mask under degraded completion."""
        plan = self.plans[node.rank]
        up = core.up_pass(plan, self.spec, r, r_mask)
        r = r_mask = None  # the pass holds only the parts it sends
        return core.in_order(plan, *(yield from core.drive(up, _SimMedium(self, node, inst))))

    def node_reduce(self, node: SimNode, out_values: Mapping[int, np.ndarray], inst: int):
        """Generator: one node's whole reduction ``inst`` — what
        :meth:`node_down` then :meth:`node_up` return, driven as one pass
        so every simulator resume crosses one generator fewer."""
        return core.drive(
            core.reduce_pass(
                self.plans[node.rank], self.spec,
                out_values[self._logical(node.rank)],
                degrade=self.degrade, strict=self.strict_coverage,
            ),
            _SimMedium(self, node, inst),
        )

    def _value_down(self, node: SimNode, out_values, inst: int):
        """The values-only down pass over the configured plan; returns the
        bottom partial ``(v, v_mask)``."""
        return core.drive(
            core.value_down_pass(
                self.plans[node.rank], self.spec,
                out_values[self._logical(node.rank)],
                degrade=self.degrade,
            ),
            _SimMedium(self, node, inst),
        )

    def _down(self, node: SimNode, inst: int, values=None):
        """The plan-building down pass (combined when ``values`` is given);
        returns ``(plan, v, v_mask)``."""
        rank = self._logical(node.rank)
        plan, v, v_mask = yield from core.drive(
            core.down_pass(
                self.topology, self.hasher, self.spec, rank,
                None if values is None else values[rank],
                degrade=self.degrade,
            ),
            _SimMedium(self, node, inst),
        )
        plan.rank = node.rank  # plans are keyed by physical rank (replication)
        return plan, v, v_mask

    def _gather_proto(self, node: SimNode, bottom_values, inst: int):
        rank = self._logical(node.rank)
        plan = self.plans[node.rank]
        spec = self.spec
        v = np.asarray(bottom_values[rank], dtype=spec.dtype)
        if v.shape != (plan.bottom_out_keys.size, *spec.value_shape):
            raise ValueError(
                f"rank {rank}: bottom values shape {v.shape} does not match "
                f"the bottom range ({plan.bottom_out_keys.size} keys)"
            )
        v_mask = (
            np.ones(v.shape[0], dtype=bool) if self.degrade else None
        )
        r, r_mask = core.bottom_projection(
            plan, spec, v, v_mask, strict=self.strict_coverage
        )
        up = self.node_up(node, r, inst, r_mask)
        r = r_mask = None
        return (yield from up)

    def _combined_proto(self, node: SimNode, out_values, inst: int):
        plan, v, v_mask = yield from self._down(node, inst, out_values)
        # Not node_up: self.plans still holds the previous configuration.
        up = core.up_pass(plan, self.spec, *core.bottom_projection(
            plan, self.spec, v, v_mask, strict=self.strict_coverage
        ))
        v = v_mask = None  # projected: the bottom partial is spent
        return plan, core.in_order(plan, *(yield from core.drive(up, _SimMedium(self, node, inst))))

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def reduce(self, out_values: Mapping[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """One reduction over the configured index sets.

        ``out_values[rank]`` must align with ``spec.out_indices[rank]``;
        the result, ``{logical rank: values}`` (see :meth:`_collate`),
        aligns with ``spec.in_indices[rank]``.
        """
        if self.spec is None:
            raise RuntimeError("configure() must run before reduce()")
        results, self.last_reduce_timing = self._run(
            "reduce", self.node_reduce, out_values
        )
        return self._finish_report(results)

    # ------------------------------------------------------------------
    # Result collation
    # ------------------------------------------------------------------
    def _collate(self, results: Mapping[int, Any]) -> Dict[int, int]:
        """The one result rule of every entry point: ``{logical rank:
        physical rank}`` whose result stands for the slot.

        A slot's result is read from its first live replica — the first,
        in replica order, whose process returned (a node that dies mid-run
        returns nothing; every live replica computes the same values).  A
        slot with no live replica raises
        :class:`~repro.faults.PeerFailedError` naming it; under degraded
        completion it is left out instead, and :meth:`_finish_report`
        marks its whole slice lost.
        """
        first: Dict[int, int] = {}
        for lr, replicas in enumerate(self.slots.physical):
            for p in replicas:
                if p in results:
                    first[lr] = p
                    break
            else:
                if not self.degrade:
                    raise PeerFailedError(
                        f"all {self.replication} replicas of logical slot "
                        f"{lr} are dead",
                        slot=lr,
                    )
        return first

    def _finish_report(self, results: Mapping[int, Any]) -> Dict[int, Any]:
        """Collate in-aligned protocol results by logical rank, strip their
        validity masks and publish this run's :class:`CoverageReport` as
        :attr:`last_report` (``None`` outside degraded completion).

        A slot's lost indices are read from the same replica its values
        are, so report and results always agree.
        """
        first = self._collate(results)
        if not self.degrade:
            self.last_report = None
            return {lr: results[p] for lr, p in first.items()}
        spec = self.spec
        values: Dict[int, Any] = {}
        lost: Dict[int, np.ndarray] = {}
        for lr in range(self.size):
            if lr not in first:
                # Every replica died mid-run: the whole slice is lost.
                lost[lr] = np.asarray(spec.in_indices[lr])
                continue
            vals, mask = results[first[lr]]
            values[lr] = vals
            if not bool(mask.all()):
                lost[lr] = np.asarray(spec.in_indices[lr])[~mask]
        self.last_report = CoverageReport.from_losses(
            spec, self.size, lost, self._loss_events
        )
        return values

    # ------------------------------------------------------------------
    def verify_plans(self) -> None:
        """Statically check the current plans with the certifier's replay.

        Must be called after :meth:`configure`.  Runs the topology
        invariants and :func:`~repro.verify.flow.analyze_flow` — a replay
        of every slot's memoised splits, unions, maps and bottom
        projection against the spec, costing about as much as the
        unions it replays (no simulated traffic).  Each slot's first live
        replica (the one results are read from) is certified; every other
        replica holding a plan must have the same fingerprint.  Raises
        :class:`~repro.verify.flow.CertificationError` (a
        :class:`~repro.verify.errors.ProtocolInvariantError`) listing
        every violation (see ``docs/verify.md`` for the catalogue).
        """
        if not self.plans:
            raise RuntimeError("configure() must run before verify_plans()")
        from ..verify.flow import CertificationError, analyze_flow, plan_fingerprint
        from ..verify.invariants import Violation, check_topology

        violations = check_topology(self.topology)
        certified: Dict[int, NodePlan] = {}
        for lr, replicas in enumerate(self.slots.physical):
            holders = sorted(
                (p for p in replicas if p in self.plans),
                key=lambda p: not self.cluster.is_alive(p),
            )
            if holders:
                certified[lr] = self.plans[holders[0]]
            if len(holders) > 1 and len(
                {plan_fingerprint(self.topology, {lr: self.plans[p]}) for p in holders}
            ) > 1:
                violations.append(
                    Violation(
                        "replication",
                        f"replicas {holders} hold plans with different fingerprints",
                        node=lr,
                    )
                )
        violations += analyze_flow(
            self.topology, certified, self.spec, self.hasher
        ).violations
        if violations:
            raise CertificationError(violations)

    # ------------------------------------------------------------------
    def allreduce(
        self, spec: ReduceSpec, out_values: Mapping[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """One-shot convenience: configure then reduce."""
        self.configure(spec)
        return self.reduce(out_values)

    def scatter_reduce(
        self, out_values: Mapping[int, np.ndarray]
    ) -> Dict[int, tuple]:
        """The downward half only: a sparse **reduce-scatter**.

        Each logical node ends up holding the *fully reduced* values for
        its bottom nested key range.  Returns ``{rank: (indices, values)}``
        with raw (un-hashed) indices, collated like :meth:`reduce`.
        Composes with :meth:`allgather_from_bottom` — ``reduce()`` is
        exactly the two in sequence — so callers can transform
        globally-reduced data in place (normalise, clip, apply a model
        update at its home) before fanning results back out.
        """
        if self.spec is None:
            raise RuntimeError("configure() must run before scatter_reduce()")
        raw, self.last_reduce_timing = self._run(
            "scatter_reduce", self._value_down, out_values
        )
        return {
            lr: (self.hasher.unhash(self.plans[p].bottom_out_keys), raw[p][0])
            for lr, p in self._collate(raw).items()
        }

    def allgather_from_bottom(
        self, bottom_values: Mapping[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """The upward half only: a sparse **allgather**.

        ``bottom_values[rank]`` must align with the indices returned by
        :meth:`scatter_reduce` for that rank; every node receives the
        values for its configured in-set.
        """
        if self.spec is None:
            raise RuntimeError("configure() must run before allgather_from_bottom()")
        raw, self.last_reduce_timing = self._run(
            "allgather_from_bottom", self._gather_proto, bottom_values
        )
        return self._finish_report(raw)

    def allreduce_combined(
        self, spec: ReduceSpec, out_values: Mapping[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """Configuration and reduction with *combined* messages (§III).

        When in/out index sets change on every allreduce (minibatch
        updates), a separate config pass wastes a full network traversal;
        here index parts and value parts share the same downward messages.
        The routing plan built along the way is kept, so subsequent
        :meth:`reduce` calls (same index sets) work as usual.
        """
        with self._building(spec):
            self._retained.clear()
            raw, self.last_combined_timing = self._run(
                "allreduce_combined", self._combined_proto, out_values,
                phase=PHASE_COMBINED_DOWN,
            )
        self.plans = {rank: pr[0] for rank, pr in raw.items()}
        return self._finish_report({rank: pr[1] for rank, pr in raw.items()})
