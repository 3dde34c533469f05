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

Degenerate stacks reproduce the baselines: ``[m]`` is the direct
all-to-all allreduce, ``[2]*log2(m)`` the binary butterfly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..cluster import Cluster, SimNode
from ..faults import CoverageReport, FaultPlan, LossRecord, RetryPolicy
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

__all__ = ["KylixAllreduce", "PhaseTiming"]

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
        self.rank = net._logical(node.rank)
        self.topo, self.spec, self.slots = net.topology, net.spec, net.slots
        self.obs = net._obs
        self.degrade = net._degrade_active()

    @property
    def retained(self) -> RetainedKeys:
        return self.net._retained[self.rank]

    def fetch(self, holder: int, direction: str, layer: int, about: int):
        return self.net._retained[holder].get(direction, self.round, layer, about)

    def send(self, dst: int, part, phase: str, layer: int) -> None:
        tag = (self.name, _TAG_KIND[phase], self.round, layer)
        self.node.send(dst, part, tag=tag, phase=phase, layer=layer)

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
        net, node, group = self.net, self.node, ex.group
        tag = (self.name, _TAG_KIND[ex.phase], self.round, ex.layer)
        retry = net._effective_retry()
        slot_of = self.slots.slot_fn(pos_of)
        if retry is None:
            msgs = yield node.recv_all(len(group), tag=tag, slot_of=slot_of)
        else:
            ladder = ReceiveLadder(
                group, rank=self.rank, phase=ex.phase, layer=ex.layer,
                max_retries=retry.max_retries, degrade=net.degrade,
                reset_on_arrival=True, losses=net._loss_events,
            )
            request_resend = node.cluster.fabric.request_resend
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
            msgs = [ladder.parts.get(q) for q in range(len(group))]
        return (
            [None if msg is None else msg.payload for msg in msgs],
            sum([msg.nbytes for msg in msgs if msg is not None]),
        )

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


class KylixAllreduce:
    """Sparse allreduce over a simulated cluster with a fixed degree stack.

    Parameters
    ----------
    cluster:
        The simulated cluster to run on.
    degrees:
        Butterfly degrees, top layer first; their product must equal the
        cluster size.  ``[m]`` degenerates to direct all-to-all.
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
        keeps the legacy wait-forever behaviour — unless the cluster's
        failure plan is a :class:`~repro.faults.FaultPlan`, in which case
        a default policy switches on automatically (a fault-injected run
        without deadlines would just hang).
    degrade:
        Fault-loss handling when a peer is unrecoverable (all replicas of
        a slot dead, retries exhausted).  ``False`` (strict, the default)
        raises :class:`~repro.faults.PeerFailedError` naming the dead
        slot; ``True`` completes with the surviving data — unrecoverable
        entries hold the reduction identity — and publishes an exact
        :class:`~repro.faults.CoverageReport` as :attr:`last_report`.
        Only meaningful when a retry policy is in effect.

    Usage::

        net = KylixAllreduce(cluster, degrees=[8, 4, 2])
        net.configure(spec)              # once per index-set epoch
        out = net.reduce(values)         # many times (e.g. per PageRank iter)
    """

    #: Physical replicas per logical slot (:class:`ReplicatedKylix` sets it).
    replication = 1

    def __init__(
        self,
        cluster: Cluster,
        degrees: Sequence[int],
        *,
        hasher: Optional[IndexHasher] = None,
        strict_coverage: bool = True,
        retry: Optional[RetryPolicy] = None,
        degrade: bool = False,
        name: str = "kylix",
    ):
        self.cluster = cluster
        self.hasher = hasher if hasher is not None else MultiplicativeHasher()
        self.slots = SlotMap(cluster.num_nodes, self.replication)
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
    def _obs(self):
        """The cluster's observer, or the no-op one when observation is
        off — instrumentation sites call unconditionally."""
        return getattr(self.cluster, "obs", None) or NULL_OBSERVER

    def _logical(self, physical_rank: int) -> int:
        """Logical slot hosted by a physical node."""
        return self.slots.logical(physical_rank)

    def _effective_retry(self) -> Optional[RetryPolicy]:
        """The retry policy actually in force for this protocol.

        Explicit wins; otherwise a default policy auto-enables when the
        cluster carries a :class:`~repro.faults.FaultPlan` (a fault-
        injected run without deadlines would hang on the first loss).
        ``None`` preserves the legacy wait-forever receive path exactly.
        """
        if self.retry is not None:
            return self.retry
        if isinstance(getattr(self.cluster, "failures", None), FaultPlan):
            return RetryPolicy()
        return None

    def _degrade_active(self) -> bool:
        return self.degrade and self._effective_retry() is not None

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

    def configure(self, spec: ReduceSpec) -> Dict[int, NodePlan]:
        """Run the configuration pass; memoises routing for reductions."""
        self._check_spec(spec)
        self.spec = spec
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
        r, r_mask = yield from core.drive(
            core.up_pass(plan, self.spec, r, r_mask), _SimMedium(self, node, inst)
        )
        return core.in_order(plan, r, r_mask)

    def node_reduce(self, node: SimNode, out_values: Mapping[int, np.ndarray], inst: int):
        """Generator: one node's whole reduction ``inst`` — what
        :meth:`node_down` then :meth:`node_up` return, driven as one pass
        so every simulator resume crosses one generator fewer."""
        return core.drive(
            core.reduce_pass(
                self.plans[node.rank], self.spec,
                out_values[self._logical(node.rank)],
                degrade=self._degrade_active(), strict=self.strict_coverage,
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
                degrade=self._degrade_active(),
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
                degrade=self._degrade_active(),
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
            np.ones(v.shape[0], dtype=bool) if self._degrade_active() else None
        )
        r, r_mask = core.bottom_projection(
            plan, spec, v, v_mask, strict=self.strict_coverage
        )
        return (yield from self.node_up(node, r, inst, r_mask))

    def _combined_proto(self, node: SimNode, out_values, inst: int):
        plan, v, v_mask = yield from self._down(node, inst, out_values)
        r, r_mask = core.bottom_projection(
            plan, self.spec, v, v_mask, strict=self.strict_coverage
        )
        # Not node_up: self.plans still holds the previous configuration.
        r, r_mask = yield from core.drive(
            core.up_pass(plan, self.spec, r, r_mask), _SimMedium(self, node, inst)
        )
        return plan, core.in_order(plan, r, r_mask)

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def reduce(self, out_values: Mapping[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """One reduction over the configured index sets.

        ``out_values[rank]`` must align with ``spec.out_indices[rank]``;
        the result aligns with ``spec.in_indices[rank]``.
        """
        if self.spec is None:
            raise RuntimeError("configure() must run before reduce()")
        results, self.last_reduce_timing = self._run(
            "reduce", self.node_reduce, out_values
        )
        return self._finish_report(results)

    # ------------------------------------------------------------------
    # Degraded-completion accounting
    # ------------------------------------------------------------------
    def _collation_rank(self, logical_rank: int) -> int:
        """Physical rank whose result represents ``logical_rank``."""
        return logical_rank

    def _finish_report(self, results: Dict[int, Any]) -> Dict[int, Any]:
        """Strip validity masks off protocol results and publish the
        :class:`CoverageReport` for this run as :attr:`last_report`.

        Outside degraded completion this is the identity.  The report's
        per-rank lost indices are taken from the same replica that
        :meth:`reduce` returns values from, so report and results always
        agree.
        """
        if not self._degrade_active():
            self.last_report = None
            return results
        spec = self.spec
        values: Dict[int, Any] = {}
        masks: Dict[int, np.ndarray] = {}
        for rank, payload in results.items():
            vals, mask = payload
            values[rank] = vals
            masks[rank] = mask
        lost: Dict[int, np.ndarray] = {}
        for lr in range(self.size):
            phys = self._collation_rank(lr)
            if phys is None or phys not in masks:
                # The rank (or every replica of it) died mid-run: there is
                # no surviving result, so its entire slice is lost.
                lost[lr] = np.asarray(spec.in_indices[lr])
                continue
            mask = masks[phys]
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
        with raw (un-hashed) indices.  Composes with
        :meth:`allgather_from_bottom` — ``reduce()`` is exactly the two in
        sequence — so callers can transform globally-reduced data in place
        (normalise, clip, apply a model update at its home) before fanning
        results back out.
        """
        if self.spec is None:
            raise RuntimeError("configure() must run before scatter_reduce()")
        raw, self.last_reduce_timing = self._run(
            "scatter_reduce", self._value_down, out_values
        )
        out = {}
        for rank, (v, _) in raw.items():
            lr = self._logical(rank)
            keys = self.plans[rank].bottom_out_keys
            out[lr] = (self.hasher.unhash(keys), v)
        return out

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
        # physical plans may outnumber logical ranks (replication)
        values = {
            self._logical(rank): bottom_values[self._logical(rank)]
            for rank in self.plans
        }
        raw, self.last_reduce_timing = self._run(
            "allgather_from_bottom", self._gather_proto, values
        )
        raw = self._finish_report(raw)
        return {self._logical(r): v for r, v in raw.items()}

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
        self._check_spec(spec)
        self.spec = spec
        self._retained.clear()
        raw, self.last_combined_timing = self._run(
            "allreduce_combined", self._combined_proto, out_values,
            phase=PHASE_COMBINED_DOWN,
        )
        self.plans = {rank: pr[0] for rank, pr in raw.items()}
        results = self._finish_report({rank: pr[1] for rank, pr in raw.items()})
        if self._degrade_active():
            return {
                lr: results[self._collation_rank(lr)]
                for lr in range(self.size)
                if self._collation_rank(lr) in results
            }
        return {self._logical(rank): v for rank, v in results.items()}
