"""Kylix on the simulator: the virtual-clock driver of the protocol core (§III).

The protocol itself — split, scatter, tree-merge and memoise maps on the
way down, replay the maps back up — lives in :mod:`repro.allreduce.core`
as sans-IO generators that yield one ``Exchange`` per layer.
:class:`KylixAllreduce` is what turns those into simulator processes:
message tags, the send and receive hooks :class:`ReplicatedKylix`
overrides, the deadline/NACK receive loop, merge cost charged to the
node's CPU on the virtual clock, the hole policy's in-memory audit
stores, and the public configure/reduce API.

Degenerate stacks reproduce the baselines: ``[m]`` is the direct
all-to-all allreduce, ``[2]*log2(m)`` the binary butterfly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..cluster import Cluster, SimNode
from ..faults import CoverageReport, FaultPlan, LossRecord, PeerFailedError, RetryPolicy
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
        self.size = self._logical_size()
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
        # Dead-partial key audit state for the combined path (degraded
        # completion): per instance, each node's raw unique out keys and
        # the out-key slice of every down part it sent.  The in-memory
        # equivalent of the wire transports' retained sent-keys stores —
        # see core.dead_partial_keys.
        self._audit_raw: Dict[tuple, np.ndarray] = {}
        self._audit_sent: Dict[tuple, np.ndarray] = {}

    @property
    def _obs(self):
        """The cluster's observer, or the no-op one when observation is
        off — instrumentation sites call unconditionally."""
        return getattr(self.cluster, "obs", None) or NULL_OBSERVER

    # ------------------------------------------------------------------
    # Logical/physical mapping hooks (overridden by ReplicatedKylix)
    # ------------------------------------------------------------------
    def _logical_size(self) -> int:
        """Width of the logical butterfly (= physical size when unreplicated)."""
        return self.cluster.num_nodes

    def _logical(self, physical_rank: int) -> int:
        """Logical slot hosted by a physical node."""
        return physical_rank

    def _send_to(self, node: SimNode, logical_dst: int, payload, *, tag, phase, layer):
        """Deliver ``payload`` to (every replica of) a logical destination."""
        node.send(logical_dst, payload, tag=tag, phase=phase, layer=layer)

    def _pos_from_src(self, src: int, pos_of: Dict[int, int]) -> int:
        """Group position of the (logical) sender of a received message."""
        return pos_of[src]

    def _request_resend(self, node: SimNode, member: int, tag, attempt: int):
        """Ask the fabric to retransmit ``member``'s message for ``tag``.

        Tri-state: True = resend scheduled, False = the sender is dead
        (no recovery possible), None = the sender is alive but has not
        reached that send yet (its own recovery may be in progress).
        """
        return node.cluster.fabric.request_resend(node.rank, member, tag, attempt)

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

    def _recv_group(
        self,
        node: SimNode,
        tag,
        pos_of: Dict[int, int],
        count: int,
        *,
        phase: str = "",
        layer: int = -1,
        nbytes_hint: int = 0,
    ):
        """Receive one message per group position; duplicates (replica
        copies that lost the race, injected copies, late retransmits) are
        skipped.  Returns messages indexed by group position.

        Without a retry policy this is one group receive: the process
        wakes once per layer, when the last position fills.  With a retry
        policy in force, each wait is bounded by a deadline
        derived from the netmodel envelope; on expiry a NACK is sent for
        every missing member (bounded by ``max_retries``, backoff applied
        to subsequent deadlines), receivers dedupe retransmitted copies
        by sequence number, and an unrecoverable member either raises
        :class:`PeerFailedError` (strict) or leaves a ``None`` hole for
        the degrade machinery to account (the entry becomes a loss in the
        :class:`CoverageReport`).
        """
        retry = self._effective_retry()
        if retry is None:
            return (
                yield node.recv_all(
                    count, tag=tag, slot_of=partial(self._pos_from_src, pos_of=pos_of)
                )
            )

        received: List = [None] * count
        got = 0
        params = self.cluster.params
        engine = node.engine
        degrade = self.degrade
        seen_seq: set = set()  # (physical src, seq) already consumed
        tries: Dict[int, int] = {}  # member -> resend requests issued
        abandoned: set = set()  # positions declared unrecoverable
        timeouts = 0  # consecutive expiries since last progress
        pending_waits = 0
        # A member can be late because *its* upstream peer died and it is
        # burning its own retry budget; such waits (fabric says "alive,
        # nothing sent yet") do not consume our budget but are capped so
        # a cascade of failures still resolves in bounded time.
        max_pending = 4 * (retry.max_retries + 1)

        def give_up(member: int, q: int):
            if not degrade:
                raise PeerFailedError(
                    f"{self.name}: no response from slot {member} "
                    f"(phase={phase or '?'}, layer={layer}) within the retry "
                    f"budget ({retry.max_retries} resend requests)",
                    slot=member,
                    phase=phase,
                    layer=layer,
                )
            self._loss_events.append(
                LossRecord(
                    rank=self._logical(node.rank), member=member, phase=phase, layer=layer
                )
            )
            abandoned.add(q)

        while got < count:
            deadline = retry.timeout_for(
                params, nbytes_hint, min(timeouts, retry.max_retries)
            )
            try:
                msg = yield from wait_with_timeout(engine, node.recv(tag=tag), deadline)
            except WaitTimeout:
                timeouts += 1
                any_pending = False
                for member, q in sorted(pos_of.items(), key=lambda kv: kv[1]):
                    if received[q] is not None or q in abandoned:
                        continue
                    attempt = tries.get(member, 0)
                    if attempt >= retry.max_retries:
                        give_up(member, q)
                        got += 1
                        continue
                    status = self._request_resend(node, member, tag, attempt + 1)
                    if status is True:
                        tries[member] = attempt + 1
                    elif status is False:  # sender dead: no recovery possible
                        give_up(member, q)
                        got += 1
                    else:
                        any_pending = True
                if any_pending:
                    pending_waits += 1
                    if pending_waits > max_pending:
                        for member, q in sorted(pos_of.items(), key=lambda kv: kv[1]):
                            if received[q] is None and q not in abandoned:
                                give_up(member, q)
                                got += 1
                continue
            key = (msg.src, msg.seq)
            if key in seen_seq:
                self.duplicates_dropped += 1
                self._obs.counter("faults.duplicates_dropped").inc(
                    phase=phase, layer=layer
                )
                continue
            seen_seq.add(key)
            q = self._pos_from_src(msg.src, pos_of)
            if received[q] is not None or q in abandoned:
                continue  # replica copy that lost the race / late arrival
            received[q] = msg
            got += 1
            timeouts = 0
        return received

    def _drive(self, node: SimNode, gen, inst: int):
        """Pump one :mod:`~repro.allreduce.core` pass as a simulator process.

        Per ``Exchange``: send every part (the node's own crosses the
        fabric like any other), receive one per group position under the
        deadline/NACK loop, resume the pass with them, and charge the
        merge it just did to the node's CPU on the virtual clock.
        Returns the pass's return value.
        """
        obs = self._obs
        rank = self._logical(node.rank)
        name = self.name
        ex = next(gen)
        while ex is not None:
            phase, layer, group, _, out_parts, nbytes_hint, plan = ex
            building = phase in (PHASE_CONFIG, PHASE_COMBINED_DOWN)
            span = obs.begin(f"{phase} L{layer}", node=rank, phase=phase, layer=layer)
            tag = (name, _TAG_KIND[phase], inst, layer)
            # The hole policy (docs/faults.md): what a combined-down hole
            # took with it is reconstructed from these in-memory stores —
            # the equivalent of the wire transports' retained sent keys.
            audit = phase == PHASE_COMBINED_DOWN and self._degrade_active()
            if audit and layer == 1:
                # State 0: this node's partial starts as exactly its own
                # unique out keys.  Recorded before any sends, so if this
                # node later dies mid-protocol its survivors can
                # reconstruct what the dead partial contained.
                self._audit_raw[(inst, rank)] = np.concatenate(
                    [part[0] for part in out_parts]
                )
            for member, part in zip(group, out_parts):
                if audit:
                    self._audit_sent[(inst, layer, rank, member)] = part[0]
                self._send_to(node, member, part, tag=tag, phase=phase, layer=layer)
            pos_of = (
                {member: q for q, member in enumerate(group)}
                if building  # the layer's LayerPlan exists only after the resume
                else plan.layers[layer - 1].pos_of
            )
            msgs = yield from self._recv_group(
                node, tag, pos_of, len(group),
                phase=phase, layer=layer, nbytes_hint=nbytes_hint,
            )
            # A None message is an unrecoverable member: it stays a hole.
            parts = [None if msg is None else msg.payload for msg in msgs]
            cost = sum([msg.nbytes for msg in msgs if msg is not None])
            if audit:
                for q, part in enumerate(parts):
                    if part is None:
                        parts[q] = core.tombstone_part(
                            self.topology, self.spec, rank, layer, group[q],
                            lambda h: self._audit_raw.get((inst, h)),
                            lambda p, h, s: self._audit_sent.get((inst, s, p, h)),
                        )
            merge_span = obs.begin(
                f"merge L{layer}", node=rank, phase=phase, layer=layer, kind="merge"
            )
            try:
                ex = gen.send(parts)
            except StopIteration as stop:
                ex, result = None, stop.value
            if building:
                obs.histogram("config.merge_length").observe(
                    plan.layers[layer - 1].out_union_size, phase=phase, layer=layer
                )
                # Tree merge: every element participates in ~log2(d)+1 merges.
                cost *= max(1, int(np.ceil(np.log2(max(len(group), 2)))) + 1)
            yield node.compute_bytes(cost)
            obs.end(merge_span)
            obs.end(span)
        return result

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
        r, r_mask = yield from self._drive(
            node, core.up_pass(plan, self.spec, r, r_mask), inst
        )
        return core.in_order(plan, r, r_mask)

    def node_reduce(self, node: SimNode, out_values: Mapping[int, np.ndarray], inst: int):
        """Generator: one node's whole reduction ``inst`` — what
        :meth:`node_down` then :meth:`node_up` return, driven as one pass
        so every simulator resume crosses one generator fewer."""
        return self._drive(
            node,
            core.reduce_pass(
                self.plans[node.rank], self.spec,
                out_values[self._logical(node.rank)],
                degrade=self._degrade_active(), strict=self.strict_coverage,
            ),
            inst,
        )

    def _value_down(self, node: SimNode, out_values, inst: int):
        """The values-only down pass over the configured plan; returns the
        bottom partial ``(v, v_mask)``."""
        return self._drive(
            node,
            core.value_down_pass(
                self.plans[node.rank], self.spec,
                out_values[self._logical(node.rank)],
                degrade=self._degrade_active(),
            ),
            inst,
        )

    def _down(self, node: SimNode, inst: int, values=None):
        """The plan-building down pass (combined when ``values`` is given);
        returns ``(plan, v, v_mask)``."""
        rank = self._logical(node.rank)
        plan, v, v_mask = yield from self._drive(
            node,
            core.down_pass(
                self.topology, self.hasher, self.spec, rank,
                None if values is None else values[rank],
                degrade=self._degrade_active(),
            ),
            inst,
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
        r, r_mask = yield from self._drive(
            node, core.up_pass(plan, self.spec, r, r_mask), inst
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
        """Statically check every protocol invariant of the current plans.

        Must be called after :meth:`configure`; raises
        :class:`~repro.verify.errors.ProtocolInvariantError` listing every
        violated invariant (see ``docs/verify.md`` for the catalogue).
        Costs one synchronous sweep over the memoised state — no
        simulated traffic.
        """
        if not self.plans:
            raise RuntimeError("configure() must run before verify_plans()")
        from ..verify.invariants import assert_valid

        logical = {}
        for rank, plan in self.plans.items():
            lr = self._logical(rank)
            logical.setdefault(lr, plan)
        assert_valid(self.topology, logical)

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
        self._audit_raw.clear()
        self._audit_sent.clear()
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
