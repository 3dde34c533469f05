"""Symbolic plan certification: static coverage proofs + exact volume model.

The one plan checker: an abstract-interpretation pass over the
``NodePlan``/``LayerPlan`` state that **proves the whole protocol correct
and predicts its exact cost** without running the simulator.  ``python -m
repro verify``, ``KylixAllreduce.verify_plans()`` and every
:mod:`repro.mc` schedule run its static pass; ``python -m repro certify``
adds the certificate and the runtime gates.

The abstract domain is an index-interval lattice: each node's state at
layer ``i`` is abstracted as ``(interval, key set)`` where the interval
is the node's nested hashed-key range and the key set is the exact
sorted union the node would hold.  The concretisation of a send is a cut
of the sender's key set against the *receiver's* interval; layer by
layer the analysis discharges flow equations showing that

* every input index reaches its responsible reducer on the down path and
  every requesting node on the up path (**coverage**), and
* no index is duplicated or dropped at any layer (**conservation**).

Crucially the analysis replays the plan's *own* memoised structure
(slices, maps, groups) — it does not re-derive the splits — so a
corrupted or mis-partitioned plan is caught, not reproduced.

Proof obligations (names are stable identifiers, catalogued in
``docs/verify.md``):

``flow-structure``
    Every node's plan has exactly one ``LayerPlan`` per topology layer,
    and each layer's memoised group, position and ``pos_of`` are the
    topology's.
``flow-slice-tiling``
    At each layer the memoised out/in splits are unit-stride slices that
    tile ``[0, len(keys))`` exactly — conservation at the sender.
``flow-down-partition``
    Each part a node sends lies inside the receiving member's nested
    key interval (the interval-lattice transfer function).  A
    mis-partitioned layer fails here.
``flow-down-union``
    A receiver's memoised union/maps reconstruct exactly the set union
    of the parts its group actually sends — conservation at the
    receiver (no key dropped, none duplicated).
``flow-down-coverage``
    After the last layer each node's key set equals the *global* input
    union restricted to its bottom interval — every input index reached
    its responsible reducer, and the bottom sets tile the key space.
``flow-up-reassembly``
    At every layer, the sub-vector a member would return on the up path
    carries exactly the keys this node sent it during configuration, and
    the write-back slices tile the previous in-key array — the up pass
    retraces the down path losslessly.
``flow-up-coverage``
    Each node's memoised bottom projection maps every requested in-key
    that has a contributor to its exact slot in the reduced bottom set.

Runtime obligations (discharged against a live run):

``traffic-exact``
    Observed :class:`~repro.cluster.stats.TrafficStats` cells equal the
    certificate's per-(phase, layer) byte/message predictions exactly
    (NACK retransmissions are tracked separately and subtracted).
``coverage-bound``
    Under a crash schedule, the runtime
    :class:`~repro.faults.CoverageReport` never loses an index outside
    the statically computed worst-case reachable set.

Under a crash schedule ``certify`` also reports the runner's
``degraded-exact`` check (:func:`repro.obs.runner.run_traced`): every
value a rank does not report lost equals the dense reference.  It is a
check of the run, not of the plan: the certificate's obligations do not list it.

``python -m repro certify`` is the command-line face of this module.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from math import prod
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..allreduce.base import ReduceSpec
from ..allreduce.core import NodePlan
from ..allreduce.topology import ButterflyTopology
from ..sparse import IndexHasher, MultiplicativeHasher
from .errors import ProtocolInvariantError
from .invariants import Violation

__all__ = [
    "CERT_SCHEMA",
    "PHASES",
    "OBLIGATIONS",
    "CertificationError",
    "FlowAnalysis",
    "Certificate",
    "analyze_flow",
    "certify",
    "certificate_for_experiment",
    "check_traffic",
    "worst_case_loss",
    "mutant_plans",
    "plan_fingerprint",
    "model_crosscheck",
    "density_spec",
    "emit_certificate_metrics",
]

CERT_SCHEMA = 1

#: The three phases of a configure-then-reduce run, in protocol order.
PHASES = ("config", "reduce_down", "gather_up")

#: Obligation name -> one-line meaning (the docs table renders this).
OBLIGATIONS: Dict[str, str] = {
    "flow-structure": "one LayerPlan per topology layer on every node",
    "flow-slice-tiling": "memoised splits tile [0, len(keys)) — sender conservation",
    "flow-down-partition": "every sent part lies in the receiver's nested interval",
    "flow-down-union": "memoised union/maps equal the set union of received parts",
    "flow-down-coverage": "bottom sets equal the global union cut by bottom intervals",
    "flow-up-reassembly": "up-path returns retrace the down path losslessly",
    "flow-up-coverage": "bottom projection maps each covered in-key to its slot",
    "traffic-exact": "observed TrafficStats equal the certificate cell for cell",
    "coverage-bound": "runtime losses stay inside the static worst-case set",
}


class CertificationError(ProtocolInvariantError):
    """At least one proof obligation could not be discharged."""

    def __init__(self, violations: Sequence[Violation]):
        from .invariants import format_report

        super().__init__(
            format_report(list(violations)), invariant=violations[0].invariant
        )
        self.violations = list(violations)


# ---------------------------------------------------------------------------
# The abstract-interpretation pass
# ---------------------------------------------------------------------------
@dataclass
class FlowAnalysis:
    """Result of one flow pass: discharged obligations + exact traffic."""

    violations: List[Violation]
    obligations: Dict[str, int]  # obligation -> instances checked
    traffic: Dict[Tuple[str, int], Dict[str, int]]  # (phase, layer) -> cell

    @property
    def ok(self) -> bool:
        return not self.violations


def _element_bytes(spec: ReduceSpec) -> int:
    """Bytes per value row (itemsize × trailing shape) — the reduction
    payload unit both passes move."""
    return int(spec.dtype.itemsize) * int(prod(spec.value_shape)) if spec.value_shape \
        else int(spec.dtype.itemsize)


def _empty_cell() -> Dict[str, int]:
    return {"messages": 0, "bytes": 0, "self_messages": 0, "self_bytes": 0}


def _sorted_set(keys: np.ndarray) -> np.ndarray:
    """The distinct ``keys`` in ascending order: one sort and an adjacent
    difference.  Not ``np.unique``, whose integer path hashes (about ten
    times slower at 80k keys a node on NumPy 2.4), and not
    :func:`~repro.sparse.union_with_maps`, the kernel this module checks."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if keys.size else keys


def _slices_tile(slices: Sequence[slice], size: int, parts: int) -> bool:
    """True iff ``slices`` are ``parts`` adjacent ascending unit-stride
    cuts of ``[0, size)`` — the conservation shape of ``split_sorted``."""
    if len(slices) != parts:
        return False
    prev = 0
    for s in slices:
        if s.step not in (None, 1) or s.start != prev or s.stop < s.start:
            return False
        prev = s.stop
    return prev == size


def _structure_violations(
    topology: ButterflyTopology, rank: int, plan: Optional[NodePlan]
) -> Iterator[Violation]:
    """``flow-structure`` for one node: a plan with one ``LayerPlan`` per
    layer, each memoising the topology's group, position and ``pos_of``."""
    if plan is None or len(plan.layers) != topology.num_layers:
        have = "no plan" if plan is None else f"a plan of {len(plan.layers)} layers"
        yield Violation(
            "flow-structure",
            f"{have} for a topology of {topology.num_layers} layers",
            node=rank,
        )
        return
    for layer, lp in enumerate(plan.layers, start=1):
        group = topology.group(rank, layer)
        pos_of = {member: q for q, member in enumerate(group)}
        if (list(lp.group), lp.pos, lp.pos_of) != (group, pos_of[rank], pos_of):
            yield Violation(
                "flow-structure",
                f"memoised group {list(lp.group)}, position {lp.pos} or pos_of "
                f"differ from the topology's group {group} at {pos_of[rank]}",
                node=rank,
                layer=layer,
            )


def analyze_flow(
    topology: ButterflyTopology,
    plans: Mapping[int, NodePlan],
    spec: ReduceSpec,
    hasher: Optional[IndexHasher] = None,
) -> FlowAnalysis:
    """Run the abstract-interpretation pass over ``plans``.

    Discharges every static proof obligation and derives the exact
    per-(phase, layer) byte/message predictions as a side product of the
    same walk (the parts whose sizes the predictions sum are the parts
    the proofs reason about, so the two can never drift apart).
    """
    hasher = hasher if hasher is not None else MultiplicativeHasher()
    m = topology.num_nodes
    nlayers = topology.num_layers
    elem_bytes = _element_bytes(spec)
    violations: List[Violation] = []
    checked: Dict[str, int] = {name: 0 for name in OBLIGATIONS}
    traffic: Dict[Tuple[str, int], Dict[str, int]] = {
        (phase, layer): _empty_cell()
        for phase in PHASES
        for layer in range(1, nlayers + 1)
    }

    # Initial abstract state: (out key set, in key set) per node, interval
    # = the full hashed key space.
    state: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for rank in range(m):
        state[rank] = (
            _sorted_set(hasher.hash(spec.out_indices[rank])),
            _sorted_set(hasher.hash(spec.in_indices[rank])),
        )

    for rank in range(m):
        checked["flow-structure"] += 1
        violations.extend(_structure_violations(topology, rank, plans.get(rank)))
    if violations:
        # the replay below walks the memoised groups: it needs them right
        return FlowAnalysis(violations, checked, traffic)

    for layer in range(1, nlayers + 1):
        d = topology.degrees[layer - 1]
        # --- sender side: cut each node's sets along its memoised splits
        sent_out: Dict[int, List[np.ndarray]] = {}
        sent_in: Dict[int, List[np.ndarray]] = {}
        for rank in range(m):
            lp = plans[rank].layers[layer - 1]
            out_keys, in_keys = state[rank]
            for side, slices, keys in (
                ("out", lp.out_slices, out_keys),
                ("in", lp.in_slices, in_keys),
            ):
                checked["flow-slice-tiling"] += 1
                if not _slices_tile(slices, keys.size, d):
                    violations.append(
                        Violation(
                            "flow-slice-tiling",
                            f"{side} slices do not tile [0, {keys.size}) "
                            f"in {d} parts",
                            node=rank,
                            layer=layer,
                        )
                    )
            parts_out = [out_keys[s] for s in lp.out_slices[:d]]
            parts_in = [in_keys[s] for s in lp.in_slices[:d]]
            # interval-lattice transfer: each part must sit inside the
            # receiving member's nested interval — O(1) per part on
            # sorted keys (endpoints only)
            for q, member in enumerate(lp.group):
                sub = topology.key_range(member, layer)
                for side, part in (("out", parts_out[q] if q < len(parts_out) else None),
                                   ("in", parts_in[q] if q < len(parts_in) else None)):
                    if part is None:
                        continue
                    checked["flow-down-partition"] += 1
                    if part.size and not (
                        int(part[0]) >= sub.lo and int(part[-1]) < sub.hi
                    ):
                        violations.append(
                            Violation(
                                "flow-down-partition",
                                f"{side} part for member {member} escapes its "
                                f"interval [{sub.lo}, {sub.hi}) "
                                f"(keys span [{int(part[0])}, {int(part[-1])}])",
                                node=rank,
                                layer=layer,
                            )
                        )
            sent_out[rank] = parts_out
            sent_in[rank] = parts_in
            # --- exact traffic for this node's sends at this layer
            cfg = traffic[("config", layer)]
            down = traffic[("reduce_down", layer)]
            up = traffic[("gather_up", layer)]
            for q, member in enumerate(lp.group):
                self_msg = member == rank
                opart = parts_out[q] if q < len(parts_out) else out_keys[:0]
                ipart = parts_in[q] if q < len(parts_in) else in_keys[:0]
                _bump(cfg, int(opart.nbytes + ipart.nbytes), self_msg)
                _bump(down, int(opart.size) * elem_bytes, self_msg)
                up_size = int(lp.in_recv_maps[q].size) if q < len(lp.in_recv_maps) else 0
                _bump(up, up_size * elem_bytes, self_msg)

        # --- receiver side: memoised unions/maps vs the replayed truth
        new_state: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for rank in range(m):
            lp = plans[rank].layers[layer - 1]
            pos = lp.pos
            unions: List[np.ndarray] = []
            for side, sent, maps, usize in (
                ("out", sent_out, lp.out_recv_maps, lp.out_union_size),
                ("in", sent_in, lp.in_recv_maps, lp.in_union_size),
            ):
                parts = [
                    sent[j][pos] if pos < len(sent[j]) else sent[j][0][:0]
                    for j in lp.group
                ]
                union = (
                    _sorted_set(np.concatenate(parts)) if parts else
                    state[rank][0][:0]
                )
                checked["flow-down-union"] += 1
                ok = union.size == usize and len(maps) >= len(parts)
                if ok:
                    for q, part in enumerate(parts):
                        mp = maps[q]
                        if mp.size != part.size or (
                            part.size and not (
                                mp.size and int(mp.max()) < union.size
                                and np.array_equal(union[mp], part)
                            )
                        ):
                            ok = False
                            break
                if not ok:
                    violations.append(
                        Violation(
                            "flow-down-union",
                            f"{side} union/maps do not reconstruct the set "
                            f"union of received parts "
                            f"(replayed {union.size}, memoised {usize})",
                            node=rank,
                            layer=layer,
                        )
                    )
                unions.append(union)
            new_state[rank] = (unions[0], unions[1])

        # --- up-path reassembly: member j's return for us carries exactly
        # the keys we sent j, and the write-back slices tile the previous
        # in-key array
        for rank in range(m):
            lp = plans[rank].layers[layer - 1]
            prev_in = state[rank][1]
            checked["flow-up-reassembly"] += 1
            if lp.in_prev_size != prev_in.size:
                violations.append(
                    Violation(
                        "flow-up-reassembly",
                        f"in_prev_size {lp.in_prev_size} != previous in-key "
                        f"count {prev_in.size}",
                        node=rank,
                        layer=layer,
                    )
                )
            for q, member in enumerate(lp.group):
                mlp = plans[member].layers[layer - 1]
                member_union = new_state[member][1]
                my_pos = mlp.pos_of[rank]
                sent_part = (
                    prev_in[lp.in_slices[q]] if q < len(lp.in_slices) else prev_in[:0]
                )
                returned = (
                    member_union[mlp.in_recv_maps[my_pos]]
                    if my_pos < len(mlp.in_recv_maps)
                    and (not mlp.in_recv_maps[my_pos].size
                         or int(mlp.in_recv_maps[my_pos].max()) < member_union.size)
                    else None
                )
                checked["flow-up-reassembly"] += 1
                if returned is None or not np.array_equal(returned, sent_part):
                    violations.append(
                        Violation(
                            "flow-up-reassembly",
                            f"member {member} would return "
                            f"{'an unmappable part' if returned is None else f'{returned.size} keys'} "
                            f"for our {sent_part.size}-key slice",
                            node=rank,
                            layer=layer,
                        )
                    )
        state = new_state

    # --- bottom: global coverage and conservation
    global_out = _sorted_set(
        np.concatenate([hasher.hash(spec.out_indices[r]) for r in range(m)])
    )
    for rank in range(m):
        plan = plans[rank]
        bottom_out, bottom_in = state[rank]
        rng = topology.key_range(rank, nlayers)
        expected = global_out[(global_out >= rng.lo) & (global_out < rng.hi)]
        checked["flow-down-coverage"] += 1
        if not np.array_equal(bottom_out, expected):
            violations.append(
                Violation(
                    "flow-down-coverage",
                    f"bottom out set has {bottom_out.size} keys, the global "
                    f"union cut by [{rng.lo}, {rng.hi}) has {expected.size}",
                    node=rank,
                    layer=nlayers,
                )
            )
        elif plan.bottom_out_keys is None or not np.array_equal(
            plan.bottom_out_keys, bottom_out
        ):
            violations.append(
                Violation(
                    "flow-down-coverage",
                    "memoised bottom_out_keys disagree with the replayed "
                    "bottom union",
                    node=rank,
                    layer=nlayers,
                )
            )
        # bottom projection: every covered in-key maps to its exact slot
        checked["flow-up-coverage"] += 1
        ok = (
            plan.bottom_pos is not None
            and plan.bottom_hit is not None
            and plan.bottom_pos.size == bottom_in.size
        )
        if ok and bottom_in.size:
            covered = np.isin(bottom_in, bottom_out, assume_unique=True)
            in_bounds = plan.bottom_pos < max(bottom_out.size, 1)
            ok = (
                bool(np.array_equal(plan.bottom_hit, covered))
                and bool(in_bounds.all())
                and (
                    not covered.any()
                    or bool(
                        np.array_equal(
                            bottom_out[plan.bottom_pos[covered]], bottom_in[covered]
                        )
                    )
                )
            )
        if not ok:
            violations.append(
                Violation(
                    "flow-up-coverage",
                    "bottom projection does not map each covered in-key to "
                    "its slot in the reduced bottom set",
                    node=rank,
                    layer=nlayers,
                )
            )
    return FlowAnalysis(violations, checked, traffic)


def _bump(cell: Dict[str, int], nbytes: int, self_msg: bool) -> None:
    if self_msg:
        cell["self_messages"] += 1
        cell["self_bytes"] += nbytes
    else:
        cell["messages"] += 1
        cell["bytes"] += nbytes


# ---------------------------------------------------------------------------
# The certificate
# ---------------------------------------------------------------------------
@dataclass
class Certificate:
    """Machine-readable proof receipt for one (topology, workload) pair.

    ``traffic`` keys are ``"<phase>/L<layer>"`` strings (JSON-friendly);
    :meth:`cell` looks one up by (phase, layer).  ``fault_bound`` maps
    rank (as string, JSON again) to the sorted raw in-indices that a
    given crash schedule could cost that rank in the worst case.
    """

    fingerprint: str
    num_nodes: int
    degrees: List[int]
    element_bytes: int
    obligations: Dict[str, int]
    traffic: Dict[str, Dict[str, int]]
    fault_bound: Optional[Dict[str, List[int]]] = None
    model: Optional[List[Dict[str, Any]]] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    schema: int = CERT_SCHEMA

    def cell(self, phase: str, layer: int) -> Dict[str, int]:
        return self.traffic.get(f"{phase}/L{layer}", _empty_cell())

    @property
    def total_bytes(self) -> int:
        """Predicted communication volume including self-messages (the
        paper's Fig 5 convention, matching the goblet report)."""
        return sum(c["bytes"] + c["self_bytes"] for c in self.traffic.values())

    @property
    def total_messages(self) -> int:
        return sum(
            c["messages"] + c["self_messages"] for c in self.traffic.values()
        )

    def bound_for(self, rank: int) -> np.ndarray:
        if not self.fault_bound:
            return np.empty(0, dtype=np.int64)
        return np.asarray(self.fault_bound.get(str(rank), []), dtype=np.int64)

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "num_nodes": self.num_nodes,
            "degrees": list(self.degrees),
            "element_bytes": self.element_bytes,
            "obligations": dict(self.obligations),
            "traffic": {k: dict(v) for k, v in sorted(self.traffic.items())},
            "totals": {
                "bytes": self.total_bytes,
                "messages": self.total_messages,
            },
            "fault_bound": self.fault_bound,
            "model": self.model,
            "meta": dict(self.meta),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=False)

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "Certificate":
        if doc.get("schema") != CERT_SCHEMA:
            raise ValueError(
                f"certificate schema {doc.get('schema')!r}; this tool speaks "
                f"schema {CERT_SCHEMA}"
            )
        return cls(
            fingerprint=doc["fingerprint"],
            num_nodes=int(doc["num_nodes"]),
            degrees=[int(d) for d in doc["degrees"]],
            element_bytes=int(doc["element_bytes"]),
            obligations={k: int(v) for k, v in doc["obligations"].items()},
            traffic={k: dict(v) for k, v in doc["traffic"].items()},
            fault_bound=doc.get("fault_bound"),
            model=doc.get("model"),
            meta=dict(doc.get("meta", {})),
        )


def plan_fingerprint(
    topology: ButterflyTopology, plans: Mapping[int, NodePlan]
) -> str:
    """Deterministic digest of the full memoised plan structure.

    Two runs configure identically iff their fingerprints match — these
    are the keys the ROADMAP's config cache needs.
    """
    h = hashlib.sha256()
    h.update(
        f"kylix-plan/{topology.num_nodes}/"
        f"{','.join(map(str, topology.degrees))}/{topology.key_space}".encode()
    )
    for rank in sorted(plans):
        p = plans[rank]
        h.update(f"|r{rank}:{p.n_out}:{p.n_in}".encode())
        for lp in p.layers:
            h.update(
                f"|g{','.join(map(str, lp.group))}:p{lp.pos}"
                f":u{lp.out_union_size}:{lp.in_union_size}:{lp.in_prev_size}".encode()
            )
            for s in list(lp.out_slices) + list(lp.in_slices):
                h.update(f":{s.start}-{s.stop}".encode())
            for mp in list(lp.out_recv_maps) + list(lp.in_recv_maps):
                h.update(np.ascontiguousarray(mp, dtype=np.int64).tobytes())
        if p.bottom_out_keys is not None:
            h.update(np.ascontiguousarray(p.bottom_out_keys).tobytes())
    return h.hexdigest()


def certify(
    topology: ButterflyTopology,
    spec: ReduceSpec,
    *,
    plans: Optional[Mapping[int, NodePlan]] = None,
    hasher: Optional[IndexHasher] = None,
    faults: Any = None,
    curve: Any = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Certificate:
    """Prove the plans correct and emit the certificate.

    Raises :class:`CertificationError` (naming the first failing
    obligation) when any static proof obligation cannot be discharged.
    ``plans`` defaults to a fresh :func:`~repro.verify.plan.build_plans`
    construction; pass corrupted plans to exercise rejection.  With a
    ``faults`` crash schedule the certificate carries the worst-case
    coverage-loss bound; with a density ``curve`` it carries the §IV
    volume-model cross-check rows.
    """
    from .plan import build_plans

    hasher = hasher if hasher is not None else MultiplicativeHasher()
    if plans is None:
        plans = build_plans(topology, spec, hasher)
    analysis = analyze_flow(topology, plans, spec, hasher)
    if analysis.violations:
        raise CertificationError(analysis.violations)
    bound = None
    if faults is not None and _has_crash_schedule(faults):
        raw = worst_case_loss(topology, spec, hasher, faults)
        bound = {str(r): [int(x) for x in v] for r, v in raw.items()}
    model = None
    if curve is not None:
        model = model_crosscheck(
            analysis.traffic, topology, curve, element_bytes=_element_bytes(spec)
        )
    return Certificate(
        fingerprint=plan_fingerprint(topology, plans),
        num_nodes=topology.num_nodes,
        degrees=list(topology.degrees),
        element_bytes=_element_bytes(spec),
        obligations=analysis.obligations,
        traffic={
            f"{phase}/L{layer}": cell
            for (phase, layer), cell in sorted(analysis.traffic.items())
        },
        fault_bound=bound,
        model=model,
        meta=meta or {},
    )


def certificate_for_experiment(experiment: str, *, seed: int = 0) -> Certificate:
    """The certificate for a named :mod:`repro.obs.runner` experiment.

    Rebuilds exactly the workload ``run_traced`` executes (same sizes,
    same seed), so the prediction gates that experiment's simulated
    traffic with zero tolerance.
    """
    from ..obs.runner import EXPERIMENTS

    if experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}"
        )
    w = EXPERIMENTS[experiment](seed)
    spec = ReduceSpec(in_indices=w["in_idx"], out_indices=w["out_idx"])
    topology = ButterflyTopology(w["degrees"], w["m"])
    return certify(
        topology,
        spec,
        faults=w.get("faults"),
        meta={"experiment": experiment, "seed": seed, "n": w["n"]},
    )


def _has_crash_schedule(faults: Any) -> bool:
    """True when the plan can kill nodes (crash schedules are what the
    static loss bound covers; message faults recover via NACK/retry)."""
    return bool(
        getattr(faults, "step_killed_nodes", ())
        or getattr(faults, "_deaths", {})
    )


# ---------------------------------------------------------------------------
# Runtime gates
# ---------------------------------------------------------------------------
def check_traffic(cert: Certificate, stats: Any) -> List[Violation]:
    """Gate observed sim-backend traffic against the certificate.

    Exact equality, cell for cell, over every (phase, layer) of the
    three protocol phases.  NACK retransmissions are accounted by the
    fabric into the same cells *and* tracked separately
    (``resent_messages``/``resent_bytes``), so the comparison subtracts
    them: base traffic must match the static prediction bit for bit.
    """
    violations: List[Violation] = []
    nlayers = len(cert.degrees)
    for phase in PHASES:
        for layer in range(1, nlayers + 1):
            pred = cert.cell(phase, layer)
            obs = stats.cell(phase, layer)
            got = {
                "messages": obs.messages - getattr(obs, "resent_messages", 0),
                "bytes": obs.bytes - getattr(obs, "resent_bytes", 0),
                "self_messages": obs.self_messages,
                "self_bytes": obs.self_bytes,
            }
            for key in ("messages", "bytes", "self_messages", "self_bytes"):
                if got[key] != pred[key]:
                    violations.append(
                        Violation(
                            "traffic-exact",
                            f"{phase} {key}: observed {got[key]} "
                            f"(resends excluded), certificate says {pred[key]}",
                            layer=layer,
                        )
                    )
        # a protocol phase must not touch layers outside the certificate
        for layer in stats.layers(phase):
            if not 1 <= layer <= nlayers:
                violations.append(
                    Violation(
                        "traffic-exact",
                        f"{phase} traffic on layer {layer}, outside the "
                        f"certified stack of {nlayers} layers",
                        layer=layer,
                    )
                )
    return violations


def worst_case_loss(
    topology: ButterflyTopology,
    spec: ReduceSpec,
    hasher: Optional[IndexHasher],
    faults: Any,
) -> Dict[int, np.ndarray]:
    """Worst-case reachable coverage loss for a crash schedule.

    Routing is fully determined by the nested ranges: origin ``j``'s copy
    of key ``x`` sits, after layer ``i``, on the node whose first ``i``
    digits come from ``x``'s range and whose remaining digits come from
    ``j``; the up-path carrier serving requester ``r`` is the analogous
    ``(x, r)`` chain.  A chain is broken when it touches a dead node at
    or after its kill point, so the reachable loss of requester ``r`` is
    every in-index whose every-origin down chain or own up chain can
    break.  Because "first ``i`` digits from ``x``" is exactly "``x`` in
    the dead node's layer-``i`` interval", each term is one interval cut
    — the same lattice the flow proofs use.

    Returns ``{rank: sorted raw in-indices possibly lost}``; ranks that
    cannot lose anything are omitted.  Step kills and timed deaths are
    covered (a timed death is treated as dead from the start — the
    soundly conservative reading).  Message-fault rules on their own are
    not, since NACK/retry recovers them — but a lossy rule *combined*
    with a kill is: a message the victim sent before its kill point can
    be dropped and the NACK then lands on a corpse, so under any
    ``drop > 0`` rule every killed node is treated as dead from the
    start.
    """
    hasher = hasher if hasher is not None else MultiplicativeHasher()
    m = topology.num_nodes
    nlayers = topology.num_layers
    lossy = any(
        getattr(rule, "drop", 0.0) > 0.0 for rule in getattr(faults, "rules", ())
    )
    # dead node -> (first broken down state-layer or None, last broken up layer)
    kills: Dict[int, Tuple[Optional[int], int]] = {}
    for v in getattr(faults, "step_killed_nodes", ()):
        phase, layer = faults.step_kill_for(v)
        if lossy:
            # any pre-kill send may have dropped and is unrecoverable
            kills[v] = (0, nlayers)
        elif phase == "up":
            # down pass completed; up sends missing at layers <= layer
            kills[v] = (None, layer)
        elif phase == "down":
            # value parts missing from state-layer `layer-1` on; dead for
            # the whole up pass
            kills[v] = (layer - 1, nlayers)
        else:  # config (or unknown phase): conservatively dead throughout
            kills[v] = (0, nlayers)
    for v in getattr(faults, "_deaths", {}):
        # a timed death (even with a later recovery) may miss any step;
        # treat as dead from the start — the soundly conservative reading
        kills[int(v)] = (0, nlayers)
    if not kills:
        return {}

    hashed_out = {r: _sorted_set(hasher.hash(spec.out_indices[r])) for r in range(m)}

    def suffix_stride(i: int) -> int:
        # product of degrees below layer i: nodes sharing digits i+1..l
        # are congruent modulo this stride
        s = m
        for d in topology.degrees[:i]:
            s //= d
        return s

    # keys whose down chain (for any origin) can break, as a global set
    broken_down: List[np.ndarray] = []
    for v, (down_from, _) in kills.items():
        if down_from is None:
            continue
        for i in range(down_from, nlayers + 1):
            if i == 0:
                broken_down.append(hashed_out[v])
                continue
            stride = suffix_stride(i)
            rng = topology.key_range(v, i)
            for j in range(m):
                if j % stride != v % stride:
                    continue
                keys = hashed_out[j]
                broken_down.append(keys[(keys >= rng.lo) & (keys < rng.hi)])
    broken_down_set = (
        _sorted_set(np.concatenate(broken_down))
        if broken_down
        else np.empty(0, dtype=np.uint64)
    )

    out: Dict[int, np.ndarray] = {}
    for r in range(m):
        raw_in = np.asarray(spec.in_indices[r], dtype=np.int64)
        hashed_in = hasher.hash(raw_in)
        if r in kills:
            # a dead requester loses its entire in set
            out[r] = _sorted_set(raw_in)
            continue
        lost = np.isin(hashed_in, broken_down_set)
        for v, (_, up_to) in kills.items():
            for i in range(1, up_to + 1):
                if r % suffix_stride(i) != v % suffix_stride(i):
                    continue
                rng = topology.key_range(v, i)
                lost |= (hashed_in >= rng.lo) & (hashed_in < rng.hi)
        if lost.any():
            out[r] = _sorted_set(raw_in[lost])
    return out


# ---------------------------------------------------------------------------
# Volume-model cross-check (§IV) and synthetic density workloads
# ---------------------------------------------------------------------------
def model_crosscheck(
    traffic: Mapping[Tuple[str, int], Dict[str, int]],
    topology: ButterflyTopology,
    curve: Any,
    *,
    element_bytes: int = 8,
) -> List[Dict[str, Any]]:
    """Per-layer comparison of the §IV analytic volume model against the
    certificate's exact reduce-down predictions.

    The analytic curve is a density *model* — exact for uniform-dense
    workloads (the degenerate cross-check), approximate otherwise — so
    the rows are informational: the certificate's numbers are the ground
    truth the runtime is gated on, and these rows quantify how far the
    design-time model sits from it.
    """
    from ..design.optimizer import predict_layers

    rows = predict_layers(
        curve,
        topology.degrees,
        topology.num_nodes,
        bytes_per_element=float(element_bytes),
    )
    out: List[Dict[str, Any]] = []
    for i, d in enumerate(topology.degrees, start=1):
        cell = traffic.get(("reduce_down", i), _empty_cell())
        exact_total = cell["bytes"] + cell["self_bytes"]
        exact_msg = exact_total / (topology.num_nodes * d)
        analytic = rows[i - 1].message_bytes
        out.append(
            {
                "layer": i,
                "degree": d,
                "analytic_message_bytes": round(float(analytic), 3),
                "exact_message_bytes": round(float(exact_msg), 3),
                "exact_layer_bytes": int(exact_total),
                "ratio": round(float(exact_msg / analytic), 4) if analytic else None,
            }
        )
    return out


def density_spec(
    m: int, *, n: int = 2048, density: float = 0.1, seed: int = 0
) -> ReduceSpec:
    """A synthetic workload whose per-partition density is controlled.

    Every rank contributes a strided home slice (coverage stays total,
    as :func:`~repro.verify.plan.synthetic_spec`) plus a uniform sample
    sized ``density * n`` — the knob the volume model is parameterized
    by.  In-sets sample half as much.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if m < 1 or n < m:
        raise ValueError("need n >= m >= 1")
    rng = np.random.default_rng(seed)
    in_idx, out_idx = {}, {}
    want = max(1, int(density * n))
    for r in range(m):
        base = np.arange(r, n, m, dtype=np.int64)
        extra = rng.choice(n, size=want, replace=False).astype(np.int64)
        out_idx[r] = _sorted_set(np.concatenate([base, extra]))
        in_idx[r] = _sorted_set(
            rng.choice(n, size=max(2, want // 2), replace=False).astype(np.int64)
        )
    return ReduceSpec(in_indices=in_idx, out_indices=out_idx)


# ---------------------------------------------------------------------------
# The seeded mutant (the certifier's own self-test)
# ---------------------------------------------------------------------------
def mutant_plans(
    plans: Mapping[int, NodePlan], *, node: int = 0, layer: int = 1
) -> Dict[int, NodePlan]:
    """A mis-partitioned copy of ``plans``: one node's layer split moves
    the boundary between its first two parts by one key.

    The slices still tile the sender's array (``flow-slice-tiling``
    holds) but the boundary key now routes to the wrong member — outside
    its nested interval.  This is exactly the corruption the
    interval-lattice ``flow-down-partition`` obligation exists to reject;
    the receivers' ``flow-down-union`` obligations fail with it.
    """
    import copy

    mutated = copy.deepcopy(dict(plans))
    lp = mutated[node].layers[layer - 1]
    if len(lp.out_slices) < 2:
        raise ValueError("mutant needs a layer of degree >= 2")
    a, b = lp.out_slices[0], lp.out_slices[1]
    if b.stop - b.start < 2:
        raise ValueError("mutant needs a second part with >= 2 keys")
    lp.out_slices[0] = slice(a.start, a.stop + 1)
    lp.out_slices[1] = slice(a.stop + 1, b.stop)
    return mutated


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------
def emit_certificate_metrics(
    obs: Any,
    cert: Certificate,
    violations: Sequence[Violation] = (),
    runtime_checked: Optional[Mapping[str, int]] = None,
) -> None:
    """Publish the certification outcome as ``verify.cert.*`` metrics.

    One counter pair per obligation (instances checked / discharged) and
    the plan fingerprint's low 48 bits as a gauge, so a metrics dump
    records which plan a run was certified against.
    """
    failed: Dict[str, int] = {}
    for v in violations:
        failed[v.invariant] = failed.get(v.invariant, 0) + 1
    counts: Dict[str, int] = dict(cert.obligations)
    for name, n in (runtime_checked or {}).items():
        counts[name] = counts.get(name, 0) + n
    checked_c = obs.counter("verify.cert.obligations")
    discharged_c = obs.counter("verify.cert.discharged")
    for name, n in sorted(counts.items()):
        if not n and name not in failed:
            continue
        checked_c.inc(n, obligation=name)
        discharged_c.inc(max(n - failed.get(name, 0), 0), obligation=name)
    obs.gauge("verify.cert.fingerprint").set(
        float(int(cert.fingerprint[:12], 16))
    )
