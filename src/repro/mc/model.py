"""Checkable protocol models: one schedule in, one verdict out.

A :class:`Model` packages everything one explored execution needs —
build a fresh simulated cluster, run the protocol under a given event
schedule, and check every property the checker cares about:

* the run completes (no deadlock, no protocol exception);
* the ``repro.verify`` invariant catalogue holds on the configured plans;
* the reduced vectors equal the dense reference reduction;
* no mailbox ever hides a lost wakeup, checked in **every** explored
  state (between engine steps) via the scheduler hook;
* concurrent conflicting deliveries are reported as happens-before
  races (informational — Kylix merges commute).

The :class:`_ExplorationScheduler` doubles as the branch-point recorder:
while replaying the forced divergences it notes, at every step past the
last forced one, which queued events *conflict* with the one being fired
(same-mailbox, same-or-wildcard ``(phase, layer)`` footprints).  Those
``(step, seq)`` pairs are the only children the DFS needs — commuting
events are never reordered, which is the partial-order reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..simul.scheduler import Scheduler
from .hb import Race, happens_before_races, quiescence_report

__all__ = [
    "conflicts",
    "Violation",
    "RunResult",
    "Model",
    "KylixModel",
]


def conflicts(a: Any, b: Any) -> bool:
    """Do two event footprints conflict (must their order be explored)?

    Footprints are ``("mbox", dst, phase, layer)`` tuples; ``None``
    entries in the phase/layer positions are wildcards (a retry timer
    racing a tag-filtered receive does not know which step group the
    winning message belongs to).  Events without footprints never
    conflict: their order is either fixed by causality or irrelevant.
    """
    if a is None or b is None:
        return False
    if a[0] != "mbox" or b[0] != "mbox":
        return a == b
    if a[1] != b[1]:
        return False  # different mailboxes commute
    for x, y in zip(a[2:], b[2:]):
        if x is not None and y is not None and x != y:
            return False
    return True


class _ExplorationScheduler(Scheduler):
    """Replay forced divergences; record conflicting alternatives.

    ``branch_from`` is the first step at which alternatives are recorded
    — one past the deepest forced divergence, so a child schedule only
    proposes branch points its parents have not already enumerated.
    ``state_check`` (when given) runs between engine steps, i.e. in every
    state the schedule visits.
    """

    def __init__(
        self,
        schedule: Sequence[Tuple[int, int]],
        *,
        branch_from: int = 0,
        state_check: Optional[Callable[[], None]] = None,
    ):
        self._forced = {int(s): int(q) for s, q in schedule}
        self.branch_from = branch_from
        self.state_check = state_check
        self.step_index = 0
        self.missed: List[Tuple[int, int]] = []
        self.candidates: List[Tuple[int, int]] = []

    def choose(self, queue: Sequence[tuple]) -> int:
        step = self.step_index
        self.step_index += 1
        if self.state_check is not None:
            self.state_check()
        idx = 0
        forced = self._forced.get(step)
        if forced is not None:
            for i, (_, seq, _) in enumerate(queue):
                if seq == forced:
                    idx = i
                    break
            else:
                self.missed.append((step, forced))
        chosen_fp = getattr(queue[idx][2], "footprint", None)
        if chosen_fp is not None and step >= self.branch_from:
            for i, (_, seq, ev) in enumerate(queue):
                if i == idx:
                    continue
                if conflicts(chosen_fp, getattr(ev, "footprint", None)):
                    self.candidates.append((step, seq))
        return idx


@dataclass(frozen=True)
class Violation:
    """One property broken by one explored schedule."""

    kind: str  # deadlock | lost_wakeup | invariant | result_mismatch | exception
    detail: str
    waiting: Tuple[Dict[str, Any], ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "waiting": list(self.waiting),
        }


@dataclass
class RunResult:
    """Everything one schedule's execution produced."""

    schedule: Tuple[Tuple[int, int], ...]
    steps: int
    trace: List[tuple]
    violations: List[Violation]
    races: List[Race]
    candidates: List[Tuple[int, int]]
    missed: List[Tuple[int, int]]
    values: Optional[Dict[int, np.ndarray]] = None
    obs: Any = None

    @property
    def ok(self) -> bool:
        return not self.violations


class Model:
    """Base class: subclasses provide the protocol body and the oracle.

    ``_build(cluster_kwargs)`` must return ``(cluster, run)`` where
    ``run()`` executes the protocol to completion and returns the
    per-rank values; ``check_values(values)`` returns violations against
    the expected result.  ``execute`` owns everything schedule-related.
    """

    def describe(self) -> Dict[str, Any]:
        raise NotImplementedError

    def _build(self, cluster_kwargs: Dict[str, Any]):
        raise NotImplementedError

    def check_values(self, values: Dict[int, np.ndarray]) -> List[Violation]:
        return []

    def execute(
        self,
        schedule: Sequence[Tuple[int, int]] = (),
        *,
        branch_from: Optional[int] = None,
    ) -> RunResult:
        """Run the protocol under ``schedule``; check every property.

        ``branch_from`` overrides where alternative-recording starts
        (defaults to one past the deepest forced divergence).
        """
        schedule = tuple((int(s), int(q)) for s, q in schedule)
        if branch_from is None:
            branch_from = max((s for s, _ in schedule), default=-1) + 1
        violations: List[Violation] = []

        cluster_box: List[Any] = []
        seen_lost: set = set()

        def state_check() -> None:
            if not cluster_box:
                return
            fabric = cluster_box[0].fabric
            for dst, box in enumerate(fabric.mailboxes):
                for getter, item in box.find_lost_wakeups():
                    key = (dst, id(getter))
                    if key in seen_lost:
                        continue
                    seen_lost.add(key)
                    violations.append(
                        Violation(
                            "lost_wakeup",
                            f"mailbox {dst}: waiting "
                            f"{getattr(getter, 'desc', 'StoreGet')} matches "
                            f"queued {getattr(item, 'tag', item)!r}",
                        )
                    )

        scheduler = _ExplorationScheduler(
            schedule, branch_from=branch_from, state_check=state_check
        )
        cluster, run = self._build(
            {"record_trace": True, "observe": True, "scheduler": scheduler}
        )
        cluster_box.append(cluster)

        values: Optional[Dict[int, np.ndarray]] = None
        from ..simul import SimulationError
        from ..verify.errors import ProtocolInvariantError

        try:
            values = run()
        except SimulationError as exc:
            kind = "deadlock" if "deadlock" in str(exc) else "exception"
            violations.append(
                Violation(
                    kind, str(exc), tuple(quiescence_report(cluster))
                )
            )
        except ProtocolInvariantError as exc:
            violations.append(Violation("invariant", str(exc)))
        except Exception as exc:  # lint: ok - the checker's whole job is
            # to convert arbitrary protocol failures into reported
            # violations; nothing is swallowed, everything is surfaced.
            violations.append(
                Violation("exception", f"{type(exc).__name__}: {exc}")
            )

        # End-of-run sweep (covers the state after the final event too).
        state_check()
        if values is not None:
            violations.extend(self.check_values(values))
        obs = getattr(cluster, "obs", None)
        races = happens_before_races(obs.messages) if obs is not None else []
        return RunResult(
            schedule=schedule,
            steps=scheduler.step_index,
            trace=list(cluster.engine.trace or []),
            violations=violations,
            races=races,
            candidates=scheduler.candidates,
            missed=scheduler.missed,
            values=values,
            obs=obs,
        )


@dataclass
class KylixModel(Model):
    """The Kylix protocol (configure → verify_plans → reduce) as a model.

    The workload is a seeded sparse in/out declaration in the style of
    the traced experiments, scaled down so exhaustive exploration of
    small clusters stays cheap.  ``faults`` installs a
    :class:`~repro.faults.FaultPlan`; a non-empty one switches the
    retry/NACK machinery on, and the checker then also explores
    timeout-vs-delivery races.
    """

    nodes: int = 4
    degrees: Tuple[int, ...] = (2, 2)
    n: int = 64
    contrib: int = 8
    want: int = 6
    seed: int = 0
    faults: Any = None
    _reference: Optional[Dict[int, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )
    _spec: Any = field(default=None, repr=False, compare=False)
    _values: Any = field(default=None, repr=False, compare=False)

    def describe(self) -> Dict[str, Any]:
        return {
            "model": "kylix",
            "nodes": self.nodes,
            "degrees": list(self.degrees),
            "n": self.n,
            "contrib": self.contrib,
            "want": self.want,
            "seed": self.seed,
            "faults": repr(self.faults) if self.faults is not None else None,
        }

    def _workload(self):
        if self._spec is None:
            from ..allreduce import ReduceSpec, dense_reduce

            m = self.nodes
            rng = np.random.default_rng(self.seed)
            out_idx = {
                r: np.unique(
                    np.concatenate(
                        [rng.choice(self.n, self.contrib), np.arange(r, self.n, m)]
                    )
                )
                for r in range(m)
            }
            in_idx = {
                r: rng.choice(self.n, self.want, replace=False) for r in range(m)
            }
            values = {r: rng.normal(size=out_idx[r].size) for r in range(m)}
            self._spec = ReduceSpec(in_indices=in_idx, out_indices=out_idx)
            self._values = values
            self._reference = dense_reduce(self._spec, values)
        return self._spec, self._values

    def _build(self, cluster_kwargs: Dict[str, Any]):
        from ..allreduce import KylixAllreduce
        from ..cluster import Cluster

        spec, values = self._workload()
        cluster = Cluster(
            self.nodes, seed=self.seed, failures=self.faults, **cluster_kwargs
        )
        net = KylixAllreduce(cluster, degrees=list(self.degrees))

        def run():
            net.configure(spec)
            net.verify_plans()
            return net.reduce(values)

        return cluster, run

    def check_values(self, values: Dict[int, np.ndarray]) -> List[Violation]:
        out: List[Violation] = []
        for rank in range(self.nodes):
            if rank not in values:
                out.append(
                    Violation("result_mismatch", f"rank {rank}: no result")
                )
                continue
            if not np.allclose(values[rank], self._reference[rank], atol=1e-9):
                out.append(
                    Violation(
                        "result_mismatch",
                        f"rank {rank}: reduced vector differs from the "
                        "dense reference",
                    )
                )
        return out
