"""Composable, seeded fault plans spanning both Kylix backends.

A :class:`FaultPlan` is the one fault schedule every backend runs.  It
holds three kinds of fault:

* **Crash + recovery schedules** — a node dies at a simulated time (time
  0 is Table I's "dead when the job started") and may come back.
* **Step-targeted crashes** — ``kill_at_step(node, phase, layer)`` crashes
  a node immediately before its first send at that protocol position, so
  "died between config and reduce" or "died during the up-pass" is
  expressible identically in the simulator (no wall clock) and the real
  backend (no simulated clock).
* **Message-level faults** — :class:`LinkFault` rules inject drop,
  duplication, delay/straggler, and reorder, each targetable by
  (src, dst, phase, layer) and drawn from a seeded RNG.

Determinism is the load-bearing property: every fault decision is a pure
function of ``(seed, rule, phase, layer, src, dst, seq, attempt)``, so the
simulator and the multiprocessing backend exercise *identical* fault
schedules for the same plan, and identical seeds give bit-identical
traces regardless of scheduling order.

Phases are canonicalized (``reduce_down``/``combined_down`` → ``down``,
``gather_up`` → ``up``) so one rule targets the same protocol step in
both the split and combined protocol variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from .errors import FaultPlanError

__all__ = ["LinkFault", "FaultDecision", "FaultPlan", "canonical_phase"]

#: Protocol phase names collapse onto three canonical steps shared by the
#: split (reduce + allgather) and combined protocols.
_PHASE_CANON = {
    "config": "config",
    "cfg": "config",
    "reduce_down": "down",
    "combined_down": "down",
    "down": "down",
    "rd": "down",
    "cmb": "down",
    "gather_up": "up",
    "up": "up",
}

_PHASE_ID = {"config": 1, "down": 2, "up": 3}


def canonical_phase(phase: str) -> str:
    """Collapse backend-specific phase labels onto config/down/up."""
    return _PHASE_CANON.get(phase, phase)


def _targetable(phase: str) -> str:
    """``phase`` canonicalised, or :class:`FaultPlanError` if it names no
    protocol step — a misspelt phase would silently never fire."""
    canon = canonical_phase(phase)
    if canon not in _PHASE_ID:
        raise FaultPlanError(
            f"unknown phase {phase!r}; choose from {sorted(_PHASE_CANON)}"
        )
    return canon


@dataclass(frozen=True)
class LinkFault:
    """One seeded message-fault rule.

    ``None`` in a target field means "any".  Probabilities are per
    message; ``delay`` adds a fixed straggler penalty (with probability
    ``delay_prob``), ``reorder`` adds a uniform draw from ``[0, reorder]``
    seconds so affected messages overtake each other.
    """

    src: Optional[int] = None
    dst: Optional[int] = None
    phase: Optional[str] = None
    layer: Optional[int] = None
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_prob: float = 1.0
    reorder: float = 0.0

    def __post_init__(self):
        for name in ("drop", "duplicate", "delay_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise FaultPlanError(f"LinkFault.{name} must be in [0, 1], got {p}")
        if self.delay < 0 or self.reorder < 0:
            raise FaultPlanError("LinkFault delay/reorder must be non-negative")
        if self.phase is not None:
            object.__setattr__(self, "phase", _targetable(self.phase))

    def matches(self, src: int, dst: int, phase: str, layer: int) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and (self.phase is None or self.phase == canonical_phase(phase))
            and (self.layer is None or self.layer == layer)
        )


@dataclass(frozen=True)
class FaultDecision:
    """What happens to one message: composed across all matching rules."""

    drop: bool = False
    duplicates: int = 0
    delay: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.drop and self.duplicates == 0 and self.delay == 0.0


_NO_FAULT = FaultDecision()


class FaultPlan:
    """Node crash/recovery schedules + seeded message-level faults.

    An empty plan (no death, step kill or rule) is no plan: a cluster
    given one runs exactly as with none.  A non-empty plan switches the
    simulator's retry/NACK machinery on (:class:`~repro.allreduce.KylixAllreduce`).

    All builder methods (:meth:`kill`, :meth:`recover`,
    :meth:`kill_at_step`, :meth:`with_rule`, :meth:`with_seed`) return a
    **new** plan, so an installed plan never changes under the cluster's
    feet.  Every field is checked here, when the plan is built; node ids
    are checked against a cluster size by :meth:`validate`.
    """

    def __init__(
        self,
        deaths: Dict[int, float] | None = None,
        *,
        recoveries: Dict[int, float] | None = None,
        step_kills: Dict[int, Tuple[str, int]] | None = None,
        rules: Iterable[LinkFault] = (),
        seed: int = 0,
    ):
        self._deaths: Dict[int, float] = {
            int(n): float(t) for n, t in (deaths or {}).items()
        }
        self._recoveries: Dict[int, float] = {
            int(n): float(t) for n, t in (recoveries or {}).items()
        }
        self._step_kills: Dict[int, Tuple[str, int]] = {
            int(n): (_targetable(p), int(l))
            for n, (p, l) in (step_kills or {}).items()
        }
        self.rules: Tuple[LinkFault, ...] = tuple(rules)
        self.seed = int(seed)
        if self.seed < 0:
            raise FaultPlanError("seed must be non-negative")
        for node, t in self._deaths.items():
            if t < 0:
                raise FaultPlanError(f"death time for node {node} must be >= 0")
        for node, t in self._recoveries.items():
            death = self._deaths.get(node)
            if death is None:
                raise FaultPlanError(f"recovery for node {node} without a death")
            if t <= death:
                raise FaultPlanError(
                    f"node {node} recovery at {t} must come after death at {death}"
                )

    # -- builders (each returns a fresh plan) -----------------------------
    def _clone(self, **overrides) -> "FaultPlan":
        state = dict(
            deaths=dict(self._deaths),
            recoveries=dict(self._recoveries),
            step_kills=dict(self._step_kills),
            rules=self.rules,
            seed=self.seed,
        )
        state.update(overrides)
        deaths = state.pop("deaths")
        return FaultPlan(deaths, **state)

    def kill(self, node: int, at: float = 0.0) -> "FaultPlan":
        """Node ``node`` dies at simulated time ``at`` (0: dead from the
        start).  Chains: ``FaultPlan().kill(3).kill(5, at=2.0)``."""
        return self._clone(deaths={**self._deaths, int(node): at})

    def recover(self, node: int, at: float) -> "FaultPlan":
        """Bring a previously-killed node back at simulated time ``at``."""
        return self._clone(recoveries={**self._recoveries, int(node): at})

    def kill_at_step(self, node: int, phase: str, layer: int = 0) -> "FaultPlan":
        """Crash ``node`` right before its first send in (phase, layer)."""
        return self._clone(step_kills={**self._step_kills, int(node): (phase, layer)})

    def with_rule(self, rule: LinkFault) -> "FaultPlan":
        return self._clone(rules=self.rules + (rule,))

    def with_seed(self, seed: int) -> "FaultPlan":
        return self._clone(seed=int(seed))

    # -- schedule queries -------------------------------------------------
    def __bool__(self) -> bool:
        """True unless the plan is empty: any death, step kill or rule."""
        return bool(self._deaths or self._step_kills or self.rules)

    @property
    def victims(self) -> list[int]:
        """Every node the plan can kill (a timed death or a step kill)."""
        return sorted(set(self._deaths) | set(self._step_kills))

    def is_alive(self, node: int, now: float) -> bool:
        death = self._deaths.get(node)
        if death is None or now < death:
            return True
        recovery = self._recoveries.get(node)
        return recovery is not None and now >= recovery

    @property
    def deaths(self) -> Mapping[int, float]:
        """Read-only ``{node: death time}`` (at-start deaths are 0.0)."""
        return MappingProxyType(self._deaths)

    @property
    def recoveries(self) -> Mapping[int, float]:
        """Read-only ``{node: recovery time}``."""
        return MappingProxyType(self._recoveries)

    def step_kill_for(self, node: int) -> Optional[Tuple[str, int]]:
        return self._step_kills.get(node)

    @property
    def step_killed_nodes(self) -> list[int]:
        return sorted(self._step_kills)

    # -- validation -------------------------------------------------------
    def validate(self, num_nodes: int) -> None:
        """Check every node the plan targets exists in a ``num_nodes``
        cluster (:class:`FaultPlanError` otherwise)."""
        targets = [("death", n) for n in self._deaths]
        targets += [("step-kill", n) for n in self._step_kills]
        targets += [
            ("fault rule", end)
            for rule in self.rules
            for end in (rule.src, rule.dst)
            if end is not None
        ]
        for what, node in targets:
            if not 0 <= node < num_nodes:
                raise FaultPlanError(
                    f"{what} targets node {node}, cluster has {num_nodes}"
                )

    # -- the deterministic fault oracle -----------------------------------
    def decide(
        self,
        src: int,
        dst: int,
        phase: str,
        layer: int,
        seq: int,
        attempt: int = 0,
    ) -> FaultDecision:
        """Fate of message ``seq`` on link (src, dst) at (phase, layer).

        A pure function of the plan: both backends call this with the
        same per-link sequence counters and get the same answer, which
        is what makes cross-backend chaos tests reproducible.  Resends
        bump ``attempt`` so a retransmission gets an independent draw.
        """
        if not self.rules:
            return _NO_FAULT
        canon = canonical_phase(phase)
        drop = False
        duplicates = 0
        delay = 0.0
        for ridx, rule in enumerate(self.rules):
            if not rule.matches(src, dst, canon, layer):
                continue
            rng = np.random.default_rng(
                [self.seed, ridx, _PHASE_ID.get(canon, 0),
                 layer + 2, src + 1, dst + 1, seq, attempt]
            )
            u_drop, u_dup, u_delay, u_reorder = rng.random(4)
            if u_drop < rule.drop:
                drop = True
            if u_dup < rule.duplicate:
                duplicates += 1
            if rule.delay > 0.0 and u_delay < rule.delay_prob:
                delay += rule.delay
            if rule.reorder > 0.0:
                delay += u_reorder * rule.reorder
        if not drop and duplicates == 0 and delay == 0.0:
            return _NO_FAULT
        return FaultDecision(drop=drop, duplicates=duplicates, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FaultPlan(deaths={self._deaths!r}, recoveries={self._recoveries!r}, "
            f"step_kills={self._step_kills!r}, rules={len(self.rules)}, "
            f"seed={self.seed})"
        )
