"""Closed-loop drivers: one per way the program is used.

A driver turns generated inputs into calls on the program's public API.  Every
call goes through a :class:`~perfbench.trace.Recorder`, which times it and, in
the traced pass, keeps a span for it.  ``setup`` and ``op`` return what the
program computed as ``[(pattern index, {rank: values}), ...]`` so one checker
compares any of it to ``dense_reduce``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .program import (
    Cluster,
    KylixAllreduce,
    LocalKylix,
    Observer,
    ReduceService,
    ReduceSpec,
    TcpKylix,
    dense_reduce,
)
from .trace import Recorder
from .workloads import Pattern, Workload

__all__ = ["make_driver", "cluster_counters"]

Pairs = List[Tuple[int, Dict[int, np.ndarray]]]


class _Driver:
    pinned = True  # single process: pin it to one CPU
    forked = False
    ops_per_call = 1  # ops completed by one op() call
    reduces_per_op = 1
    has_configure = False  # a warm configure() the harness can time

    def __init__(self, wl: Workload, patterns: List[Pattern]):
        self.wl = wl
        self.specs = [ReduceSpec(ins, outs) for ins, outs, _ in patterns]
        self.values = [vals for _, _, vals in patterns]
        self._expected: Dict[int, Dict[int, np.ndarray]] = {}
        #: service only: submit-to-result seconds of each stream's first (miss)
        #: reduce in the latest set-up
        self.first_miss_s: List[float] = []
        #: forked only: collect the workers' Observer snapshots (traced pass),
        #: and the Observer of the last session
        self.observe = False
        self.observer: Optional[Observer] = None

    def correct(self, pairs: Pairs) -> bool:
        """Does every returned reduction equal the dense reference exactly?"""
        for k, got in pairs:
            if k not in self._expected:
                self._expected[k] = dense_reduce(self.specs[k], self.values[k])
            want = self._expected[k]
            if set(got) != set(want) or not all(np.array_equal(got[r], want[r]) for r in want):
                return False
        return True

    def close(self) -> None:
        """Drop the state of the previous set-up before the next one."""


class SimDriver(_Driver):
    """``KylixAllreduce`` on a simulated cluster: configure once + cached
    ``reduce`` (sim), or a fresh pattern per ``allreduce_combined`` (minibatch)."""

    has_configure = True

    def __init__(self, wl, patterns):
        super().__init__(wl, patterns)
        self.combined = wl.kind == "minibatch"
        self.cluster = self.net = None
        self._ops = self._configures = 0

    def setup(self, rec: Recorder) -> Pairs:
        self.cluster, _ = rec.call("Cluster", Cluster, self.wl.shape.m)
        self.net = KylixAllreduce(self.cluster, self.wl.degrees)
        if self.combined:
            return self.op(rec)
        rec.call("KylixAllreduce.configure", self.net.configure, self.specs[0])
        return []

    def configure(self, rec: Recorder) -> float:
        k = self._configures % len(self.specs)
        self._configures += 1
        return rec.call("KylixAllreduce.configure", self.net.configure, self.specs[k])[1]

    def op(self, rec: Recorder) -> Pairs:
        if not self.combined:
            out, _ = rec.call("KylixAllreduce.reduce", self.net.reduce, self.values[0])
            return [(0, out)]
        k = self._ops % len(self.specs)
        self._ops += 1
        out, _ = rec.call(
            "KylixAllreduce.allreduce_combined",
            self.net.allreduce_combined, self.specs[k], self.values[k],
        )
        return [(k, out)]

    def close(self) -> None:
        self.cluster = self.net = None


class ServiceDriver(_Driver):
    """Four closed-loop clients on ``ReduceService(backend="sim")``: an op is a
    wave (4 submits, then 4 results).  Every 10th wave stream 0 drifts between
    pattern A (0) and pattern B (4)."""

    STREAMS = 4
    DRIFT_EVERY = 10
    reduces_per_op = STREAMS

    def __init__(self, wl, patterns):
        super().__init__(wl, patterns)
        self.cluster = self.svc = None
        self._bound = self._waves = 0

    def setup(self, rec: Recorder) -> Pairs:
        self.cluster, _ = rec.call("Cluster", Cluster, self.wl.shape.m)
        self.svc = ReduceService(
            "sim", cluster=self.cluster, degrees=self.wl.degrees, slots=self.STREAMS
        )
        self._bound = self._waves = 0
        self.first_miss_s = []
        pairs = []
        for s in range(self.STREAMS):
            rec.call("ReduceService.open_stream", self.svc.open_stream, f"s{s}", self.specs[s])
            out, dt = rec.call("first_miss", self._reduce, rec, s)
            self.first_miss_s.append(dt)
            pairs.append((s, out))
        return pairs

    def _reduce(self, rec: Recorder, s: int):
        fut, _ = rec.call("ReduceService.submit", self.svc.submit, f"s{s}", self.values[s])
        return rec.call("ReduceFuture.result", fut.result)[0]

    def op(self, rec: Recorder) -> Pairs:
        self._waves += 1
        drift = self._waves % self.DRIFT_EVERY == 0
        if drift:
            self._bound = self.STREAMS - self._bound  # A <-> B
        bound = [self._bound] + list(range(1, self.STREAMS))
        futures = []
        for s, k in enumerate(bound):
            respec = {"spec": self.specs[k]} if drift and s == 0 else {}
            futures.append(
                rec.call("ReduceService.submit", self.svc.submit, f"s{s}", self.values[k], **respec)[0]
            )
        return [(k, rec.call("ReduceFuture.result", f.result)[0]) for k, f in zip(bound, futures)]

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()
        self.cluster = self.svc = None


class ForkedDriver(_Driver):
    """``LocalKylix`` / ``TcpKylix``: set-up is a one-shot ``allreduce`` (fork +
    mesh + round 0 + teardown); an op is one ``allreduce_rounds`` session of
    ``rounds`` reductions, whose marginal round the harness derives."""

    pinned = False  # children inherit the affinity mask; 4 nodes need both cores
    forked = True

    def __init__(self, wl, patterns):
        super().__init__(wl, patterns)
        self.backend = LocalKylix if wl.kind == "local" else TcpKylix
        self.rounds = wl.counts.rounds

    @property
    def ops_per_call(self) -> int:
        return self.rounds

    def _net(self):
        self.observer = Observer(name=self.wl.name) if self.observe else None
        return self.backend(self.wl.degrees, observe=self.observer)

    def setup(self, rec: Recorder) -> Pairs:
        net = self._net()
        out, _ = rec.call(
            f"{self.backend.__name__}.allreduce", net.allreduce, self.specs[0], self.values[0]
        )
        return [(0, out)]

    def op(self, rec: Recorder) -> Pairs:
        net = self._net()
        rounds, _ = rec.call(
            f"{self.backend.__name__}.allreduce_rounds",
            net.allreduce_rounds, self.specs[0], [self.values[0]] * self.rounds,
        )
        return [(0, rounds[0]), (0, rounds[-1])]


def make_driver(wl: Workload, patterns: List[Pattern]) -> _Driver:
    if wl.kind in ("sim", "minibatch"):
        return SimDriver(wl, patterns)
    if wl.kind == "service":
        return ServiceDriver(wl, patterns)
    return ForkedDriver(wl, patterns)


def cluster_counters(cluster: Any) -> Dict[str, Any]:
    """Cumulative public counters of a simulated cluster: virtual clock,
    messages, network bytes, and bytes (self-messages included, as in the
    paper's Fig 5) per (phase, layer) cell."""
    stats = cluster.stats
    return {
        "now": cluster.now,
        "messages": stats.total_messages(),
        "wire_bytes": stats.total_bytes(include_self=False),
        "cells": {
            (phase, layer): stats.cell(phase, layer).total_bytes
            for phase in stats.phases
            for layer in stats.layers(phase)
        },
    }
