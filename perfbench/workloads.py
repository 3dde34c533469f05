"""The seven workloads: shapes, reasons, and seeded input generators.

Generators take only ``(seed, shape)`` and draw from
``numpy.random.default_rng`` — never from ``repro.data`` — so a change to the
program cannot change the load.  :func:`input_sha256` fingerprints what was
generated; both sides of an A/B must report the same digest.

Values are small integers stored as float64, so every partial sum is exact and
the program's output can be compared to ``dense_reduce`` with ``array_equal``
whatever order the butterfly adds in.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["Shape", "Counts", "Workload", "Pattern", "WORKLOADS", "generate", "input_sha256"]


@dataclass(frozen=True)
class Shape:
    """What the generator needs and nothing else."""

    m: int  # nodes
    n: int  # length of the dense vector the index sets sparsify
    out_keys: int  # per node; ignored by "powerlaw", whose density sets it
    in_keys: int
    sets: str  # "uniform_home" | "uniform" | "powerlaw"
    patterns: int = 1  # distinct sparsity patterns generated
    density: float = 0.0  # "powerlaw" only: mean |set| / n per node


@dataclass(frozen=True)
class Counts:
    """Op counts of a 10-second run.  ``--seconds`` scales the trial budget,
    ``--quick`` divides the counts by ten; sizes are never cut."""

    setup_warmups: int = 0  # untimed set-ups first (a first fork is cold)
    setups: int = 0  # timed set-ups before the trials (forked: one per trial instead)
    configure_warmups: int = 0
    configures: int = 0  # timed warm configure() calls
    ops_per_trial: int = 1
    min_trials: int = 3
    rounds: int = 0  # forked backends: R of allreduce_rounds


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sim" | "minibatch" | "service" | "local" | "tcp"
    degrees: Tuple[int, ...]
    shape: Shape
    counts: Counts
    why: str
    micro: Tuple[str, ...] = ()  # micro-drivers run in this workload's traced pass


#: One sparsity pattern: per-rank in indices, out indices, out values.
Pattern = Tuple[Dict[int, np.ndarray], Dict[int, np.ndarray], Dict[int, np.ndarray]]

_SMALL64 = Shape(m=64, n=20_000, out_keys=500, in_keys=250, sets="uniform_home")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sim64_small", "sim", (4, 4, 4), _SMALL64,
            Counts(setups=9, configure_warmups=2, configures=20, ops_per_trial=20),
            "tiny kernels on 64 simulated nodes: simul + cluster + protocol dispatch do "
            "nearly all the work (event-loop-bound regime)",
            micro=("engine", "fabric"),
        ),
        Workload(
            "sim64_large", "sim", (4, 4, 4),
            Shape(m=64, n=400_000, out_keys=0, in_keys=0, sets="powerlaw", density=0.21),
            Counts(setups=3, configures=4, ops_per_trial=4, min_trials=5),
            "Twitter-like density 0.21 (~84k keys/node): sparse.merge does most of "
            "configure, inline NumPy scatter/gather most of reduce, the simulator little",
            micro=("sparse",),
        ),
        Workload(
            "sim64_minibatch", "minibatch", (4, 4, 4),
            Shape(m=64, n=200_000, out_keys=5_000, in_keys=2_500, sets="uniform", patterns=8),
            Counts(setups=5, configure_warmups=1, configures=9, ops_per_trial=4),
            "a fresh pattern on every op (allreduce_combined): plan build inside the op, so "
            "a cached-reduce gain that taxes plan build, or the reverse, shows here",
        ),
        Workload(
            "service_sim64", "service", (4, 4, 4),
            Shape(m=64, n=20_000, out_keys=500, in_keys=250, sets="uniform_home", patterns=5),
            Counts(setups=5, ops_per_trial=5),
            "ReduceService on the sim64_small path, 4 closed-loop clients in waves, stream 0 "
            "drifting A-B-A: the difference to a bare reduce is the service's cost",
        ),
        Workload(
            "local4_small", "local", (2, 2),
            Shape(m=4, n=20_000, out_keys=2_000, in_keys=1_000, sets="uniform"),
            Counts(setup_warmups=1, min_trials=5, rounds=30),
            "4 forked nodes over pipes, small parts: latency-bound, transport polling and "
            "per-message cost dominate, bytes and kernels do not",
        ),
        Workload(
            "tcp4_small", "tcp", (2, 2),
            Shape(m=4, n=20_000, out_keys=2_000, in_keys=1_000, sets="uniform"),
            Counts(setup_warmups=1, min_trials=5, rounds=20),
            "same protocol and sizes as local4_small over loopback TCP: isolates socket, "
            "framing and heartbeat cost from the shared net.transport cost",
            micro=("framing",),
        ),
        Workload(
            "tcp4_large", "tcp", (2, 2),
            Shape(m=4, n=4_000_000, out_keys=400_000, in_keys=200_000, sets="uniform"),
            Counts(setup_warmups=1, min_trials=5, rounds=10),
            "bytes-bound loopback TCP (~1.6 MB parts): net.framing pickling/copies and "
            "net.protocol's own kernels dominate, the poll interval does not",
            micro=("framing",),
        ),
    )
}


def _powerlaw_probabilities(n: int, density: float) -> np.ndarray:
    """``P(r) = 1 - exp(-lam / r)`` for feature ranks ``r = 1..n`` (PAPER §IV),
    with ``lam`` bisected so the expected per-node density is ``density``."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    lo, hi = 1e-3, 1e9
    for _ in range(80):
        lam = (lo * hi) ** 0.5
        if float(np.mean(-np.expm1(-lam / ranks))) < density:
            lo = lam
        else:
            hi = lam
    return -np.expm1(-lo / ranks)


def _pattern(rng: np.random.Generator, shape: Shape) -> Pattern:
    m, n = shape.m, shape.n
    if shape.sets == "powerlaw":
        prob = _powerlaw_probabilities(n, shape.density)
        outs = {r: np.flatnonzero(rng.random(n) < prob) for r in range(m)}
        ins = {r: outs[r].copy() for r in range(m)}
    elif shape.sets == "uniform_home":
        # Every node also contributes its home slice, so any in-key is covered.
        outs = {
            r: np.union1d(
                rng.choice(n, shape.out_keys, replace=False),
                np.arange(r * n // m, (r + 1) * n // m),
            )
            for r in range(m)
        }
        ins = {r: np.sort(rng.choice(n, shape.in_keys, replace=False)) for r in range(m)}
    elif shape.sets == "uniform":
        outs = {r: np.sort(rng.choice(n, shape.out_keys, replace=False)) for r in range(m)}
        # In-keys are drawn from what somebody contributes (strict coverage).
        covered = np.unique(np.concatenate(list(outs.values())))
        ins = {r: np.sort(rng.choice(covered, shape.in_keys, replace=False)) for r in range(m)}
    else:
        raise ValueError(f"unknown set kind {shape.sets!r}")
    vals = {r: rng.integers(-8, 9, outs[r].size).astype(np.float64) for r in range(m)}
    return ins, outs, vals


def generate(seed: int, shape: Shape) -> List[Pattern]:
    """The workload's inputs: ``shape.patterns`` sparsity patterns with values."""
    rng = np.random.default_rng(seed)
    return [_pattern(rng, shape) for _ in range(shape.patterns)]


def input_sha256(patterns: List[Pattern]) -> str:
    """Digest over every generated index and value byte, in generation order."""
    h = hashlib.sha256()
    for part in (arrays for pattern in patterns for arrays in pattern):
        for rank in sorted(part):
            h.update(np.ascontiguousarray(part[rank]).tobytes())
    return h.hexdigest()
