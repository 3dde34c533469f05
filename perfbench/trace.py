"""Tracing from outside the program: driver-side spans and a profile fold.

Spans wrap each public call the benchmark makes (name, start, end, parent, op
id) and are kept in memory until the workload ends.  They cannot split one
``reduce`` by layer — protocol generators and the engine interleave at
``yield`` granularity — so a separate ``cProfile`` pass supplies that split:
every function's own time is folded into its ``repro.<subpackage>``, and time
spent in C/NumPy/stdlib code is charged to the ``repro`` function that called
it, along the profiler's caller edges.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import SRC

__all__ = ["Recorder", "LAYERS", "profile_table", "fold_profile", "calls_of"]

#: The ``repro`` subpackages reported by name; everything else the driver
#: process runs (perfbench itself, ``repro.net``/``repro.verify`` driver-side
#: code, unattributable runtime) is ``other``.
LAYERS = ("sparse", "allreduce", "simul", "cluster", "netmodel", "service", "obs", "faults")


class Recorder:
    """Times calls; when tracing, also keeps a span per call."""

    def __init__(self, tracing: bool = False):
        self.tracing = tracing
        self.spans: List[Dict[str, Any]] = []
        self.op: Optional[int] = None  # id shared by the spans of one op
        self._open: List[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Tuple[Any, float]:
        """Run ``fn``; returns ``(its result, seconds it took)``."""
        if not self.tracing:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            return out, time.perf_counter() - t0
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        return out, span["end"] - span["start"]

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: duration minus what child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s, sec in zip(self.spans, own):
            out[s["name"]] = out.get(s["name"], 0.0) + sec
        return out


_REPRO_DIR = str(SRC / "repro") + os.sep
_BENCH_DIR = str(Path(__file__).resolve().parent) + os.sep


def _layer_of(filename: str) -> Optional[str]:
    """``repro`` subpackage of a source file; ``"other"`` for the rest of
    ``repro`` and for perfbench; ``None`` for foreign code (C, NumPy, stdlib)."""
    if filename.startswith(_REPRO_DIR):
        sub = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
        return sub if sub in LAYERS else "other"
    if filename.startswith(_BENCH_DIR):
        return "other"
    return None


def profile_table(profile: cProfile.Profile) -> Dict[tuple, tuple]:
    """``func -> (cc, nc, tt, ct, callers)`` of a finished profile."""
    return pstats.Stats(profile).stats


def fold_profile(stats: Dict[tuple, tuple]) -> Dict[str, float]:
    """Seconds of own time per layer (``LAYERS`` + ``other``); sums to the
    profiled total."""
    owners_memo: Dict[tuple, Dict[str, float]] = {}

    def owners(func: tuple, seen: frozenset) -> Dict[str, float]:
        """How ``func``'s inclusive time splits over layers."""
        layer = _layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in owners_memo:
            return owners_memo[func]
        callers = stats[func][4] if func in stats else {}
        weight = sum(edge[3] for edge in callers.values())
        if func in seen or not callers or weight <= 0.0:
            return {"other": 1.0}
        split: Dict[str, float] = {}
        for caller, edge in callers.items():
            for layer, share in owners(caller, seen | {func}).items():
                split[layer] = split.get(layer, 0.0) + share * edge[3] / weight
        owners_memo[func] = split
        return split

    folded = {layer: 0.0 for layer in LAYERS + ("other",)}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = _layer_of(func[0])
        if layer is not None:
            folded[layer] += tt
            continue
        edge_tt = sum(edge[2] for edge in callers.values())
        if not callers or edge_tt <= 0.0:
            folded["other"] += tt
            continue
        for caller, edge in callers.items():
            for layer, share in owners(caller, frozenset({func})).items():
                folded[layer] += tt * (edge[2] / edge_tt) * share
    return folded


def calls_of(stats: Dict[tuple, tuple], module_suffix: str, name: str) -> int:
    """Primitive call count of one ``repro`` function, e.g. ``("simul/engine.py", "step")``."""
    return sum(
        nc
        for (filename, _line, fname), (_cc, nc, _tt, _ct, _callers) in stats.items()
        if fname == name and filename == _REPRO_DIR + module_suffix
    )
