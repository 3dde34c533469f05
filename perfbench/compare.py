"""``python -m perfbench compare A B``: is B the same, better or worse than A?

A and B are directories of result documents (``run --out``), several runs per
workload.  Each (workload, end-to-end metric) pair gets the medians and
quartiles of both sides and a verdict from the metric's bound in
``BENCHMARK.json``: a run-to-run spread wider than the bound is ``unresolved``,
never ``same``.  Counts that must repeat exactly — input digests, virtual-clock
time, wire bytes — are compared bit for bit between runs of the same seed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

from .noise import quartile_spread
from .run import load_benchmark

__all__ = ["verdict", "main"]

#: Must be identical across runs of one (workload, seed), whichever side.
EXACT = ("netmodel.model_op_ms", "cluster.wire_bytes_per_op")


def load(directory: str) -> Dict[str, List[Dict[str, Any]]]:
    """Result documents of a directory, per workload."""
    runs: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as fh:
            doc = json.load(fh)
        if "workload" in doc and "metrics" in doc:
            runs[doc["workload"]].append(doc)
    return runs


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float]:
    """``(same|better|worse|unresolved, share by which B is worse than A)``."""
    _, med_a, _, spread_a = quartile_spread(a)
    _, med_b, _, spread_b = quartile_spread(b)
    worse_by = (med_b - med_a) / med_a if better == "lower" else (med_a - med_b) / med_a
    if max(spread_a, spread_b) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def _exact_mismatches(docs: List[Dict[str, Any]]) -> List[str]:
    """Names of the exact quantities that differ between runs of one seed."""
    seen: Dict[Tuple[int, str], Any] = {}
    bad = set()
    for doc in docs:
        facts = {"input_sha256": doc["meta"]["input_sha256"]}
        facts.update({k: doc["metrics"][k]["value"] for k in EXACT if k in doc["metrics"]})
        for name, value in facts.items():
            if seen.setdefault((doc["seed"], name), value) != value:
                bad.add(name)
    return sorted(bad)


def main(args) -> int:
    bench = load_benchmark()
    runs_a, runs_b = load(args.a), load(args.b)
    failing = False
    print(f"{'workload':16s} {'metric':14s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} "
          f"{'B worse by':>10s}  verdict")
    for wl in (w["name"] for w in bench["workloads"]):
        docs_a, docs_b = runs_a.get(wl, []), runs_b.get(wl, [])
        if not docs_a or not docs_b:
            continue
        failed = sum(d["failed"] for d in docs_a + docs_b)
        if failed:
            print(f"{wl:16s} {failed} failed ops: fail_share is not zero")
            failing = True
        for name in _exact_mismatches(docs_a + docs_b):
            print(f"{wl:16s} {name} differs between runs of the same seed: worse")
            failing = True
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [d["metrics"][name]["value"] for d in docs_a if name in d["metrics"]]
            b = [d["metrics"][name]["value"] for d in docs_b if name in d["metrics"]]
            if not a or not b:
                continue
            word, worse_by = verdict(a, b, metric["better"], metric["bound"])
            failing |= word == "worse"
            cells = []
            for values in (a, b):
                q1, med, q3, _ = quartile_spread(values)
                cells.append(f"{med:12.4f} [{q1:.4f}, {q3:.4f}]")
            print(f"{wl:16s} {name:14s} {cells[0]:>34s} {cells[1]:>34s} {worse_by:+10.1%}  {word}")
    return 1 if failing else 0
