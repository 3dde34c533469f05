"""The traced pass: per-layer metrics, taken from outside the program.

One set-up, then three blocks of the same ops: plain (no tracing), traced
(driver-side spans on; on the forked backends also the workers' ``Observer``),
and profiled (``cProfile``, folded per ``repro`` subpackage).  The ratio of
the first two is what tracing costs; public counters are read around the
second; the third gives the split no wrapper span can.
"""

from __future__ import annotations

import cProfile
import json
import time
from pathlib import Path
from typing import Any, Dict, List

from .drivers import cluster_counters
from .micro import MICRO, fingerprint_ms
from .noise import HostSpeed, cores, cpu_seconds, median
from .program import KylixAllreduce
from .run import Tally, load_benchmark, op_ms, run_block, timed_setup
from .trace import LAYERS, Recorder, calls_of, fold_profile, profile_table
from .workloads import Counts, Pattern, Workload

__all__ = ["traced_pass"]

DOWN_PHASES = ("reduce_down", "combined_down")
UP_PHASES = ("gather_up",)


def _profiled_configure(driver, counts: Counts, rec: Recorder) -> Dict[str, float]:
    for _ in range(counts.configure_warmups):
        driver.configure(rec)
    n = max(1, counts.configures // 3)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(n):
        driver.configure(Recorder())
    profile.disable()
    folded = fold_profile(profile_table(profile))
    return {
        f"{layer}.self_ms_per_configure": folded[layer] * 1e3 / n
        for layer in ("sparse", "allreduce", "simul", "cluster")
    }


def _cluster_metrics(before: Dict[str, Any], after: Dict[str, Any], ops: int) -> Dict[str, float]:
    """Virtual time, messages and the Fig 5 goblet per op, from ``cluster.stats``."""
    cells = {k: (v - before["cells"].get(k, 0)) / ops for k, v in after["cells"].items()}

    def total(phases=DOWN_PHASES + UP_PHASES, layer=None) -> float:
        return sum(
            v for (phase, lay), v in cells.items()
            if phase in phases and (layer is None or lay == layer)
        )

    out = {
        "netmodel.model_op_ms": (after["now"] - before["now"]) / ops * 1e3,
        "cluster.messages_per_op": (after["messages"] - before["messages"]) / ops,
        "cluster.wire_bytes_per_op": (after["wire_bytes"] - before["wire_bytes"]) / ops,
        "cluster.bytes_per_op.down": total(DOWN_PHASES),
        "cluster.bytes_per_op.up": total(UP_PHASES),
    }
    for layer in (1, 2, 3):
        out[f"cluster.bytes_per_op.L{layer}"] = total(layer=layer)
    return out


def _observer_metrics(obs, rounds: int, ranks: int, step_ms: float) -> Dict[str, float]:
    """What the workers' Observer snapshots say about one session.  Round 0 is
    the combined protocol; ``reduce_down`` traffic and spans come from the R-1
    cached rounds, ``gather_up`` from all R."""

    def per_round(name: str) -> float:
        per = {"reduce_down": rounds - 1, "gather_up": rounds}
        return sum(
            value / per[labels["phase"]]
            for labels, value in obs.counter(name).items()
            if labels.get("phase") in per
        )

    waits = obs.histogram("net.queue_wait")
    wait_s = [x for labels, _ in waits.items() for x in waits.observations(**labels)]

    def span_ms(select) -> float:
        return sum(sp.end - sp.start for sp in obs.spans if select(sp)) * 1e3 / ranks

    return {
        "net.step_ms": step_ms,
        "net.bytes_per_op": per_round("net.bytes"),
        "net.messages_per_op": per_round("net.messages"),
        "net.resent_per_op": obs.counter("faults.resent").total() / rounds,
        "net.queue_wait_ms_p50": median(wait_s) * 1e3 if wait_s else 0.0,
        "net.down_ms_per_op": span_ms(
            lambda sp: sp.phase == "reduce_down" and sp.args.get("kind") != "merge"
        ) / (rounds - 1),
        "net.up_ms_per_op": span_ms(lambda sp: sp.phase == "gather_up") / rounds,
        # the index unions and first scatter of round 0: paid once per session
        "net.merge_ms_per_op": span_ms(lambda sp: sp.args.get("kind") == "merge"),
    }


def _service_metrics(wl: Workload, driver, n_waves: int, tally: Tally) -> Dict[str, float]:
    """Waves and bare reduces back to back on the same cluster: the difference
    per reduce is the service's own cost."""
    bare = KylixAllreduce(driver.cluster, wl.degrees)
    bare.configure(driver.specs[1])
    rec = Recorder()
    wave_s, bare_s = [], []
    for _ in range(n_waves):
        wave_s += run_block(driver, rec, 1, tally)
        for _ in range(driver.reduces_per_op):
            bare_s.append(rec.call("reduce", bare.reduce, driver.values[1])[1])
    cache = driver.svc.cache.stats
    return {
        "service.overhead_ms_per_reduce": (median(wave_s) / driver.reduces_per_op - median(bare_s)) * 1e3,
        "service.fingerprint_ms": fingerprint_ms(driver.specs[0], wl.degrees),
        "service.cache_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "service.rejected": float(driver.svc.stats["rejected"]),
    }


def traced_pass(
    wl: Workload, driver, patterns: List[Pattern], counts: Counts, tally: Tally,
    host: HostSpeed, out_dir: Path, seed: int,
) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` (0 where a layer is not on
    this workload's path); writes ``<out_dir>/<workload>.trace.json``."""
    m = {metric["name"]: 0.0 for metric in load_benchmark()["per_layer"]}
    rec = Recorder(tracing=True)
    for _ in range(counts.setup_warmups):
        timed_setup(driver, Recorder(), tally)
    one_shot_s = timed_setup(driver, rec, tally)[0]
    if driver.has_configure:
        m.update(_profiled_configure(driver, counts, rec))

    n = counts.ops_per_trial
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    plain_s = host.at_reference(lambda: run_block(driver, Recorder(), n, tally))
    busy = (cpu_seconds() - cpu0) / (time.perf_counter() - t0)

    sim_hosted = not driver.forked
    before = cluster_counters(driver.cluster) if sim_hosted else None
    driver.observe = True
    traced_s = host.at_reference(lambda: run_block(driver, rec, n, tally))
    driver.observe = False
    observer = driver.observer
    if sim_hosted:
        m.update(_cluster_metrics(before, cluster_counters(driver.cluster), len(traced_s)))

    profile = cProfile.Profile()
    t0 = time.perf_counter()
    profiled_s = run_block(driver, Recorder(), n, tally, profile=profile)
    profiled_wall = time.perf_counter() - t0
    if not (plain_s and traced_s and profiled_s):
        raise SystemExit("perfbench: every op of a traced block failed")
    ops = len(profiled_s) * driver.ops_per_call
    stats = profile_table(profile)
    folded = fold_profile(stats)
    for layer in LAYERS + ("other",):
        m[f"{layer}.self_ms_per_op"] = folded[layer] * 1e3 / ops
    m["sparse.union_calls_per_op"] = calls_of(stats, "sparse/merge.py", "union_with_maps") / ops
    m["simul.events_per_op"] = calls_of(stats, "simul/engine.py", "step") / ops
    m["bench.fold_coverage"] = sum(folded.values()) / sum(profiled_s)

    plain_ms = median(op_ms(driver, plain_s, one_shot_s))
    traced_ms = median(op_ms(driver, traced_s, one_shot_s))
    m["bench.trace_overhead_ratio"] = traced_ms / plain_ms
    if driver.forked:
        step_ms = plain_ms / (2 * len(wl.degrees))
        m.update(_observer_metrics(observer, driver.rounds, wl.shape.m, step_ms))
        m["net.cpu_busy_ratio"] = busy / cores()
    if wl.kind == "service":
        m.update(_service_metrics(wl, driver, n, tally))
    for name in wl.micro:
        m.update(MICRO[name](wl, patterns[0]))

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{wl.name}.trace.json", "w") as fh:
        json.dump(
            {
                "workload": wl.name,
                "seed": seed,
                "ops_per_block": n,
                "profiled_wall_s": profiled_wall,
                "layer_self_ms_per_op": {k: v * 1e3 / ops for k, v in folded.items()},
                "span_self_s": rec.self_seconds(),
                "spans": rec.spans,
            },
            fh,
        )
    return m
