"""``python -m perfbench run``: measure workloads and print every metric.

One workload runs in this process; several run one subprocess each, so that
peak memory, CPU affinity and allocator state of one cannot leak into the
next.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 283, "failed": 0,
     "metrics": {"op_ms_p50": {"value": 31.07, "unit": "ms"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
measured with tracing off; with ``--trace 1`` they are the per-layer ones.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import ROOT
from .noise import NOISY_DRIFT, HostSpeed, median, peak_rss_mb, pin_to_one_cpu, tail
from .trace import Recorder
from .workloads import WORKLOADS, Counts, Workload, generate, input_sha256

__all__ = ["load_benchmark", "run_workload", "main"]

OUT_DIR = Path(__file__).resolve().parent / "out"


def load_benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json``: the names, units and bounds this benchmark emits."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@dataclass
class Tally:
    """Ops attempted and failed (raised, or differed from ``dense_reduce``)."""

    attempted: int = 0
    failed: int = 0


@dataclass
class Samples:
    setup_s: List[float] = field(default_factory=list)
    configure_s: List[float] = field(default_factory=list)  # timed warm configure() calls
    first_miss_s: List[float] = field(default_factory=list)  # service: first reduce of a stream
    op_ms: List[float] = field(default_factory=list)  # latency of every op that completed
    trial_reduces_per_s: List[float] = field(default_factory=list)


def scaled(counts: Counts, quick: bool) -> Counts:
    """``--quick``: counts divided by ten (rounds keep a marginal round)."""
    if not quick:
        return counts
    return replace(
        counts,
        setup_warmups=0,
        setups=min(counts.setups, 1),
        configure_warmups=min(counts.configure_warmups, 1),
        configures=min(counts.configures, max(1, counts.configures // 10)),
        ops_per_trial=max(1, counts.ops_per_trial // 10),
        min_trials=1,
        rounds=max(3, counts.rounds // 10) if counts.rounds else 0,
    )


def run_block(driver, rec: Recorder, n_calls: int, tally: Tally, profile=None) -> List[float]:
    """``n_calls`` closed-loop op() calls; returns the wall of each that
    completed.  The first and the last result are checked against
    ``dense_reduce`` after the timed loop."""
    gc.collect()
    walls, kept = [], []
    first_id = tally.attempted
    if profile is not None:
        profile.enable()
    for j in range(n_calls):
        rec.op = first_id + j
        tally.attempted += 1
        try:
            pairs, dt = rec.call("op", driver.op, rec)
        except Exception:  # an op that raises is a failed op, not a failed run
            traceback.print_exc()
            tally.failed += 1
            continue
        walls.append(dt)
        if j in (0, n_calls - 1):
            kept.append(pairs)
    if profile is not None:
        profile.disable()
    rec.op = None
    tally.failed += sum(not driver.correct(pairs) for pairs in kept)
    return walls


def timed_setup(driver, rec: Recorder, tally: Tally) -> List[float]:
    """A fresh set-up; returns its seconds, followed by the seconds of each
    first-miss reduce inside it (service only)."""
    driver.close()
    gc.collect()
    pairs, dt = rec.call("setup", driver.setup, rec)
    tally.attempted += 1
    tally.failed += not driver.correct(pairs)
    return [dt] + driver.first_miss_s


def op_ms(driver, walls: List[float], one_shot_s: float) -> List[float]:
    """Latency samples from the walls of op() calls.  A forked session of R
    rounds yields its marginal round ``(T(R) - T(1)) / (R - 1)``, T(1) being
    the one-shot taken right before it."""
    if not driver.forked:
        return [w * 1e3 for w in walls]
    return [(w - one_shot_s) / (driver.rounds - 1) * 1e3 for w in walls]


def measure(driver, counts: Counts, seconds: float, tally: Tally, host: HostSpeed) -> Samples:
    """The untraced pass: set-ups, warm configures, then trials of ops until
    ``seconds`` have gone by (minimum counts take precedence).  Every timing
    is taken between two host-speed readings (see :class:`HostSpeed`).

    On the forked backends a trial is a pair {one-shot, session of R rounds}:
    the host's slow spells last longer than a pair, so the marginal round of a
    pair is steadier than a session held against one-shots taken earlier."""
    rec = Recorder()
    s = Samples()
    start = time.perf_counter()
    for _ in range(counts.setup_warmups):
        timed_setup(driver, rec, tally)
    for _ in range(counts.setups):
        setup, *first_miss = host.at_reference(lambda: timed_setup(driver, rec, tally))
        s.setup_s.append(setup)
        s.first_miss_s += first_miss
    if driver.has_configure:
        for k in range(counts.configure_warmups + counts.configures):
            dt = host.at_reference(lambda: driver.configure(rec))
            if k >= counts.configure_warmups:
                s.configure_s.append(dt)
    trial_wall = 0.0
    while (
        len(s.trial_reduces_per_s) < counts.min_trials
        or time.perf_counter() - start + trial_wall <= seconds
    ):
        t0 = time.perf_counter()
        if driver.forked:
            s.setup_s.append(timed_setup(driver, rec, tally)[0])
        walls = host.at_reference(lambda: run_block(driver, rec, counts.ops_per_trial, tally))
        trial_wall = time.perf_counter() - t0
        if not walls:
            raise SystemExit("perfbench: every op of a trial failed")
        s.op_ms += op_ms(driver, walls, s.setup_s[-1])
        s.trial_reduces_per_s.append(
            len(walls) * driver.ops_per_call * driver.reduces_per_op / sum(walls)
        )
    return s


def end_to_end(driver, s: Samples) -> Dict[str, float]:
    # configure_s, "a new pattern made ready": the warm configure() where the
    # API has one; the service's first-miss reduce (fingerprint is paid in
    # open_stream, configure + one reduce here); on the forked backends the
    # one-shot allreduce, their only way to configure — the same as setup_s.
    configure = s.configure_s or s.first_miss_s or s.setup_s
    return {
        "setup_s": median(s.setup_s),
        "configure_s": median(configure),
        "op_ms_p50": median(s.op_ms),
        "op_ms_tail": tail(s.op_ms)[0],
        "reduces_per_s": median(s.trial_reduces_per_s),
        "peak_rss_mb": peak_rss_mb(children=driver.forked),
    }


def run_workload(
    name: str, *, seed: int = 0, seconds: float = 10.0, trace: int = 0, quick: bool = False
) -> Dict[str, Any]:
    """Generate, measure, check; returns the full result document."""
    from .drivers import make_driver  # binds to the checkout's src/ on import

    bench = load_benchmark()
    wl: Workload = WORKLOADS[name]
    counts = scaled(wl.counts, quick)
    if quick:
        seconds = seconds / 10.0

    t0 = time.perf_counter()
    patterns = generate(seed, wl.shape)
    gen_s = time.perf_counter() - t0
    driver = make_driver(wl, patterns)
    if driver.forked:
        driver.rounds = counts.rounds
    cpu = pin_to_one_cpu() if driver.pinned else None

    tally = Tally()
    host = HostSpeed(normalise=driver.pinned)
    host.read()
    if trace:
        from .layers import traced_pass

        values = traced_pass(wl, driver, patterns, counts, tally, host, OUT_DIR, seed)
    else:
        samples = measure(driver, counts, seconds, tally, host)
        values = end_to_end(driver, samples)
    driver.close()
    host.read()
    meta: Dict[str, Any] = {
        "input_sha256": input_sha256(patterns),
        "pinned_cpu": cpu,
        "at_reference_speed": host.normalise,
        "counts": vars(counts).copy(),
        "gen_s": gen_s,
        "calib_py_ms": median(host.py_ms),
        "calib_np_ms": median(host.np_ms),
        "host_speed_index": median(host.index),
        "calib_drift": host.drift(),
        "noisy": host.drift() > NOISY_DRIFT,
    }
    if trace:
        for key in ("gen_s", "calib_py_ms", "calib_np_ms", "calib_drift", "host_speed_index"):
            values[f"bench.{key}"] = meta[key]
    else:
        meta["op_tail_pct"] = tail(samples.op_ms)[1]
        meta["op_samples"] = len(samples.op_ms)
        meta["trials"] = len(samples.trial_reduces_per_s)
        payload = sum(v.nbytes for v in patterns[0][2].values()) + 8 * sum(
            v.size for v in patterns[0][0].values()
        )
        meta["payload_MB_per_s"] = values["reduces_per_s"] * payload / 1e6

    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: emitted metrics differ from BENCHMARK.json: "
            f"unnamed {sorted(set(values) - set(units))}, missing {sorted(set(units) - set(values))}"
        )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
        "meta": meta,
    }


def report(result: Dict[str, Any], out: Optional[Path]) -> None:
    """Human-readable table, the result file, then the contract's JSON line."""
    meta = result["meta"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"input={meta['input_sha256'][:16]} noisy={meta['noisy']} "
          f"failed={result['failed']}/{result['attempted']}")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:16.6f} {m['unit']}")
    for key in ("op_samples", "trials", "op_tail_pct", "payload_MB_per_s", "host_speed_index", "calib_drift"):
        if key in meta:
            print(f"  ({key} = {meta[key]:.4g})")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        stamp = f"{result['workload']}.seed{result['seed']}.trace{result['trace']}"
        path = out / f"{stamp}.{os.getpid()}.json"
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)


def main(args) -> int:
    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown}; choose from {list(WORKLOADS)}", file=sys.stderr)
        return 2
    if len(names) == 1:
        result = run_workload(
            names[0], seed=args.seed, seconds=args.seconds, trace=args.trace, quick=args.quick
        )
        report(result, Path(args.out) if args.out else None)
        return 0  # failed ops are reported in the result, not in the exit code
    status = 0
    for name in names:
        cmd = [sys.executable, "-m", "perfbench", "run", "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        if args.out:
            cmd += ["--out", args.out]
        status |= subprocess.run(cmd, cwd=ROOT, check=False).returncode
    return status
