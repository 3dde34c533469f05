"""Command-line entry point: ``python -m repro <command>``.

The :data:`COMMANDS` table below is the single source of truth for the
CLI surface — ``--help`` output renders it, the unknown-command error
lists it, and the CLI table in ``docs/observability.md`` / the README is
checked against it by the test suite.  Keep the three in sync by editing
the table, not prose.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = ["COMMANDS", "main"]

#: command -> (usage suffix, one-line description).  Rendered by
#: ``python -m repro --help`` and mirrored in the docs (see module doc).
COMMANDS: dict[str, tuple[str, str]] = {
    "experiments": (
        "[names...]",
        "regenerate the paper's tables/figures (repro.bench.run_all)",
    ),
    "demo": ("", "a 30-second tour: one sparse allreduce with a traffic report"),
    "info": ("", "version, calibration constants, reproduced-results summary"),
    "verify": (
        "[--stacks 8,16,64] [--replication S]",
        "statically check every protocol invariant; exit 1 on violation",
    ),
    "certify": (
        "[--nodes N] [--degrees D,D] [--density RHO] [--faults kill:V:P:L] [--out FILE]",
        "prove plan coverage/conservation and gate traffic against the certificate",
    ),
    "lint": ("[paths...]", "run the repo-specific AST lint; exit 1 on findings"),
    "trace": (
        "[experiment] [--backend sim|local|tcp] [--kill N:PHASE:L] [--out FILE]",
        "run a named experiment observed; export a Chrome-trace JSON",
    ),
    "analyze": (
        "TRACE.json",
        "critical path, straggler/queue-wait and goblet reports for a trace",
    ),
    "monitor": (
        "[experiment] [--backend sim|local|tcp] [--attach MANIFEST] [--once] [--out FILE]",
        "live telemetry dashboard: run an experiment sampled, or attach to a cluster",
    ),
    "explore": (
        "[--nodes N] [--degrees D,D] [--bound K] [--faults none|drop]",
        "model-check the protocol across event schedules; exit 1 on violation",
    ),
    "node": (
        "--rank R [--host H] [--port P]",
        "run one TCP cluster node server (announces READY, serves sessions)",
    ),
    "run-cluster": (
        "--size N [--attach host:port,...] [--stop] [--manifest FILE]",
        "spawn a loopback node cluster (or attach/stop one); write the manifest",
    ),
    "drive-cluster": (
        "[workload] [--failure-mode MODE] [--rounds K] [--manifest FILE]",
        "drive a launched cluster through a workload under a failure mode",
    ),
    "serve": (
        "[--backend sim|local|tcp] [--streams K] [--reduces N]",
        "multiplex named reduce streams through the allreduce service",
    ),
    "drive-service": (
        "[--backend sim|local|tcp] [--reduces N] [--json FILE]",
        "service-throughput benchmark: cached+pipelined vs configure-per-reduce",
    ),
}


def _usage() -> str:
    lines = ["usage: python -m repro <command> [args]", "", "commands:"]
    for cmd, (suffix, desc) in COMMANDS.items():
        left = f"{cmd} {suffix}".strip()
        lines.append(f"  {left:<52} {desc}")
    lines.append("")
    lines.append("see docs/observability.md for the trace/analyze/monitor workflow;")
    lines.append("wall-clock speed is measured by `python3 -m perfbench` (perfbench/README.md)")
    return "\n".join(lines)


def _parse_degrees(parser, text: str | None, default: list[int]) -> list[int]:
    """The ``--degrees D,D`` flag (``default`` when it was not given)."""
    if not text:
        return default
    try:
        return [int(d) for d in text.split(",") if d]
    except ValueError:
        parser.error(f"--degrees must be comma-separated ints, got {text!r}")


def _runner_parser(cmd: str, description: str, *, backend: bool = True):
    """A parser with the experiment runner's arguments: the workload
    (positional), ``--backend`` (unless ``backend`` is off) and ``--seed``."""
    import argparse

    from .obs.runner import BACKENDS, EXPERIMENTS

    parser = argparse.ArgumentParser(prog=f"python -m repro {cmd}", description=description)
    parser.add_argument(
        "experiment", nargs="?", default="quickstart", choices=sorted(EXPERIMENTS),
        help="named workload to run (default: quickstart)",
    )
    if backend:
        parser.add_argument(
            "--backend", default="sim", choices=list(BACKENDS),
            help="simulated cluster, forked processes over pipes, or loopback TCP "
            "(default: sim)",
        )
    parser.add_argument("--seed", type=int, default=0, help="workload (and fault) seed")
    return parser


def _demo() -> int:
    from .allreduce import KylixAllreduce, ReduceSpec, dense_reduce
    from .bench.reporting import format_bytes, format_seconds
    from .cluster import Cluster
    from .obs import analyze
    from .obs.analyze import render_critical_path

    m, n = 16, 5_000
    rng = np.random.default_rng(0)
    idx = {
        r: np.unique(np.concatenate([rng.choice(n, 400), np.arange(r, n, m)]))
        for r in range(m)
    }
    spec = ReduceSpec(in_indices=idx, out_indices=idx)
    values = {r: rng.normal(size=idx[r].size) for r in range(m)}

    cluster = Cluster(m, observe=True)
    net = KylixAllreduce(cluster, degrees=[4, 2, 2])
    net.configure(spec)
    result = net.reduce(values)

    reference = dense_reduce(spec, values)
    exact = all(np.allclose(result[r], reference[r]) for r in range(m))
    print(f"sparse allreduce on {m} simulated nodes, {n} features")
    print(f"  config: {format_seconds(net.config_timing.elapsed)}   "
          f"reduce: {format_seconds(net.last_reduce_timing.elapsed)}   "
          f"exact: {'yes' if exact else 'NO'}")
    down = cluster.stats.bytes_by_layer("reduce_down")
    print("  reduce-down volume by layer (the Kylix shape): "
          + ", ".join(f"L{k}={format_bytes(v)}" for k, v in down.items()))
    trace = analyze(cluster.obs)
    print(render_critical_path(trace.critical_path()))
    sr = trace.straggler_report()
    print("straggler: " + ("none" if sr.straggler is None else f"node {sr.straggler} ({sr.reason})"))
    return 0


def _info() -> int:
    from . import __version__
    from .bench import INCAST_FACTOR, KYLIX_COMPUTE_RATE, PAPER, SERVICE_SIGMA

    print(f"repro {__version__} — Kylix (ICPP 2014) reproduction")
    print(f"  paper targets: Twitter degrees {PAPER['twitter']['optimal_degrees']}, "
          f"Yahoo {PAPER['yahoo']['optimal_degrees']}")
    print(f"  calibration: service/latency sigma {SERVICE_SIGMA}, "
          f"incast factor {INCAST_FACTOR}, compute {KYLIX_COMPUTE_RATE:.0e} B/s")
    print("  see EXPERIMENTS.md for the full paper-vs-measured table")
    return 0


def _verify(args: list[str]) -> int:
    import argparse

    from .verify import format_report, verify_sizes

    parser = argparse.ArgumentParser(
        prog="python -m repro verify",
        description="statically check Kylix protocol invariants",
    )
    parser.add_argument(
        "--stacks",
        default="8,16,64",
        help="comma-separated cluster sizes to sweep (default: 8,16,64)",
    )
    parser.add_argument("--n", type=int, default=512, help="synthetic feature count")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--replication",
        type=int,
        default=None,
        metavar="S",
        help="treat each size as S-way replicated (checks the replica-group "
        "structure and sweeps the logical m/S stacks)",
    )
    opts = parser.parse_args(args)
    try:
        sizes = [int(s) for s in opts.stacks.split(",") if s]
    except ValueError:
        parser.error(f"--stacks must be comma-separated integers, got {opts.stacks!r}")
    if not sizes or any(s < 1 for s in sizes):
        parser.error(f"--stacks needs at least one positive size, got {opts.stacks!r}")
    if opts.replication is not None and opts.replication < 1:
        parser.error(f"--replication must be >= 1, got {opts.replication}")

    report = verify_sizes(
        sizes, n=opts.n, seed=opts.seed, replication=opts.replication
    )
    bad = 0
    for key, violations in report.items():
        if violations:
            bad += len(violations)
            print(f"FAIL {key}")
            print("  " + format_report(violations).replace("\n", "\n  "))
        else:
            print(f"ok   {key}")
    total = len(report)
    if bad:
        print(f"\n{bad} invariant violation(s) across {total} stacks")
        return 1
    print(f"\nall invariants hold across {total} (size, stack) combinations")
    return 0


def _certify(args: list[str]) -> int:
    import argparse
    import json

    from .obs.runner import EXPERIMENTS, failure_schedule, parse_kill, run_traced
    from .verify import Violation
    from .verify.flow import (
        PHASES,
        CertificationError,
        certificate_for_experiment,
        certify,
        check_traffic,
        density_spec,
        emit_certificate_metrics,
        mutant_plans,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro certify",
        description="statically prove a plan's coverage/conservation "
        "(abstract interpretation over index-interval lattices), predict "
        "its exact per-(phase, layer) traffic, then gate a simulated run "
        "against the certificate",
    )
    parser.add_argument("--nodes", type=int, default=8, help="cluster size")
    parser.add_argument(
        "--degrees", default=None,
        help="comma-separated degree stack (default: single layer [nodes])",
    )
    parser.add_argument("--n", type=int, default=2048, help="feature count")
    parser.add_argument(
        "--density", type=float, default=None, metavar="RHO",
        help="per-partition extra density in (0,1] for the synthetic "
        "workload (default: the verify sweep's zipf workload)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--experiment", default=None, choices=sorted(EXPERIMENTS),
        help="certify a named runner experiment instead of a synthetic "
        "workload (gates that experiment's exact simulated traffic)",
    )
    parser.add_argument(
        "--faults", action="append", default=None, metavar="kill:V:PHASE:L",
        help="crash schedule entries, e.g. kill:2:down:1 (repeatable); "
        "adds the static worst-case coverage-loss bound and checks the "
        "degraded run's CoverageReport against it",
    )
    parser.add_argument(
        "--mutant", action="store_true",
        help="certify a seeded mis-partitioned plan instead (must FAIL; "
        "the certifier's own self-test)",
    )
    parser.add_argument(
        "--static-only", action="store_true",
        help="skip the runtime gate; emit the certificate only",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the certificate JSON here (CI artifact)",
    )
    opts = parser.parse_args(args)
    if opts.nodes < 1:
        parser.error("--nodes must be >= 1")
    if opts.density is not None and not 0.0 < opts.density <= 1.0:
        parser.error("--density must be in (0, 1]")

    kills = []
    for entry in opts.faults or []:
        try:
            if not entry.startswith("kill:"):
                raise ValueError("an entry is kill:N:PHASE:L")
            kills.append(parse_kill(entry[len("kill:"):]))
        except ValueError as exc:
            parser.error(f"--faults {entry!r}: {exc}")

    def fail(exc: CertificationError) -> int:
        print("CERTIFICATION FAILED")
        print("  " + str(exc).replace("\n", "\n  "))
        print(f"\nundischarged obligation: {exc.invariant}")
        if opts.out:
            with open(opts.out, "w") as fh:
                json.dump(
                    {
                        "certified": False,
                        "obligation": exc.invariant,
                        "violations": [str(v) for v in exc.violations],
                    },
                    fh,
                    indent=2,
                )
            print(f"written: {opts.out}")
        return 1

    if opts.experiment is not None:
        if kills or opts.mutant:
            parser.error("--experiment cannot combine with --faults/--mutant")
        try:
            cert = certificate_for_experiment(opts.experiment, seed=opts.seed)
        except CertificationError as exc:
            return fail(exc)
        label = f"experiment {opts.experiment}"
        workload = opts.experiment
    else:
        from .allreduce.topology import ButterflyTopology
        from .design.empirical import EmpiricalDensityCurve
        from .verify.plan import build_plans, synthetic_spec

        m = opts.nodes
        degrees = _parse_degrees(parser, opts.degrees, [m])
        if opts.density is not None:
            spec = density_spec(m, n=opts.n, density=opts.density, seed=opts.seed)
        else:
            spec = synthetic_spec(m, n=opts.n, seed=opts.seed)
        rng = np.random.default_rng(opts.seed)
        workload = {
            "m": m, "n": opts.n, "degrees": degrees,
            "in_idx": spec.in_indices, "out_idx": spec.out_indices,
            "values": {r: rng.normal(size=spec.out_indices[r].size) for r in spec.ranks},
        }
        try:
            faults = failure_schedule(kills or None, workload, opts.seed).plan
        except ValueError as exc:
            parser.error(f"--faults: {exc}")
        try:
            topology = ButterflyTopology(degrees, m)
        except ValueError as exc:
            parser.error(str(exc))
        plans = build_plans(topology, spec)
        if opts.mutant:
            plans = mutant_plans(plans)
        curve = EmpiricalDensityCurve.from_partitions(
            spec.out_indices, opts.n, seed=opts.seed
        )
        try:
            cert = certify(
                topology, spec, plans=plans, faults=faults, curve=curve,
                meta={"n": opts.n, "density": opts.density, "seed": opts.seed},
            )
        except CertificationError as exc:
            return fail(exc)
        label = f"m={m} degrees={'x'.join(map(str, degrees))}"

    runtime_violations: list = []
    runtime_checked: dict[str, int] = {}
    if not opts.static_only:
        obs, info = run_traced(
            workload, backend="sim", seed=opts.seed, failure=kills or None
        )
        if kills:
            # The kill gate: every loss inside the static bound, and
            # every value outside the losses exact.
            runtime_violations = [
                Violation("coverage-bound", v) for v in info["bound_violations"]
            ]
            if not info["exact"]:
                runtime_violations.append(Violation(
                    "degraded-exact",
                    "a result differs from the dense reference outside its reported losses",
                ))
            runtime_checked["coverage-bound"] = runtime_checked["degraded-exact"] = info["m"]
        else:
            runtime_violations = check_traffic(cert, info["stats"])
            runtime_checked["traffic-exact"] = len(PHASES) * len(cert.degrees)
        emit_certificate_metrics(obs, cert, runtime_violations, runtime_checked)

    print(f"certified {label}: all static obligations discharged")
    print(f"  fingerprint: {cert.fingerprint[:16]}…")
    for name, count in sorted(cert.obligations.items()):
        if count:
            print(f"  {name:<22} {count:>6} instance(s)")
    print(f"  predicted traffic: {cert.total_bytes} bytes, "
          f"{cert.total_messages} messages")
    for key, cell in sorted(cert.traffic.items()):
        print(f"    {key:<16} {cell['bytes'] + cell['self_bytes']:>10} B  "
              f"{cell['messages'] + cell['self_messages']:>5} msgs")
    if cert.model:
        print("  volume-model cross-check (analytic vs exact message bytes):")
        for row in cert.model:
            print(f"    L{row['layer']} d={row['degree']}: "
                  f"{row['analytic_message_bytes']} vs "
                  f"{row['exact_message_bytes']} (ratio {row['ratio']})")
    if cert.fault_bound is not None:
        worst = sum(len(v) for v in cert.fault_bound.values())
        print(f"  worst-case coverage loss: {worst} (rank, index) pairs "
              f"across {len(cert.fault_bound)} rank(s)")
    if opts.static_only:
        print("  runtime gate: skipped (--static-only)")
    elif runtime_violations:
        print("\nRUNTIME GATE FAILED")
        for v in runtime_violations:
            print(f"  {v}")
    else:
        gate = "coverage within static bound" if kills else (
            "observed traffic matches the certificate exactly"
        )
        print(f"  runtime gate: {gate}")
    if opts.out:
        doc = cert.to_json()
        doc["certified"] = True
        doc["runtime"] = {
            "checked": runtime_checked,
            "violations": [str(v) for v in runtime_violations],
            "ok": not runtime_violations,
        }
        with open(opts.out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"  written: {opts.out}")
    return 1 if runtime_violations else 0


def _lint(args: list[str]) -> int:
    from .verify import all_rules, lint_paths

    if any(a.startswith("-") for a in args):
        print("usage: python -m repro lint [path ...]   (default: the repro package)")
        return 0 if any(a in ("-h", "--help") for a in args) else 2
    try:
        findings = lint_paths(args or None)
    except OSError as exc:
        print(f"lint: cannot read {exc.filename or exc}: {exc.strerror or 'error'}")
        return 2
    for f in findings:
        print(f)
    rules = ", ".join(r.name for r in all_rules())
    if findings:
        print(f"\n{len(findings)} finding(s)  [rules: {rules}]")
        return 1
    print(f"lint clean  [rules: {rules}]")
    return 0


def _trace(args: list[str]) -> int:
    import json

    from .obs import chrome_trace, metrics_json, text_summary, validate_chrome_trace
    from .obs.runner import parse_kill, run_traced

    parser = _runner_parser(
        "trace",
        "run one experiment fully observed; export a Chrome trace "
        "(load it in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--kill", default=None, metavar="N:PHASE:L",
        help="crash node N before its first send at (PHASE, layer L) — "
        "PHASE is config (sim only), down or up; switches the run to "
        "degraded completion and gates the coverage report against the "
        "static worst-case bound",
    )
    parser.add_argument(
        "--out", default="trace.json", help="Chrome-trace output path"
    )
    parser.add_argument(
        "--metrics", default=None, help="also write flat metrics JSON here"
    )
    opts = parser.parse_args(args)

    try:
        kills = [parse_kill(opts.kill)] if opts.kill is not None else None
        obs, info = run_traced(
            opts.experiment, backend=opts.backend, seed=opts.seed, failure=kills
        )
    except ValueError as exc:
        parser.error(f"--kill: {exc}")
    meta = {k: v for k, v in info.items() if k not in ("stats", "report")}
    doc = chrome_trace(obs, meta=meta)
    errors = validate_chrome_trace(doc)
    if errors:
        for e in errors:
            print(f"trace schema violation: {e}")
        return 1
    with open(opts.out, "w") as fh:
        json.dump(doc, fh)
    if opts.metrics:
        with open(opts.metrics, "w") as fh:
            json.dump(metrics_json(obs), fh, indent=2)
    print(text_summary(obs))
    print(f"  exact vs dense reference: {'yes' if info['exact'] else 'NO'}")
    print(f"  trace: {opts.out} ({len(doc['traceEvents'])} events)"
          + (f"   metrics: {opts.metrics}" if opts.metrics else ""))
    if kills:
        print("  " + info["report"].summary().replace("\n", "\n  "))
        if info["bound_violations"]:
            for line in info["bound_violations"]:
                print(f"  coverage-bound violation: {line}")
            return 1
        print("  coverage within the static worst-case bound")
    return 0 if info["exact"] else 1


def _analyze(args: list[str]) -> int:
    import argparse
    import json

    from .obs.analyze import analyze, render_analysis

    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="trace analytics: critical path, queue-wait/straggler "
        "reports, and the per-layer volume goblet",
    )
    parser.add_argument(
        "trace",
        help="a Chrome-trace JSON from `python -m repro trace --out`, or a "
        "flat metrics JSON from `--metrics`",
    )
    opts = parser.parse_args(args)
    try:
        with open(opts.trace) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"analyze: cannot read {opts.trace}: {exc.strerror or exc}")
        return 2
    except json.JSONDecodeError as exc:
        print(f"analyze: {opts.trace} is not valid JSON: {exc}")
        return 2
    try:
        print(render_analysis(analyze(doc)))
    except (TypeError, ValueError) as exc:
        print(f"analyze: {exc}")
        return 2
    return 0


def _monitor(args: list[str]) -> int:
    import json
    import time as _time

    from .obs.runner import run_traced
    from .obs.telemetry import TimeSeriesAggregator

    parser = _runner_parser(
        "monitor",
        "the live telemetry dashboard: run a named experiment "
        "with streaming metric sampling on any backend, or attach to a "
        "running TCP cluster (its nodes buffer recent samples and answer "
        "telemetry-req probes); --once renders a single dashboard and "
        "optionally writes the kylix-telemetry-v1 JSON for CI",
    )
    parser.add_argument(
        "--attach", default=None, metavar="MANIFEST",
        help="attach to a running cluster via its manifest instead of "
        "running an experiment; polls every node's buffered samples",
    )
    parser.add_argument(
        "--interval", type=float, default=None, metavar="SECONDS",
        help="sampling interval for the in-process run (default: 0.0005 "
        "virtual-s on sim, 0.05 wall-s on local/tcp)",
    )
    parser.add_argument(
        "--refresh", type=float, default=1.0, metavar="SECONDS",
        help="attach-mode dashboard refresh period (default: 1.0)",
    )
    parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="attach-mode: stop refreshing after this much wall time",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render one dashboard, write --out if given, exit (CI mode)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the aggregated kylix-telemetry-v1 JSON document here",
    )
    parser.add_argument(
        "--max-rows", type=int, default=24, help="dashboard series rows"
    )
    opts = parser.parse_args(args)
    if opts.interval is not None and opts.interval <= 0:
        parser.error("--interval must be positive")
    if opts.refresh <= 0:
        parser.error("--refresh must be positive")

    agg = TimeSeriesAggregator()
    if opts.attach:
        from .net.cluster import load_manifest, probe

        try:
            manifest = load_manifest(opts.attach)
        except (OSError, ValueError, KeyError) as exc:
            print(f"monitor: cannot load {opts.attach}: {exc}")
            return 2
        # Samples stay buffered on the nodes across polls (and across
        # sessions); dedupe so a re-served sample is ingested once.
        seen: set = set()
        deadline = (
            None if opts.duration is None else _time.monotonic() + opts.duration
        )
        nodes = sorted(manifest["nodes"].values(), key=lambda n: n["rank"])
        while True:
            fresh, unreachable = 0, 0
            for nd in nodes:
                rep = probe(nd["host"], nd["port"], ("telemetry-req",), timeout=5.0)
                if rep is None:
                    unreachable += 1
                    continue
                if not isinstance(rep, tuple) or rep[0] != "telemetry-rep":
                    continue
                for s in rep[2]:
                    key = (s.node, s.seq, s.t)
                    if key in seen:
                        continue
                    seen.add(key)
                    agg.ingest(s)
                    fresh += 1
            if not opts.once and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            print(agg.render(max_rows=opts.max_rows))
            print(
                f"  attached to {len(nodes)} node(s) via {opts.attach} — "
                f"{fresh} new sample(s) this poll"
                + (f", {unreachable} unreachable" if unreachable else "")
            )
            if opts.once:
                break
            if deadline is not None and _time.monotonic() >= deadline:
                break
            _time.sleep(opts.refresh)
    else:
        interval = opts.interval
        if interval is None:
            # Virtual seconds on sim run ~1000x denser than wall seconds.
            interval = 0.0005 if opts.backend == "sim" else 0.05
        obs, info = run_traced(
            opts.experiment,
            backend=opts.backend,
            seed=opts.seed,
            telemetry_interval=interval,
        )
        agg.ingest_observer(obs)
        print(agg.render(max_rows=opts.max_rows))
        print(
            f"  {opts.experiment}@{opts.backend} seed {opts.seed}, "
            f"interval {interval}s — exact: {'yes' if info['exact'] else 'NO'}"
        )
        if not info["exact"]:
            return 1
    if opts.out:
        with open(opts.out, "w") as fh:
            json.dump(agg.to_json(), fh, indent=2, sort_keys=True)
        print(f"  telemetry: {opts.out} ({agg.samples} sample(s))")
    return 0


def _explore(args: list[str]) -> int:
    import argparse
    import json

    from .mc import KylixModel, UnreadNackModel, explore

    parser = argparse.ArgumentParser(
        prog="python -m repro explore",
        description="systematically execute the protocol across event "
        "schedules (DFS + partial-order reduction), checking invariants, "
        "result correctness, and deadlock-freedom in every explored state; "
        "a violation emits a minimized, replayable counterexample",
    )
    parser.add_argument("--nodes", type=int, default=4, help="cluster size")
    parser.add_argument(
        "--degrees", default=None,
        help="comma-separated degree stack (default: single layer [nodes])",
    )
    parser.add_argument(
        "--bound", type=int, default=1000,
        help="max schedules to execute (default: 1000)",
    )
    parser.add_argument(
        "--depth", type=int, default=None,
        help="max engine step at which new branches may open",
    )
    parser.add_argument(
        "--preemptions", type=int, default=None,
        help="max divergences from default order per schedule",
    )
    parser.add_argument(
        "--faults", default="none", choices=["none", "drop"],
        help="also explore under a seeded message-drop FaultPlan "
        "(NACK/retry and timeout-vs-delivery races become branch points)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload/fault seed")
    parser.add_argument(
        "--mutant", action="store_true",
        help="check the known-buggy unread-NACK model instead (must FAIL; "
        "the checker's own self-test)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the counterexample JSON here on violation",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the failing run's Chrome trace here on violation",
    )
    opts = parser.parse_args(args)
    if opts.nodes < 2:
        parser.error("--nodes must be >= 2")

    if opts.mutant:
        model = UnreadNackModel(buggy=True, seed=opts.seed)
    else:
        degrees = tuple(_parse_degrees(parser, opts.degrees, [opts.nodes]))
        faults = None
        if opts.faults == "drop":
            from .faults import FaultPlan, LinkFault

            faults = FaultPlan(seed=opts.seed).with_rule(LinkFault(drop=0.2))
        model = KylixModel(
            nodes=opts.nodes, degrees=degrees, seed=opts.seed, faults=faults
        )

    report = explore(
        model,
        bound=opts.bound,
        depth=opts.depth,
        preemptions=opts.preemptions,
    )
    print(f"model: {json.dumps(report.model, sort_keys=True)}")
    coverage = "exhaustive" if report.complete else (
        f"bounded (truncated by {report.truncated_by})"
    )
    print(
        f"explored {report.schedules} schedule(s), "
        f"{report.branch_points} branch point(s), "
        f"longest run {report.max_steps} events — {coverage}"
    )
    if report.races:
        print(f"{len(report.races)} distinct merge-order race(s) "
              "(schedule-dependent arrival order; benign for commutative ops)")
    if report.ok:
        print("all explored schedules satisfy every checked property")
        return 0
    ce = report.counterexamples[0]
    print(f"\nVIOLATION [{ce.violation.kind}] {ce.violation.detail}")
    for w in ce.violation.waiting:
        print(f"  stuck: {json.dumps(w, sort_keys=True)}")
    print(f"  counterexample: {len(ce.schedule)} divergence(s), "
          f"{ce.events} events — schedule {list(map(list, ce.schedule))}")
    print("  replay: Scheduler.from_schedule(schedule) or Model.execute(schedule)")
    if opts.out:
        ce.to_json(opts.out)
        print(f"  written: {opts.out}")
    if opts.trace_out:
        with open(opts.trace_out, "w") as fh:
            json.dump(ce.chrome_trace(), fh)
        print(f"  trace: {opts.trace_out}")
    return 1


def _node(args: list[str]) -> int:
    import argparse

    from .net.cluster import serve_node

    parser = argparse.ArgumentParser(
        prog="python -m repro node",
        description="one TCP cluster node server: binds a listener, announces "
        "a KYLIX-NODE READY line on stdout, then serves driver sessions "
        "until a shutdown frame (or SIGTERM) arrives",
    )
    parser.add_argument("--rank", type=int, required=True, help="this node's rank")
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (default: 0 = ephemeral)"
    )
    parser.add_argument(
        "--once", action="store_true",
        help="exit after serving a single session (test harness use)",
    )
    opts = parser.parse_args(args)
    if opts.rank < 0:
        parser.error("--rank must be >= 0")
    return serve_node(opts.rank, opts.host, opts.port, once=opts.once)


def _run_cluster(args: list[str]) -> int:
    import argparse

    from .net.cluster import (
        DEFAULT_MANIFEST,
        attach_cluster,
        launch_cluster,
        stop_cluster,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro run-cluster",
        description="spawn a loopback cluster of node processes (or attach "
        "to / stop an existing one) and write the cluster_procs.json "
        "manifest the experiment driver consumes",
    )
    parser.add_argument(
        "--size", type=int, default=None, help="number of nodes to spawn"
    )
    parser.add_argument(
        "--attach", default=None, metavar="HOST:PORT,...",
        help="attach to already-running nodes instead of spawning",
    )
    parser.add_argument(
        "--stop", action="store_true", help="tear the manifested cluster down"
    )
    parser.add_argument(
        "--manifest", default=DEFAULT_MANIFEST,
        help=f"manifest path (default: {DEFAULT_MANIFEST})",
    )
    parser.add_argument(
        "--log-dir", default=".kylix-cluster",
        help="node log directory (default: .kylix-cluster)",
    )
    opts = parser.parse_args(args)
    modes = sum(bool(x) for x in (opts.size, opts.attach, opts.stop))
    if modes != 1:
        parser.error("choose exactly one of --size, --attach, --stop")
    if opts.stop:
        try:
            n = stop_cluster(opts.manifest)
        except OSError as exc:
            print(f"run-cluster: cannot read {opts.manifest}: {exc}")
            return 2
        print(f"stopped {n} node(s); removed {opts.manifest}")
        return 0
    try:
        if opts.attach:
            manifest = attach_cluster(
                [e.strip() for e in opts.attach.split(",") if e.strip()],
                manifest_path=opts.manifest,
            )
        else:
            manifest = launch_cluster(
                opts.size, log_dir=opts.log_dir, manifest_path=opts.manifest
            )
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"run-cluster: {exc}")
        return 1
    nodes = manifest["nodes"]
    print(f"cluster of {len(nodes)} node(s) ready — manifest: {opts.manifest}")
    for name in sorted(nodes, key=lambda k: nodes[k]["rank"]):
        n = nodes[name]
        print(f"  {name}: rank {n['rank']}  {n['host']}:{n['port']}"
              f"  pid {n['pid']}" + (f"  log {n['log']}" if n.get("log") else ""))
    return 0


def _drive_cluster(args: list[str]) -> int:
    import json

    from .net.cluster import DEFAULT_MANIFEST, FAILURE_MODES, drive_cluster, load_manifest
    from .obs import chrome_trace, validate_chrome_trace

    parser = _runner_parser(
        "drive-cluster",
        "drive a launched TCP cluster through a named workload (its node "
        "count must match the manifest) under a failure mode; exactness is "
        "checked against the dense reference and degraded coverage is gated "
        "against the static worst-case-loss bound",
        backend=False,
    )
    parser.add_argument(
        "--failure-mode", default="none", choices=list(FAILURE_MODES),
        help="deterministic fault schedule to run under (default: none)",
    )
    parser.add_argument(
        "--rounds", type=int, default=1, help="reduction rounds (default: 1)"
    )
    parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="keep cycling rounds until this much wall time has passed",
    )
    parser.add_argument(
        "--concurrency", type=int, default=1,
        help="rounds batched per session wave (default: 1)",
    )
    parser.add_argument(
        "--manifest", default=DEFAULT_MANIFEST,
        help=f"manifest path (default: {DEFAULT_MANIFEST})",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="export the merged Chrome trace of the driven run here",
    )
    parser.add_argument(
        "--telemetry-interval", type=float, default=None, metavar="SECONDS",
        help="sample live telemetry: every node samples its metrics on "
        "this interval, the samples come home with each wave's results, "
        "and the nodes buffer them for `python -m repro monitor --attach`",
    )
    parser.add_argument(
        "--telemetry-out", default=None, metavar="FILE",
        help="write the driver-aggregated kylix-telemetry-v1 JSON here "
        "(implies --telemetry-interval 0.05 if not set)",
    )
    opts = parser.parse_args(args)
    if opts.telemetry_interval is not None and opts.telemetry_interval <= 0:
        parser.error("--telemetry-interval must be positive")
    if opts.telemetry_out and opts.telemetry_interval is None:
        opts.telemetry_interval = 0.05
    try:
        manifest = load_manifest(opts.manifest)
    except (OSError, ValueError, KeyError) as exc:
        print(f"drive-cluster: cannot load {opts.manifest}: {exc}")
        return 2
    try:
        outcome = drive_cluster(
            manifest,
            opts.experiment,
            rounds=opts.rounds,
            duration=opts.duration,
            concurrency=opts.concurrency,
            failure_mode=opts.failure_mode,
            seed=opts.seed,
            telemetry_interval=opts.telemetry_interval,
        )
    except (RuntimeError, ValueError) as exc:
        print(f"drive-cluster: {exc}")
        return 1
    print(
        f"{outcome['workload']} on {manifest['cluster']['size']} nodes — "
        f"mode {outcome['failure_mode']}, seed {outcome['seed']}: "
        f"{outcome['rounds_run']} round(s) in {outcome['waves']} wave(s), "
        f"{outcome['elapsed']:.2f}s"
    )
    print(
        f"  exact: {outcome['exact_rounds']}/{outcome['checked_rounds']} "
        "checked rank-rounds"
    )
    for err in outcome["errors"]:
        print(f"  note: {err}")
    ok = outcome["checked_rounds"] == outcome["exact_rounds"]
    cc = outcome["config_cache"]
    if cc["hits"] + cc["misses"] > 0:
        print(
            f"  config cache: {cc['hits']} hit(s), {cc['misses']} miss(es) "
            f"(hit rate {cc['hit_rate']:.0%})"
        )
        if (
            opts.concurrency > 1
            and outcome["rounds_run"] > 1
            and opts.failure_mode == "none"
            and cc["hits"] == 0
        ):
            print("  config-cache gate: batched rounds produced zero cached-"
                  "config hits — the round-0 plan is not being reused")
            ok = False
    if "coverage" in outcome:
        print("  " + outcome["coverage"].replace("\n", "\n  "))
        if outcome["bound_ok"]:
            print("  coverage within the static worst-case bound")
        else:
            for v in outcome["bound_violations"]:
                print(f"  coverage-bound violation: {v}")
            ok = False
        if outcome["dead_ranks"]:
            print(f"  dead ranks: {sorted(outcome['dead_ranks'])}")
    else:
        # Lossless modes: every rank-round must come back.
        if outcome["errors"] or outcome["dead_ranks"]:
            ok = False
        if outcome["checked_rounds"] == 0:
            print("  no results came back from any node")
            ok = False
    agg = outcome.get("aggregator")
    if agg is not None:
        print(
            f"  telemetry: {agg.samples} sample(s) from "
            f"{len(agg.nodes)} node(s), "
            f"{len(agg.points) + len(agg.hist_points)} series"
        )
        if opts.telemetry_interval and agg.samples == 0:
            print("  telemetry gate: no samples arrived from any node")
            ok = False
        if opts.telemetry_out:
            with open(opts.telemetry_out, "w") as fh:
                json.dump(agg.to_json(), fh, indent=2, sort_keys=True)
            print(f"  telemetry: {opts.telemetry_out}")
    if outcome.get("postmortem"):
        print(f"  postmortem: {outcome['postmortem']}")
    if opts.trace_out:
        doc = chrome_trace(outcome["observer"], meta={"workload": opts.experiment,
                                                      "failure_mode": opts.failure_mode,
                                                      "seed": opts.seed})
        errors = validate_chrome_trace(doc)
        if errors:
            for e in errors:
                print(f"  trace schema violation: {e}")
            ok = False
        else:
            with open(opts.trace_out, "w") as fh:
                json.dump(doc, fh)
            print(f"  trace: {opts.trace_out} ({len(doc['traceEvents'])} events)")
    return 0 if ok else 1


def _service_workload(m: int, n: int, seed: int):
    """One fixed sparsity pattern for the service CLI commands."""
    from .allreduce import ReduceSpec

    rng = np.random.default_rng(seed)
    idx = {
        r: np.unique(
            np.concatenate([rng.choice(n, 40), np.arange(r, n, m, dtype=np.int64)])
        ).astype(np.int64)
        for r in range(m)
    }
    return ReduceSpec(in_indices=idx, out_indices=idx), idx, rng


def _serve(args: list[str]) -> int:
    import argparse

    from .allreduce import dense_reduce
    from .cluster import Cluster
    from .service import ReduceService, ServiceOverloaded

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="stand up the allreduce service and multiplex named "
        "reduce streams over one backend: each stream binds its own "
        "sparsity pattern, submissions interleave round-robin, and every "
        "result is checked against the dense reference",
    )
    parser.add_argument(
        "--backend", default="sim", choices=["sim", "local", "tcp"],
        help="execution backend (default: sim)",
    )
    parser.add_argument("--nodes", type=int, default=8, help="cluster size")
    parser.add_argument(
        "--degrees", default=None,
        help="comma-separated degree stack (default: 4,2 for 8 nodes)",
    )
    parser.add_argument(
        "--streams", type=int, default=3, help="named streams to open (default: 3)"
    )
    parser.add_argument(
        "--reduces", type=int, default=9,
        help="total reduces, submitted round-robin across streams (default: 9)",
    )
    parser.add_argument(
        "--slots", type=int, default=4, help="sim: protocol instances per wave"
    )
    parser.add_argument(
        "--queue-depth", type=int, default=16, help="admission-queue bound"
    )
    parser.add_argument("--n", type=int, default=600, help="feature count")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    opts = parser.parse_args(args)
    if opts.nodes < 2 or opts.streams < 1 or opts.reduces < 1:
        parser.error("--nodes >= 2, --streams >= 1, --reduces >= 1 required")
    degrees = _parse_degrees(
        parser, opts.degrees, [4, 2] if opts.nodes == 8 else [opts.nodes]
    )

    m = opts.nodes
    kwargs: dict = dict(
        degrees=degrees, slots=opts.slots, queue_depth=opts.queue_depth
    )
    if opts.backend == "sim":
        kwargs["cluster"] = Cluster(m)
    with ReduceService(opts.backend, **kwargs) as svc:
        specs, futures = {}, []
        for k in range(opts.streams):
            spec, idx, _ = _service_workload(m, opts.n, opts.seed + k)
            svc.open_stream(f"stream-{k}", spec)
            specs[f"stream-{k}"] = (spec, idx)
        rng = np.random.default_rng(opts.seed + 1000)
        for j in range(opts.reduces):
            name = f"stream-{j % opts.streams}"
            spec, idx = specs[name]
            values = {r: rng.normal(size=idx[r].size) for r in range(m)}
            try:
                fut = svc.submit(name, values)
            except ServiceOverloaded:
                svc.drain()  # backpressure: run the queue, then resubmit
                fut = svc.submit(name, values)
            futures.append((name, values, fut))
        bad = 0
        for name, values, fut in futures:
            out = fut.result()
            ref = dense_reduce(specs[name][0], values)
            if not all(np.allclose(out[r], ref[r]) for r in range(m)):
                bad += 1
                print(f"  {name}: result DIVERGED from dense reference")
        cache = dict(svc.cache.stats)
        stats = dict(svc.stats)
        per_stream = {s.name: s.completed for s in svc.streams.values()}
    print(
        f"service on {m} {opts.backend} node(s), degrees "
        f"{'x'.join(map(str, degrees))}: {stats['completed']} reduce(s) "
        f"across {opts.streams} stream(s)"
    )
    print("  per stream: "
          + ", ".join(f"{k}={v}" for k, v in sorted(per_stream.items())))
    print(f"  config cache: {cache['hits']} hit(s), {cache['misses']} miss(es), "
          f"{cache['invalidations']} invalidation(s)")
    print(f"  admission: {stats['submitted']} submitted, "
          f"{stats['rejected']} rejected")
    print(f"  exact: {'yes' if not bad else f'{bad} DIVERGED'}")
    return 0 if not bad else 1


def _drive_service(args: list[str]) -> int:
    import argparse
    import json
    import time as _time

    parser = argparse.ArgumentParser(
        prog="python -m repro drive-service",
        description="the service-throughput benchmark: a same-pattern "
        "reduce stream through the cached + pipelined service against "
        "the configure-every-time loop; on the sim backend the speedup "
        "and cache hit-count gates are enforced",
    )
    parser.add_argument(
        "--backend", default="sim", choices=["sim", "local", "tcp"],
        help="sim runs the gated benchmark; local/tcp run a wall-clock smoke",
    )
    parser.add_argument("--nodes", type=int, default=64, help="cluster size")
    parser.add_argument(
        "--degrees", default=None,
        help="comma-separated degree stack (default: 4,4,4 for 64 nodes)",
    )
    parser.add_argument(
        "--reduces", type=int, default=100, help="same-pattern reduces (default: 100)"
    )
    parser.add_argument("--n", type=int, default=2000, help="feature count")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="sim gate: required speedup vs sequential (default: 2.0)",
    )
    parser.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the benchmark record here (CI artifact)",
    )
    opts = parser.parse_args(args)
    if opts.nodes < 2 or opts.reduces < 2:
        parser.error("--nodes >= 2 and --reduces >= 2 required")
    degrees = _parse_degrees(
        parser, opts.degrees, [4, 4, 4] if opts.nodes == 64 else [opts.nodes]
    )

    if opts.backend == "sim":
        from .service import run_service_benchmark

        rec = run_service_benchmark(
            m=opts.nodes, degrees=degrees, reduces=opts.reduces,
            n=opts.n, seed=opts.seed,
        )
        print(
            f"{rec['reduces']} same-pattern reduces on {rec['m']} sim nodes, "
            f"degrees {'x'.join(map(str, rec['degrees']))}:"
        )
        print(f"  sequential (configure+reduce each time): "
              f"{rec['sequential_sim_seconds']:.4f} sim-s")
        print(f"  service (cached + pipelined):            "
              f"{rec['service_sim_seconds']:.4f} sim-s "
              f"({rec['reduces_per_sec']:.0f} reduces/sec)")
        print(f"  speedup: {rec['speedup']:.2f}x   cache: {rec['cache_hits']} "
              f"hit(s) / {rec['cache_misses']} miss(es)   "
              f"exact: {'yes' if rec['exact'] else 'NO'}")
        ok = (
            rec["exact"]
            and rec["cache_hits"] == rec["reduces"] - 1
            and rec["cache_misses"] == 1
            and rec["speedup"] >= opts.min_speedup
        )
        if not ok:
            print(f"  GATE FAILED (need exact, hits == reduces-1, "
                  f"speedup >= {opts.min_speedup})")
    else:
        from .allreduce import dense_reduce
        from .service import ReduceService

        spec, idx, rng = _service_workload(opts.nodes, opts.n, opts.seed)
        rounds = [
            {r: rng.normal(size=idx[r].size) for r in range(opts.nodes)}
            for _ in range(opts.reduces)
        ]
        t0 = _time.monotonic()
        with ReduceService(opts.backend, degrees=degrees) as svc:
            stream = svc.open_stream("drive", spec)
            results = svc.submit_pipelined(stream, rounds)
            cache = dict(svc.cache.stats)
        wall = _time.monotonic() - t0
        refs = [dense_reduce(spec, v) for v in rounds]
        ok = all(
            all(np.allclose(results[k][r], refs[k][r]) for r in range(opts.nodes))
            for k in range(opts.reduces)
        )
        rec = {
            "m": opts.nodes, "degrees": degrees, "backend": opts.backend,
            "reduces": opts.reduces, "seed": opts.seed, "exact": bool(ok),
            "wall_seconds": wall,
            "reduces_per_sec": opts.reduces / wall if wall > 0 else None,
            "cache_hits": cache["hits"], "cache_misses": cache["misses"],
        }
        print(
            f"{opts.reduces} same-pattern reduces on {opts.nodes} "
            f"{opts.backend} node(s): {wall:.2f}s wall "
            f"({rec['reduces_per_sec']:.1f} reduces/sec), "
            f"exact: {'yes' if ok else 'NO'}"
        )
    if opts.json:
        with open(opts.json, "w") as fh:
            json.dump(rec, fh, indent=2)
        print(f"  written: {opts.json}")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(_usage())
        return 0
    cmd, rest = argv[0], argv[1:]
    if cmd == "experiments":
        from .bench.run_all import main as run_all_main

        return run_all_main(rest)
    if cmd == "demo":
        return _demo()
    if cmd == "info":
        return _info()
    if cmd == "verify":
        return _verify(rest)
    if cmd == "certify":
        return _certify(rest)
    if cmd == "lint":
        return _lint(rest)
    if cmd == "trace":
        return _trace(rest)
    if cmd == "analyze":
        return _analyze(rest)
    if cmd == "monitor":
        return _monitor(rest)
    if cmd == "explore":
        return _explore(rest)
    if cmd == "node":
        return _node(rest)
    if cmd == "run-cluster":
        return _run_cluster(rest)
    if cmd == "drive-cluster":
        return _drive_cluster(rest)
    if cmd == "serve":
        return _serve(rest)
    if cmd == "drive-service":
        return _drive_service(rest)
    print(f"unknown command {cmd!r}\n")
    print(_usage())
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
