"""Command-line entry point: ``python -m repro <command>``.

The :data:`COMMANDS` table is the single source of truth for
the CLI surface — ``main`` dispatches through it, ``--help`` output
renders it, the unknown-command error lists it, and the CLI table in
``docs/observability.md`` / the README is checked against it by the test
suite.  Keep the three in sync by editing the table, not prose.

This layer only parses and prints: every command is handed the parser
:func:`_parser` builds for it, runs the subsystem it names, and takes
its exit status from the verdict that subsystem returns.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["COMMANDS", "main"]


class Command(NamedTuple):
    usage: str  # the arguments, as ``--help`` shows them after the name
    help: str  # one line
    run: Callable[..., int]  # (parser, argv after the name) -> exit status
    options: dict  # the shared arguments :func:`_parser` adds


#: Every command, in ``--help`` order (the order they are defined below),
#: mirrored in the docs (see module doc).
COMMANDS: dict[str, Command] = {}


def _command(name: str, usage: str, help: str, **options):
    """Register the decorated function as command ``name``: it is called
    with the parser :func:`_parser` builds from ``options`` (its
    docstring is the parser's description) and the arguments to parse."""
    def register(run: Callable[..., int]):
        COMMANDS[name] = Command(usage, help, run, options)
        return run
    return register


def _usage() -> str:
    lines = ["usage: python -m repro <command> [args]", "", "commands:"]
    for cmd, command in COMMANDS.items():
        left = f"{cmd} {command.usage}".strip()
        lines.append(f"  {left:<52} {command.help}")
    lines.append("")
    lines.append("see docs/observability.md for the trace/analyze/monitor workflow;")
    lines.append("wall-clock speed is measured by `python3 -m perfbench` (perfbench/README.md)")
    return "\n".join(lines)


def _int_list(text: str) -> list[int]:
    """A comma-separated flag value (``--degrees D,D``, ``--stacks``)."""
    import argparse

    try:
        return [int(d) for d in text.split(",") if d]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated ints, got {text!r}"
        ) from None


def _parser(
    cmd: str,
    description: str,
    *,
    workload: bool = False,
    backend: bool = False,
    nodes: int | None = None,
    degrees: str | None = None,
    n: int | None = None,
    manifest: bool = False,
    seed: bool = True,
):
    """The parser of ``python -m repro CMD``, with the arguments commands
    share: the runner's named ``workload`` (positional) and ``--backend``,
    ``--nodes`` and ``--n`` (their defaults), ``--degrees`` (the help for
    its default), a cluster's ``--manifest`` and ``--seed``."""
    import argparse

    parser = argparse.ArgumentParser(prog=f"python -m repro {cmd}", description=description)
    if workload:
        from .obs.runner import EXPERIMENTS

        parser.add_argument(
            "experiment", nargs="?", default="quickstart", choices=sorted(EXPERIMENTS),
            help="named workload to run (default: quickstart)",
        )
    if backend:
        from .obs.runner import BACKENDS

        parser.add_argument(
            "--backend", default="sim", choices=list(BACKENDS),
            help="simulated cluster, forked processes over pipes, or loopback TCP "
            "(default: sim)",
        )
    if nodes is not None:
        parser.add_argument("--nodes", type=int, default=nodes, help="cluster size")
    if degrees is not None:
        parser.add_argument(
            "--degrees", type=_int_list, default=None,
            help=f"comma-separated degree stack (default: {degrees})",
        )
    if n is not None:
        parser.add_argument("--n", type=int, default=n, help="feature count")
    if manifest:
        from .net.cluster import DEFAULT_MANIFEST

        parser.add_argument(
            "--manifest", default=DEFAULT_MANIFEST,
            help=f"manifest path (default: {DEFAULT_MANIFEST})",
        )
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="workload (and fault) seed")
    return parser


def _load_manifest(cmd: str, path: str):
    """A cluster manifest, or None once the reason it cannot load is printed."""
    from .net.cluster import load_manifest

    try:
        return load_manifest(path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"{cmd}: cannot load {path}: {exc}")
        return None


def _write_json(path: str, doc, **options) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, **options)


def _write_trace(obs, meta: dict, path: str) -> int | None:
    """Export ``obs`` as a Chrome trace to ``path`` if it validates;
    returns its event count, or None once the violations are printed."""
    from .obs import chrome_trace, validate_chrome_trace

    doc = chrome_trace(obs, meta=meta)
    errors = validate_chrome_trace(doc)
    for e in errors:
        print(f"  trace schema violation: {e}")
    if errors:
        return None
    _write_json(path, doc)
    return len(doc["traceEvents"])


def _write_telemetry(agg, path: str) -> None:

    _write_json(path, agg.to_json(), indent=2, sort_keys=True)
    print(f"  telemetry: {path} ({agg.samples} sample(s))")


def _print_coverage(report, bound_violations: list) -> None:
    """A degraded run's coverage report and its static-bound gate."""
    print("  " + report.summary().replace("\n", "\n  "))
    for line in bound_violations:
        print(f"  coverage-bound violation: {line}")
    if not bound_violations:
        print("  coverage within the static worst-case bound")


@_command(
    "experiments",
    "[names...]",
    "regenerate the paper's tables/figures (repro.bench.experiments)",
    seed=False,
)
def _experiments(parser, args: list[str]) -> int:
    """Regenerate the paper's tables and figures as text; every workload
    is seeded, so the output is what EXPERIMENTS.md records."""
    import time

    from .bench.experiments import FIGURES

    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"figures to regenerate (default: all of {' '.join(FIGURES)})",
    )
    parser.add_argument(
        "--json", default=None, metavar="FILE", help="also write the raw data here"
    )
    opts = parser.parse_intermixed_args(args)
    unknown = [name for name in opts.names if name not in FIGURES]
    if unknown:
        parser.error(f"unknown experiments {unknown}; choose from {list(FIGURES)}")
    collected = {}
    for name in opts.names or FIGURES:
        t0 = time.time()
        results = FIGURES[name]()
        for result in results:
            print(result.table())
        collected[name] = [{"title": r.title, "rows": r.rows} for r in results]
        print(f"\n[{name} regenerated in {time.time() - t0:.1f}s wall]\n")
    if opts.json:
        _write_json(opts.json, collected, indent=1)
        print(f"raw experiment data written to {opts.json}")
    return 0


@_command("demo", "", "a 30-second tour: one sparse allreduce with a traffic report")
def _demo(parser, args: list[str]) -> int:
    from .bench.reporting import format_bytes, format_seconds
    from .obs import analyze
    from .obs.analyze import render_critical_path
    from .obs.runner import run_traced

    obs, info = run_traced("demo", backend="sim")
    print(f"sparse allreduce on {info['m']} simulated nodes, {info['n']} features")
    print(f"  config: {format_seconds(info['config_seconds'])}   "
          f"reduce: {format_seconds(info['reduce_seconds'])}   "
          f"exact: {'yes' if info['exact'] else 'NO'}")
    down = info["stats"].bytes_by_layer("reduce_down")
    print("  reduce-down volume by layer (the Kylix shape): "
          + ", ".join(f"L{k}={format_bytes(v)}" for k, v in down.items()))
    trace = analyze(obs)
    print(render_critical_path(trace.critical_path()))
    sr = trace.straggler_report()
    print("straggler: " + ("none" if sr.straggler is None else f"node {sr.straggler} ({sr.reason})"))
    return 0 if info["exact"] else 1


@_command("info", "", "version, calibration constants, reproduced-results summary")
def _info(parser, args: list[str]) -> int:
    from . import __version__
    from .bench import INCAST_FACTOR, KYLIX_COMPUTE_RATE, PAPER, SERVICE_SIGMA

    print(f"repro {__version__} — Kylix (ICPP 2014) reproduction")
    print(f"  paper targets: Twitter degrees {PAPER['twitter']['optimal_degrees']}, "
          f"Yahoo {PAPER['yahoo']['optimal_degrees']}")
    print(f"  calibration: service/latency sigma {SERVICE_SIGMA}, "
          f"incast factor {INCAST_FACTOR}, compute {KYLIX_COMPUTE_RATE:.0e} B/s")
    print("  see EXPERIMENTS.md for the full paper-vs-measured table")
    return 0


@_command(
    "verify",
    "[--stacks 8,16,64] [--replication S]",
    "statically check every protocol invariant; exit 1 on violation",
    n=512,
)
def _verify(parser, args: list[str]) -> int:
    """Statically check Kylix protocol invariants."""
    from .verify import format_report, verify_sizes

    parser.add_argument(
        "--stacks", type=_int_list, default=[8, 16, 64],
        help="comma-separated cluster sizes to sweep (default: 8,16,64)",
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=None,
        metavar="S",
        help="treat each size as S-way replicated (checks the replica-group "
        "structure and sweeps the logical m/S stacks)",
    )
    opts = parser.parse_args(args)
    sizes = opts.stacks
    if not sizes or any(s < 1 for s in sizes):
        parser.error(f"--stacks needs at least one positive size, got {sizes}")
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


@_command(
    "certify",
    "[--nodes N] [--degrees D,D] [--density RHO] [--faults kill:V:P:L] [--out FILE]",
    "prove plan coverage/conservation and gate traffic against the certificate",
    nodes=8, degrees="single layer [nodes]", n=2048,
)
def _certify(parser, args: list[str]) -> int:
    """Statically prove a plan's coverage/conservation (abstract
    interpretation over index-interval lattices), predict its exact
    per-(phase, layer) traffic, then gate a simulated run against the
    certificate."""
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

    parser.add_argument(
        "--density", type=float, default=None, metavar="RHO",
        help="per-partition extra density in (0,1] for the synthetic "
        "workload (default: the verify sweep's zipf workload)",
    )
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
            _write_json(opts.out, {
                "certified": False,
                "obligation": exc.invariant,
                "violations": [str(v) for v in exc.violations],
            }, indent=2)
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
        degrees = opts.degrees or [m]
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
        _write_json(opts.out, doc, indent=2)
        print(f"  written: {opts.out}")
    return 1 if runtime_violations else 0


@_command("lint", "[paths...]", "run the repo-specific AST lint; exit 1 on findings", seed=False)
def _lint(parser, args: list[str]) -> int:
    """Run the repo-specific AST lint."""
    from .verify import all_rules, lint_paths

    parser.add_argument(
        "paths", nargs="*", help="files or directories (default: the repro package)"
    )
    opts = parser.parse_args(args)
    try:
        findings = lint_paths(opts.paths or None)
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


@_command(
    "trace",
    "[experiment] [--backend sim|local|tcp] [--kill N:PHASE:L] [--out FILE]",
    "run a named experiment observed; export a Chrome-trace JSON",
    workload=True, backend=True,
)
def _trace(parser, args: list[str]) -> int:
    """Run one experiment fully observed; export a Chrome trace (load it
    in Perfetto or chrome://tracing)."""
    from .obs import metrics_json, text_summary
    from .obs.runner import parse_kill, run_traced

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
    events = _write_trace(obs, meta, opts.out)
    if events is None:
        return 1
    if opts.metrics:
        _write_json(opts.metrics, metrics_json(obs), indent=2)
    print(text_summary(obs))
    print(f"  exact vs dense reference: {'yes' if info['exact'] else 'NO'}")
    print(f"  trace: {opts.out} ({events} events)"
          + (f"   metrics: {opts.metrics}" if opts.metrics else ""))
    if kills:
        _print_coverage(info["report"], info["bound_violations"])
    return 0 if info["exact"] and not info.get("bound_violations") else 1


@_command(
    "analyze",
    "TRACE.json",
    "critical path, straggler/queue-wait and goblet reports for a trace",
    seed=False,
)
def _analyze(parser, args: list[str]) -> int:
    """Trace analytics: critical path, queue-wait/straggler reports, and
    the per-layer volume goblet."""
    from .obs.analyze import analyze, render_analysis

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


@_command(
    "monitor",
    "[experiment] [--backend sim|local|tcp] [--attach MANIFEST] [--once] [--out FILE]",
    "live telemetry dashboard: run an experiment sampled, or attach to a cluster",
    workload=True, backend=True,
)
def _monitor(parser, args: list[str]) -> int:
    """The live telemetry dashboard: run a named experiment with
    streaming metric sampling on any backend, or attach to a running TCP
    cluster (its nodes buffer recent samples and answer telemetry-req
    probes); --once renders a single dashboard and optionally writes the
    kylix-telemetry-v1 JSON for CI."""
    import time as _time

    from .obs.runner import run_traced
    from .obs.telemetry import TimeSeriesAggregator

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
        from .net.cluster import probe

        manifest = _load_manifest("monitor", opts.attach)
        if manifest is None:
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
        _write_telemetry(agg, opts.out)
    return 0


@_command(
    "explore",
    "[--nodes N] [--degrees D,D] [--bound K] [--faults none|drop]",
    "model-check the protocol across event schedules; exit 1 on violation",
    nodes=4, degrees="single layer [nodes]",
)
def _explore(parser, args: list[str]) -> int:
    """Systematically execute the protocol across event schedules (DFS +
    partial-order reduction), checking invariants, result correctness,
    and deadlock-freedom in every explored state; a violation emits a
    minimized, replayable counterexample."""
    from .mc import KylixModel, UnreadNackModel, explore

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
        faults = None
        if opts.faults == "drop":
            from .faults import FaultPlan, LinkFault

            faults = FaultPlan(seed=opts.seed).with_rule(LinkFault(drop=0.2))
        model = KylixModel(
            nodes=opts.nodes, degrees=tuple(opts.degrees or [opts.nodes]),
            seed=opts.seed, faults=faults,
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
        _write_json(opts.trace_out, ce.chrome_trace())
        print(f"  trace: {opts.trace_out}")
    return 1


@_command(
    "node",
    "--rank R [--host H] [--port P]",
    "run one TCP cluster node server (announces READY, serves sessions)",
    seed=False,
)
def _node(parser, args: list[str]) -> int:
    """One TCP cluster node server: binds a listener, announces a
    KYLIX-NODE READY line on stdout, then serves driver sessions until a
    shutdown frame (or SIGTERM) arrives."""
    from .net.cluster import serve_node

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


@_command(
    "run-cluster",
    "--size N [--attach host:port,...] [--stop] [--manifest FILE]",
    "spawn a loopback node cluster (or attach/stop one); write the manifest",
    seed=False, manifest=True,
)
def _run_cluster(parser, args: list[str]) -> int:
    """Spawn a loopback cluster of node processes (or attach to / stop
    an existing one) and write the cluster_procs.json manifest the
    experiment driver consumes."""
    from .net.cluster import attach_cluster, launch_cluster, stop_cluster

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


@_command(
    "drive-cluster",
    "[workload] [--failure-mode MODE] [--rounds K] [--manifest FILE]",
    "drive a launched cluster through a workload under a failure mode",
    workload=True, manifest=True,
)
def _drive_cluster(parser, args: list[str]) -> int:
    """Drive a launched TCP cluster through a named workload (its node
    count must match the manifest) under a failure mode; exactness is
    checked against the dense reference and degraded coverage is gated
    against the static worst-case-loss bound."""
    from .net.cluster import FAILURE_MODES, drive_cluster

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
    manifest = _load_manifest("drive-cluster", opts.manifest)
    if manifest is None:
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
    cc = outcome["config_cache"]
    if cc["hits"] + cc["misses"] > 0:
        print(
            f"  config cache: {cc['hits']} hit(s), {cc['misses']} miss(es) "
            f"(hit rate {cc['hit_rate']:.0%})"
        )
    if outcome["report"] is not None:
        _print_coverage(outcome["report"], outcome["bound_violations"])
    if outcome["dead_ranks"]:
        print(f"  dead ranks: {sorted(outcome['dead_ranks'])}")
    agg = outcome.get("aggregator")
    if agg is not None:
        print(
            f"  telemetry: {agg.samples} sample(s) from "
            f"{len(agg.nodes)} node(s), "
            f"{len(agg.points) + len(agg.hist_points)} series"
        )
        if opts.telemetry_out:
            _write_telemetry(agg, opts.telemetry_out)
    if outcome.get("postmortem"):
        print(f"  postmortem: {outcome['postmortem']}")
    exported = True
    if opts.trace_out:
        meta = {"workload": opts.experiment, "failure_mode": opts.failure_mode,
                "seed": opts.seed}
        events = _write_trace(outcome["observer"], meta, opts.trace_out)
        exported = events is not None
        if exported:
            print(f"  trace: {opts.trace_out} ({events} events)")
    for failure in outcome["failures"]:
        print(f"  {failure}")
    return 0 if outcome["ok"] and exported else 1


@_command(
    "serve",
    "[--backend sim|local|tcp] [--streams K] [--reduces N]",
    "multiplex named reduce streams through the allreduce service",
    backend=True, nodes=8, degrees="4,2 for 8 nodes", n=600,
)
def _serve(parser, args: list[str]) -> int:
    """Stand up the allreduce service and multiplex named reduce streams
    over one backend: each stream binds its own sparsity pattern,
    submissions interleave round-robin, and every result is checked
    against the dense reference."""
    from .allreduce import dense_reduce
    from .cluster import Cluster
    from .service import ReduceService, ServiceOverloaded
    from .service.bench import stream_workload

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
    opts = parser.parse_args(args)
    if opts.nodes < 2 or opts.streams < 1 or opts.reduces < 1:
        parser.error("--nodes >= 2, --streams >= 1, --reduces >= 1 required")
    m, k = opts.nodes, opts.streams
    degrees = opts.degrees or ([4, 2] if m == 8 else [m])

    kwargs: dict = dict(
        degrees=degrees, slots=opts.slots, queue_depth=opts.queue_depth
    )
    if opts.backend == "sim":
        kwargs["cluster"] = Cluster(m)
    # Stream j % k's pattern, with a fresh round of values per submission.
    streams = [
        stream_workload(m, opts.n, -(-opts.reduces // k), opts.seed + j) for j in range(k)
    ]
    with ReduceService(opts.backend, **kwargs) as svc:
        for j, (spec, _) in enumerate(streams):
            svc.open_stream(f"stream-{j}", spec)
        futures = []
        for j in range(opts.reduces):
            name, (spec, rounds) = f"stream-{j % k}", streams[j % k]
            values = rounds[j // k]
            try:
                fut = svc.submit(name, values)
            except ServiceOverloaded:
                svc.drain()  # backpressure: run the queue, then resubmit
                fut = svc.submit(name, values)
            futures.append((name, spec, values, fut))
        bad = 0
        for name, spec, values, fut in futures:
            out, ref = fut.result(), dense_reduce(spec, values)
            if not all(np.allclose(out[r], ref[r]) for r in range(m)):
                bad += 1
                print(f"  {name}: result DIVERGED from dense reference")
        cache = dict(svc.cache.stats)
        stats = dict(svc.stats)
        per_stream = {s.name: s.completed for s in svc.streams.values()}
    print(
        f"service on {m} {opts.backend} node(s), degrees "
        f"{'x'.join(map(str, degrees))}: {stats['completed']} reduce(s) "
        f"across {k} stream(s)"
    )
    print("  per stream: "
          + ", ".join(f"{name}={v}" for name, v in sorted(per_stream.items())))
    print(f"  config cache: {cache['hits']} hit(s), {cache['misses']} miss(es), "
          f"{cache['invalidations']} invalidation(s)")
    print(f"  admission: {stats['submitted']} submitted, "
          f"{stats['rejected']} rejected")
    print(f"  exact: {'yes' if not bad else f'{bad} DIVERGED'}")
    return 0 if not bad else 1


@_command(
    "drive-service",
    "[--reduces N] [--json FILE]",
    "service-throughput benchmark: cached+pipelined vs configure-per-reduce",
    nodes=64, degrees="4,4,4 for 64 nodes", n=2000,
)
def _drive_service(parser, args: list[str]) -> int:
    """The service-throughput benchmark on the simulator: a same-pattern
    reduce stream through the cached + pipelined service against the
    configure-every-time loop, with the speedup and cache hit-count
    gates enforced."""
    from .service import run_service_benchmark

    parser.add_argument(
        "--reduces", type=int, default=100, help="same-pattern reduces (default: 100)"
    )
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="required speedup vs sequential (default: 2.0)",
    )
    parser.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the benchmark record here (CI artifact)",
    )
    opts = parser.parse_args(args)
    if opts.nodes < 2 or opts.reduces < 2:
        parser.error("--nodes >= 2 and --reduces >= 2 required")
    degrees = opts.degrees or ([4, 4, 4] if opts.nodes == 64 else [opts.nodes])

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
    if opts.json:
        _write_json(opts.json, rec, indent=2)
        print(f"  written: {opts.json}")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(_usage())
        return 0
    command = COMMANDS.get(argv[0])
    if command is None:
        print(f"unknown command {argv[0]!r}\n")
        print(_usage())
        return 2
    return command.run(_parser(argv[0], command.run.__doc__, **command.options), argv[1:])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
