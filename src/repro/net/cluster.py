"""Cluster harness for the TCP backend: launcher, node server, driver.

This is the operational shell the ROADMAP's "real TCP backend + cluster
harness" item specifies, shaped after the classic three-piece harness of
distributed-systems repos:

* **Node server** (:func:`serve_node`, ``python -m repro node``) — one
  long-lived process per logical rank.  Binds a listener, announces
  ``KYLIX-NODE READY rank=.. host=.. port=.. pid=..`` on stdout, then
  serves *sessions*: the driver connects and ships ``("session", job,
  mesh)`` — this rank's :class:`~repro.net.session.NodeJob` and the peer
  address map — and the node runs :func:`~repro.net.session.run_node`
  over a socket mesh (:class:`~repro.net.tcp.TcpTransport`) formed on
  that listener, with the connection as its session control.
* **Launcher** (:func:`launch_cluster`, ``python -m repro run-cluster``)
  — spawns N node processes on loopback (or *attaches* to nodes you
  started yourself on other hosts, probing each with a ping frame),
  parses their READY lines, and writes the ``cluster_procs.json``
  manifest that every other tool consumes.  ``--stop`` tears a cluster
  down: shutdown frames first, SIGTERM for stragglers, manifest removed.
* **Driver** (:func:`drive_cluster`, ``python -m repro drive-cluster``)
  — consumes the manifest, runs a named workload for a round count or
  wall duration with a chosen ``--failure-mode`` as a sequence of session
  waves (:func:`~repro.net.session.collect` /
  :func:`~repro.net.session.collate`), checks exactness against the
  dense reference, gates degraded coverage against the static
  :func:`~repro.verify.flow.worst_case_loss` bound, and can export the
  merged Chrome trace.

Failure modes reuse :class:`~repro.faults.FaultPlan`, so the *identical*
deterministic fault schedule a mode denotes here can be replayed on the
simulator and the pipe backend — that is the whole point: one schedule,
three media.

Manifest schema (``cluster_procs.json``)::

    {
      "cluster": {"size": 4, "host": "127.0.0.1", "workdir": "..."},
      "nodes": {
        "node0": {"rank": 0, "pid": 12345, "host": "127.0.0.1",
                   "port": 40001, "log": ".kylix-cluster/node-0.log"},
        ...
      }
    }
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..allreduce import ButterflyTopology, ReduceSpec, dense_reduce, dense_reduce_without
from ..faults import (
    CoverageReport,
    FaultPlan,
    LinkFault,
    RetryPolicy,
    exact_outside_lost,
    lost_outside_bound,
)
from ..obs import NULL_OBSERVER, Observer
from ..obs.telemetry import FlightRecorder, TimeSeriesAggregator
from ..sparse import MultiplicativeHasher
from .framing import Ctl, FrameError, FrameStream
from .session import NodeJob, SocketControl, collate, collect, decode_ctl, release, run_node
from .tcp import TcpTransport, loopback_listener

__all__ = [
    "DEFAULT_MANIFEST",
    "FAILURE_MODES",
    "serve_node",
    "launch_cluster",
    "attach_cluster",
    "stop_cluster",
    "load_manifest",
    "probe",
    "drive_cluster",
]

DEFAULT_MANIFEST = "cluster_procs.json"
DEFAULT_LOG_DIR = ".kylix-cluster"
FAILURE_MODES = ("none", "crash", "slow-node", "partition")

#: The deliberately afflicted rank in crash/slow-node/partition modes —
#: deterministic so a mode + seed fully names its fault schedule.
VICTIM_RANK = 1
#: Fixed straggler penalty for ``slow-node`` (matches the simulator's
#: ``straggler`` experiment scale: late, not lost).
SLOW_NODE_DELAY = 0.05


# ---------------------------------------------------------------------------
# Node server
# ---------------------------------------------------------------------------

def serve_node(
    rank: int,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    once: bool = False,
    ready_stream=None,
) -> int:
    """One cluster node: announce READY, then serve driver sessions.

    The single listener serves four frame kinds: peer ``hello`` frames
    that raced the session setup (stashed and handed to the transport),
    driver ``ping`` probes (answered with ``pong`` + rank/pid, used by
    :func:`attach_cluster`), driver ``session`` frames, and monitor
    ``telemetry-req`` probes (answered with the node's buffered recent
    :class:`~repro.obs.telemetry.TelemetrySample` stream — the attach
    path behind ``python -m repro monitor``).  A ``shutdown`` frame ends
    the loop.
    """
    stream = ready_stream if ready_stream is not None else sys.stdout
    listener = loopback_listener(host, port, backlog=64)
    actual = listener.getsockname()[1]
    stream.write(
        f"KYLIX-NODE READY rank={rank} host={host} port={actual} pid={os.getpid()}\n"
    )
    stream.flush()
    pending: List[Tuple[int, socket.socket]] = []
    # Recent telemetry samples from telemetry-enabled sessions, kept
    # across sessions so a monitor can attach after (or during) a run.
    # Bounded: old samples age out, monitors dedupe by (node, seq).
    recent: deque = deque(maxlen=4096)
    # Driver connections accepted by a *session's* transport while it was
    # winding down (their first frame is not a peer hello) land here and
    # are served before the next accept — nothing is dropped in the race.
    stray: List[Tuple[Any, socket.socket]] = []
    try:
        while True:
            if stray:
                frame, sock = stray.pop(0)
            else:
                try:
                    sock, _ = listener.accept()
                except socket.timeout:
                    continue
                try:
                    # One frame exactly: a peer's hello may have its first
                    # parts right behind it, and they belong to the link.
                    ok, frame = FrameStream(sock).recv(timeout=5.0)
                except (OSError, FrameError, MemoryError):  # a stranger's absurd length too
                    sock.close()
                    continue
                if not ok:
                    sock.close()
                    continue
            try:
                # A driver's frames are ctl frames; a peer's hello is not.
                frame = decode_ctl(frame) if isinstance(frame, Ctl) else frame
            except FrameError:
                frame = None
            if not isinstance(frame, tuple) or not frame:
                sock.close()
                continue
            kind = frame[0]
            if kind == "hello":
                pending.append((int(frame[1]), sock))
            elif kind == "ping":
                _reply(sock, ("pong", rank, os.getpid()))
            elif kind == "shutdown":
                _reply(sock, ("bye", rank))
                return 0
            elif kind == "telemetry-req":
                _reply(sock, ("telemetry-rep", rank, list(recent)))
            elif kind == "session":
                _serve_session(rank, listener, sock, frame[1], frame[2], pending, stray, recent)
                pending = []
                if once:
                    return 0
            else:
                sock.close()
    finally:
        listener.close()


def _reply(sock: socket.socket, frame) -> None:
    """Answer a one-shot probe connection and hang up."""
    control = SocketControl(sock)
    try:
        control.send(frame)
    finally:
        control.close()


def probe(host: str, port: int, frame, *, timeout: float = 2.0):
    """One control-plane question to a node: connect, send ``frame``,
    return its one-frame reply — ``None`` if the node is unreachable or
    hangs up without answering."""
    try:
        control = SocketControl(socket.create_connection((host, port), timeout=timeout))
    except OSError:
        return None
    try:
        control.send(frame)
        return control.recv()  # lint: ok — the socket carries the timeout
    except (OSError, EOFError):
        return None
    finally:
        control.close()


class _NodeControl(SocketControl):
    """A node's end of a session control: telemetry frames bound for the
    driver are also buffered for monitor ``telemetry-req`` probes."""

    def __init__(self, sock, recent: deque) -> None:
        super().__init__(sock)
        self._recent = recent

    def send(self, frame: Any) -> None:
        if frame[0] == "telemetry":
            self._recent.append(frame[2])
        super().send(frame)


def _serve_session(
    rank: int, listener, sock: socket.socket, job: NodeJob, mesh: Dict[str, Any],
    pending, stray, recent: deque,
) -> None:
    """Run one driver session: :func:`~repro.net.session.run_node` over
    a socket mesh formed on this node's long-lived listener."""
    recorder = FlightRecorder(capacity=512, node=rank)

    def open_transport(rank_, plan, retry, obs):
        if obs.enabled:
            recorder.attach(obs)
        net = TcpTransport(rank_, plan, retry, obs=obs)
        # The node's listener outlives the session: the mesh runs it
        # non-blocking under its pump and hands it back, accept timeout
        # restored, on close.
        net.keep_listener = True
        net.on_stray = lambda frame, s: stray.append((frame, s))
        try:
            net.form_mesh(listener, mesh["addrs"], pending=pending)
        except BaseException:
            net.close()
            raise
        return net

    control = _NodeControl(sock, recent)
    try:
        err, rounds_out = run_node(rank, job, open_transport, control)
        if job.observe and mesh["postmortem_dir"]:
            _dump_node_postmortem(rank, recorder, mesh["postmortem_dir"], err, rounds_out)
    finally:
        control.close()


def _dump_node_postmortem(rank, recorder, pm_dir, err, rounds_out) -> None:
    """Write this node's flight-recorder dump if the session went bad.

    Triggered by a session error or by degraded rounds that reported
    losses; the path is ``<postmortem_dir>/postmortem-node-<rank>.json``
    (the driver ships ``postmortem_dir`` with the session frame)."""
    had_loss = any(
        (losses or (lost_raw is not None and len(lost_raw)))
        for _res, lost_raw, losses in rounds_out
    )
    if err is None and not had_loss:
        return
    try:
        os.makedirs(pm_dir, exist_ok=True)
        recorder.dump(
            os.path.join(pm_dir, f"postmortem-node-{rank}.json"),
            context={"rank": rank, "err": str(err) if err is not None else None},
        )
    except OSError:  # pragma: no cover - postmortem is best-effort
        pass


# ---------------------------------------------------------------------------
# Launcher
# ---------------------------------------------------------------------------

#: A node's READY line lands in a log file, which has no readiness to
#: block on: the launcher re-reads it on this cadence.
_READY_POLL = 0.05
#: ``stop_cluster`` watches pids that need not be its children, which
#: nothing can wait on: ``kill(pid, 0)`` on this cadence.
_PID_POLL = 0.05


def launch_cluster(
    size: int,
    *,
    host: str = "127.0.0.1",
    log_dir: str = DEFAULT_LOG_DIR,
    manifest_path: str = DEFAULT_MANIFEST,
    python: Optional[str] = None,
    ready_timeout: float = 30.0,
) -> Dict[str, Any]:
    """Spawn ``size`` node processes on loopback; write the manifest.

    Each node's stdout/stderr goes to ``<log_dir>/node-<rank>.log``; the
    READY line is parsed out of the log to learn the bound port.  A node
    that never announces within ``ready_timeout`` aborts the launch (the
    already-spawned nodes are terminated — no strays).
    """
    if size < 1:
        raise ValueError("cluster size must be >= 1")
    os.makedirs(log_dir, exist_ok=True)
    python = python or sys.executable
    procs: Dict[int, subprocess.Popen] = {}
    logs: Dict[int, str] = {}
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    try:
        for r in range(size):
            log_path = os.path.join(log_dir, f"node-{r}.log")
            logs[r] = log_path
            with open(log_path, "w") as log:
                procs[r] = subprocess.Popen(
                    [python, "-m", "repro", "node",
                     "--rank", str(r), "--host", host, "--port", "0"],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    env=env,
                )
        nodes: Dict[str, Any] = {}
        deadline = time.monotonic() + ready_timeout
        for r in range(size):
            port = None
            while time.monotonic() < deadline:
                # Popen.poll() is non-blocking by contract (no timeout
                # parameter exists) — it reaps an exited child or
                # returns immediately.
                if procs[r].poll() is not None:  # lint: ok
                    raise RuntimeError(
                        f"node {r} exited with code {procs[r].returncode} "
                        f"before READY (see {logs[r]})"
                    )
                port = _parse_ready(logs[r])
                if port is not None:
                    break
                time.sleep(_READY_POLL)
            if port is None:
                raise RuntimeError(
                    f"node {r} not READY within {ready_timeout}s (see {logs[r]})"
                )
            nodes[f"node{r}"] = {
                "rank": r,
                "pid": procs[r].pid,
                "host": host,
                "port": port,
                "log": logs[r],
            }
    except Exception:
        for p in procs.values():
            if p.poll() is None:  # lint: ok — Popen.poll() never blocks
                p.terminate()
        raise
    manifest = {
        "cluster": {"size": size, "host": host, "workdir": os.getcwd()},
        "nodes": nodes,
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def _parse_ready(log_path: str) -> Optional[int]:
    try:
        with open(log_path) as fh:
            for line in fh:
                if line.startswith("KYLIX-NODE READY"):
                    fields = dict(
                        kv.split("=", 1) for kv in line.split()[2:] if "=" in kv
                    )
                    return int(fields["port"])
    except (OSError, KeyError, ValueError):
        return None
    return None


def attach_cluster(
    endpoints: Sequence[str],
    *,
    manifest_path: str = DEFAULT_MANIFEST,
    probe_timeout: float = 5.0,
) -> Dict[str, Any]:
    """Build a manifest from already-running nodes (``host:port`` list).

    This is the host-list path: start ``python -m repro node`` yourself
    on each machine, then attach.  Every endpoint is probed with a ping
    frame; the node's announced rank and pid land in the manifest.
    """
    nodes: Dict[str, Any] = {}
    for ep in endpoints:
        host, _, port_s = ep.rpartition(":")
        if not host or not port_s.isdigit():
            raise ValueError(f"endpoint {ep!r} is not host:port")
        pong = probe(host, int(port_s), ("ping",), timeout=probe_timeout)
        if pong is None or pong[0] != "pong":
            raise RuntimeError(f"endpoint {ep} did not answer the ping probe")
        rank, pid = int(pong[1]), int(pong[2])
        nodes[f"node{rank}"] = {
            "rank": rank, "pid": pid, "host": host, "port": int(port_s),
            "log": None,
        }
    size = len(nodes)
    if sorted(n["rank"] for n in nodes.values()) != list(range(size)):
        raise RuntimeError(
            f"attached ranks {sorted(n['rank'] for n in nodes.values())} do not "
            f"form 0..{size - 1}"
        )
    manifest = {
        "cluster": {"size": size, "host": None, "workdir": os.getcwd()},
        "nodes": nodes,
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def load_manifest(manifest_path: str = DEFAULT_MANIFEST) -> Dict[str, Any]:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    size = manifest["cluster"]["size"]
    ranks = sorted(n["rank"] for n in manifest["nodes"].values())
    if ranks != list(range(size)):
        raise ValueError(f"manifest ranks {ranks} do not cover 0..{size - 1}")
    return manifest


def stop_cluster(
    manifest_path: str = DEFAULT_MANIFEST, *, grace: float = 5.0
) -> int:
    """Tear a launched cluster down: shutdown frames, then SIGTERM.

    Returns the number of nodes that acknowledged or died.  The manifest
    file is removed on success so stale state cannot be re-driven.
    """
    manifest = load_manifest(manifest_path)
    stopped = 0
    for node in manifest["nodes"].values():
        if _send_shutdown(node["host"], node["port"]):
            stopped += 1
            continue
        pid = node.get("pid")
        if pid:
            try:
                os.kill(pid, signal.SIGTERM)
                stopped += 1
            except (OSError, ProcessLookupError):
                pass
    deadline = time.monotonic() + grace
    for node in manifest["nodes"].values():
        pid = node.get("pid")
        while pid and _pid_alive(pid) and time.monotonic() < deadline:
            _reap_if_child(pid)
            time.sleep(_PID_POLL)
        if pid and _pid_alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):  # pragma: no cover
                pass
            kill_deadline = time.monotonic() + 2.0
            while _pid_alive(pid) and time.monotonic() < kill_deadline:
                _reap_if_child(pid)
                time.sleep(_PID_POLL)
    os.remove(manifest_path)
    return stopped


def _reap_if_child(pid: int) -> None:
    """Collect the exit status if ``pid`` is our child — an exited node
    otherwise lingers as a zombie, and ``kill(pid, 0)`` keeps reporting
    it alive (the launcher and the stopper usually share a process)."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except (ChildProcessError, OSError):
        pass


def _send_shutdown(host: str, port: int) -> bool:
    return probe(host, port, ("shutdown",)) is not None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # pragma: no cover - e.g. EPERM
        return True
    return True


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

def _failure_plan(
    mode: str, base: Optional[FaultPlan], m: int, seed: int
) -> Tuple[Optional[FaultPlan], Optional[RetryPolicy], bool, Optional[FaultPlan]]:
    """(plan, retry override, degrade, bound plan) for one failure mode.

    Every mode is expressed as a :class:`FaultPlan`, so the exact same
    schedule replays on the simulator and the pipe backend.  The *bound
    plan* is the kill-equivalent schedule the static
    :func:`~repro.verify.flow.worst_case_loss` gate understands: a
    silently partitioned node and a crashed node both contribute nothing
    and return nothing, so both are bounded by "victim dead at start".
    """
    victim = VICTIM_RANK % m
    if mode == "none":
        return base, None, False, None
    plan = (base or FaultPlan()).with_seed(seed)
    if mode == "crash":
        # Die right before the first value send of layer 1 — mid-reduce,
        # after mesh formation, the worst spot for the down pass.  This
        # kills the actual node *process*: the manifest is stale for the
        # victim afterwards (relaunch, or drive crash mode last).
        plan = plan.kill_at_step(victim, "down", 1)
        bound = FaultPlan().kill(victim)
        return plan, RetryPolicy(base_timeout=0.2, max_retries=2), True, bound
    if mode == "slow-node":
        # Late, not lost: generous base deadline so delayed messages
        # arrive inside attempt 0 instead of burning the retry budget.
        plan = plan.with_rule(LinkFault(src=victim, delay=SLOW_NODE_DELAY))
        return plan, RetryPolicy(base_timeout=0.25, max_retries=4), False, None
    if mode == "partition":
        # The victim can talk to nobody and hear nobody — both directions
        # drop with certainty, connections stay up (the silent partition).
        plan = plan.with_rule(LinkFault(src=victim, drop=1.0))
        plan = plan.with_rule(LinkFault(dst=victim, drop=1.0))
        bound = FaultPlan().kill(victim)
        return plan, RetryPolicy(base_timeout=0.15, max_retries=1), True, bound
    raise ValueError(f"unknown failure mode {mode!r}; choose from {FAILURE_MODES}")


def drive_cluster(
    manifest: Dict[str, Any],
    *,
    workload: str = "quickstart",
    rounds: int = 1,
    duration: Optional[float] = None,
    concurrency: int = 1,
    failure_mode: str = "none",
    seed: int = 0,
    observe: Optional[Observer] = None,
    session_timeout: float = 120.0,
    telemetry_interval: Optional[float] = None,
    aggregator: Optional[TimeSeriesAggregator] = None,
    postmortem_dir: Optional[str] = DEFAULT_LOG_DIR,
) -> Dict[str, Any]:
    """Run a workload against a launched cluster; return the outcome.

    ``telemetry_interval`` (requires ``observe``) turns on the live
    telemetry plane: every node samples its metric registry on that
    wall-clock interval and streams ``("telemetry", rank, sample)``
    frames back on its session control connection; the driver ingests
    them into ``aggregator`` (created on demand, returned under
    ``outcome["aggregator"]``), and the nodes also buffer them for
    ``python -m repro monitor`` attach probes.  On degraded completion
    or session errors a flight-recorder postmortem cross-linked with the
    merged :class:`~repro.faults.CoverageReport` is written under
    ``postmortem_dir`` (``outcome["postmortem"]`` names the file).

    ``concurrency`` is the number of reduction rounds batched into one
    session wave: one mesh formation — and, on clean sessions, one
    *configuration* — amortizes over that many rounds (round 0 runs the
    combined protocol and keeps the plan it built; the wave's later rounds
    replay values-only through it, reported as ``config_cache`` hits).
    Waves repeat until ``rounds`` rounds have run, or — with
    ``duration`` — until the wall clock says stop.

    The outcome dict carries per-wave exactness against the dense
    reference, the merged :class:`~repro.faults.CoverageReport` for
    degraded modes, and the static worst-case-loss gate verdict.
    """
    from ..obs.runner import EXPERIMENTS
    from ..verify.flow import worst_case_loss

    if workload not in EXPERIMENTS:
        raise ValueError(f"unknown workload {workload!r}")
    if rounds < 1 or concurrency < 1:
        raise ValueError("rounds and concurrency must be >= 1")
    w = EXPERIMENTS[workload](seed)
    m, degrees = w["m"], w["degrees"]
    size = manifest["cluster"]["size"]
    if m != size:
        raise ValueError(
            f"workload {workload} needs {m} nodes, manifest has {size}"
        )
    spec = ReduceSpec(in_indices=w["in_idx"], out_indices=w["out_idx"])
    plan, retry_override, degrade, bound_plan = _failure_plan(
        failure_mode, w.get("faults"), m, seed
    )
    retry = retry_override or w.get("retry") or RetryPolicy(base_timeout=0.25)
    if plan is not None:
        plan.validate(m)
    obs = observe if observe is not None else NULL_OBSERVER
    if obs.enabled:
        obs.name_pid(0, "driver")
    if telemetry_interval is not None:
        if telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be positive")
        if not obs.enabled:
            raise ValueError("telemetry_interval requires observe=Observer(...)")
        if aggregator is None:
            aggregator = TimeSeriesAggregator()
    recorder = FlightRecorder(capacity=512, node=-1)
    if obs.enabled:
        recorder.attach(obs)
    addrs = {
        n["rank"]: (n["host"], n["port"]) for n in manifest["nodes"].values()
    }
    # Exactness reference.  Under a degraded mode the victim contributes
    # *nothing* (it dies or all its sends drop before any value leaves),
    # so the honest reference for the survivors' kept positions is the
    # reduction over every member *except* the victim.
    victim = VICTIM_RANK % m
    if degrade:
        reference = dense_reduce_without(spec, w["values"], victim)
    else:
        reference = dense_reduce(spec, w["values"])
    job_fields = dict(
        degrees=tuple(degrees),
        hasher=MultiplicativeHasher(),
        strict=not degrade,
        plan=plan,
        retry=retry,
        degrade=degrade,
        observe=obs.enabled,
        telemetry_interval=telemetry_interval,
    )

    def on_frame(frame) -> None:
        if frame[0] == "telemetry":
            aggregator.ingest(frame[2])
            recorder.record("telemetry", frame[2].t, node=frame[1], seq=frame[2].seq)
        elif frame[0] == "result" and frame[4] is not None:
            # One trace process row per node (pid 0 = driver).
            obs.absorb(frame[4], pid=frame[1] + 1, name=f"node {frame[1]}")

    outcome: Dict[str, Any] = {
        "workload": workload,
        "failure_mode": failure_mode,
        "seed": seed,
        "rounds_requested": rounds,
        "rounds_run": 0,
        "waves": 0,
        "exact_rounds": 0,
        "checked_rounds": 0,
        "dead_ranks": [],
        "errors": [],
        "config_cache": {"hits": 0, "misses": 0, "hit_rate": 0.0},
    }
    all_lost: Dict[int, List[np.ndarray]] = {}
    all_losses: list = []
    started = time.monotonic()
    rounds_left = rounds
    while rounds_left > 0:
        wave = min(concurrency, rounds_left)
        jobs = {
            rank: NodeJob.for_rank(rank, spec, [w["values"]] * wave, **job_fields)
            for rank in addrs
        }
        records = _run_wave(addrs, jobs, postmortem_dir, session_timeout, on_frame)
        out = collate(records, spec, m, degrade)
        wave_errs = [f"rank {r}: {exc}" for r, exc in out.errors.items()]
        for msg in wave_errs:
            recorder.record("error", time.monotonic() - started, detail=msg)
        for r in out.dead:
            recorder.record("dead", time.monotonic() - started, rank=r)
        outcome["waves"] += 1
        outcome["rounds_run"] += wave
        outcome["errors"].extend(wave_errs)
        outcome["config_cache"]["hits"] += out.cache["hits"]
        outcome["config_cache"]["misses"] += out.cache["misses"]
        outcome["dead_ranks"].extend(
            r for r in out.dead if r not in outcome["dead_ranks"]
        )
        if degrade:
            for r, lost_ix in out.report.lost_indices.items():
                all_lost.setdefault(r, []).append(lost_ix)
            all_losses.extend(out.report.losses)
        for rank, per_round in out.rounds.items():
            if degrade and rank == victim:
                # The victim's surviving values are reductions over
                # whatever happened to reach it — no dense reference
                # matches them; its coverage report is the contract.
                continue
            for result, lost_raw, _losses in per_round:
                outcome["checked_rounds"] += 1
                outcome["exact_rounds"] += exact_outside_lost(
                    result, reference[rank], spec.in_indices[rank], lost_raw
                )
        rounds_left -= wave
        if duration is not None:
            if time.monotonic() - started >= duration:
                break
            if rounds_left <= 0:
                rounds_left = rounds  # keep cycling until the clock says stop
    outcome["elapsed"] = time.monotonic() - started
    consults = outcome["config_cache"]["hits"] + outcome["config_cache"]["misses"]
    outcome["config_cache"]["hit_rate"] = (
        outcome["config_cache"]["hits"] / consults if consults else 0.0
    )

    report = None
    if degrade:
        report = CoverageReport.from_losses(
            spec, m, {r: np.concatenate(c) for r, c in all_lost.items()}, all_losses
        )
        outcome["coverage"] = report.summary()
        bound = worst_case_loss(
            ButterflyTopology(degrees, m), spec, None, bound_plan or plan
        )
        violations = [
            f"rank {r}: {extra.size} lost indices outside the static bound"
            for r, extra in lost_outside_bound(report.lost_indices, bound.get).items()
        ]
        outcome["bound_ok"] = not violations
        outcome["bound_violations"] = violations
    outcome["report"] = report
    if aggregator is not None:
        outcome["aggregator"] = aggregator
        outcome["telemetry_samples"] = aggregator.samples
    # Crash evidence: any loss, error, or dead rank leaves a postmortem
    # whose coverage section is exactly the merged report above.
    went_bad = bool(
        (report is not None and (report.lost_indices or report.losses))
        or outcome["errors"]
        or outcome["dead_ranks"]
    )
    if postmortem_dir and went_bad:
        os.makedirs(postmortem_dir, exist_ok=True)
        path = os.path.join(postmortem_dir, "postmortem-driver.json")
        recorder.dump(
            path,
            report=report,
            context={
                "workload": workload,
                "failure_mode": failure_mode,
                "seed": seed,
                "dead_ranks": [int(r) for r in outcome["dead_ranks"]],
            },
        )
        outcome["postmortem"] = path
    return outcome


def _run_wave(addrs, jobs, postmortem_dir, timeout, on_frame) -> Dict[int, tuple]:
    """One session wave: connect, ship each node its ``("session", job,
    mesh)`` frame, settle every rank; returns ``{rank: settled frame}``.

    A node that cannot be reached, or whose connection breaks (crash
    mode's ``os._exit`` lands as an EOF), is a real process death and is
    accounted as one — a ``lost`` frame."""
    mesh = {"addrs": addrs, "postmortem_dir": postmortem_dir}
    controls: Dict[int, SocketControl] = {}
    records: Dict[int, tuple] = {}
    try:
        for rank, addr in addrs.items():
            try:
                control = SocketControl(socket.create_connection(addr, timeout=5.0))
            except OSError as exc:
                records[rank] = ("lost", rank, f"connect to node {rank} failed: {exc}")
                continue
            controls[rank] = control
            try:
                control.send(("session", jobs[rank], mesh))
            except OSError:
                pass  # collect meets the broken control and settles it lost
        for frame in collect(controls, timeout=timeout):
            on_frame(frame)
            if frame[0] != "telemetry":
                records[frame[1]] = frame
    finally:
        release(controls, hangup=5.0)
    return records
