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
  — consumes the manifest and runs a named workload for a round count or
  wall duration with a chosen ``--failure-mode`` as a sequence of session
  waves, each one :func:`~repro.obs.runner.run_traced` on a
  :class:`ClusterKylix` — the one driver of every real backend
  (:class:`~repro.net.base.KylixDriver`), attached to the manifest's
  nodes instead of forking its own.  The runner judges every wave
  (exactness against the dense reference, degraded coverage against the
  static :func:`~repro.verify.flow.worst_case_loss` bound); the driver
  adds up the waves, merges their traces and writes the postmortem.

Failure modes are :func:`~repro.obs.runner.failure_schedule`'s, so the
*identical* deterministic fault schedule a mode denotes here replays on
the simulator and the forked backends — one schedule, every medium.

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
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import Observer
from ..obs.runner import FAILURE_MODES, VICTIM_RANK
from ..obs.telemetry import FlightRecorder, TimeSeriesAggregator
from .base import KylixDriver
from .framing import Ctl, FrameError, FrameStream
from .session import NodeJob, SocketControl, decode_ctl, release, run_node
from .tcp import TcpTransport, loopback_listener

__all__ = [
    "DEFAULT_MANIFEST",
    "FAILURE_MODES",
    "VICTIM_RANK",
    "serve_node",
    "launch_cluster",
    "attach_cluster",
    "stop_cluster",
    "load_manifest",
    "probe",
    "ClusterKylix",
    "drive_cluster",
]

DEFAULT_MANIFEST = "cluster_procs.json"
DEFAULT_LOG_DIR = ".kylix-cluster"


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
        if f"node{rank}" in nodes:
            raise RuntimeError(f"endpoint {ep} announces rank {rank}, which is already attached")
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
# The driver, attached
# ---------------------------------------------------------------------------

class ClusterKylix(KylixDriver):
    """The driver attached to a launched cluster's nodes (the manifest of
    :func:`launch_cluster` / :func:`attach_cluster`), e.g.
    ``ClusterKylix(load_manifest(), [4, 2]).allreduce(spec, values)``.

    A session connects to every node's listener and ships it
    ``("session", job, {"addrs", "postmortem_dir"})``; the connection is
    its control.  A node that cannot be reached settles ``lost`` at once;
    one whose session went bad writes its flight-recorder dump under
    :data:`DEFAULT_LOG_DIR` (with ``observe`` only).  Parameters: those
    of :class:`~repro.net.base.KylixDriver`.
    """

    _BACKEND_NAME = "cluster"
    _ROW = "node"

    def __init__(self, manifest: Dict[str, Any], degrees: Sequence[int], **options):
        super().__init__(degrees, **options)
        self.addrs = {
            n["rank"]: (n["host"], n["port"]) for n in manifest["nodes"].values()
        }
        if sorted(self.addrs) != list(range(self.size)):
            raise ValueError(
                f"a {self.degrees} butterfly needs {self.size} nodes; the manifest "
                f"has ranks {sorted(self.addrs)}"
            )

    @contextmanager
    def _nodes(self, jobs: Dict[int, NodeJob]):
        """Ship every node its session; on exit, the done handshake and
        each node's hang-up (so the next session cannot meet a mesh that
        is still winding down)."""
        mesh = {"addrs": self.addrs, "postmortem_dir": DEFAULT_LOG_DIR}
        controls: Dict[int, SocketControl] = {}
        lost: Dict[int, tuple] = {}
        try:
            for rank, job in jobs.items():
                try:
                    control = SocketControl(
                        socket.create_connection(self.addrs[rank], timeout=5.0)
                    )
                except OSError as exc:
                    lost[rank] = ("lost", rank, f"connect to node {rank} failed: {exc}")
                    continue
                controls[rank] = control
                try:
                    control.send(("session", job, mesh))
                except OSError:
                    pass  # collect meets the broken control and settles it lost
            yield controls, lost
        finally:
            release(controls, hangup=5.0)


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

def drive_cluster(
    manifest: Dict[str, Any],
    workload: str = "quickstart",
    *,
    rounds: int = 1,
    duration: Optional[float] = None,
    concurrency: int = 1,
    failure_mode: str = "none",
    seed: int = 0,
    telemetry_interval: Optional[float] = None,
) -> Dict[str, Any]:
    """Run a workload on a launched cluster in session waves; return the
    outcome.

    Each wave is one :func:`~repro.obs.runner.run_traced` of
    ``concurrency`` rounds, judged there; one mesh formation — and, on
    clean sessions, one configuration (later rounds are ``config_cache``
    hits) — amortizes over the wave.  Waves repeat until ``rounds``
    rounds have run, or — with ``duration`` — until the wall clock says
    stop.  The outcome adds the waves up: the merged ``observer`` (and,
    with ``telemetry_interval``, an ``aggregator`` of the nodes'
    samples), the exact and checked rank-round counts, every error, the
    dead ranks, and for degraded modes the merged coverage ``report`` and
    the bound gate.  A loss, an error or a dead rank leaves a
    flight-recorder postmortem with that report under
    :data:`DEFAULT_LOG_DIR` (``outcome["postmortem"]``).
    """
    from ..obs.runner import EXPERIMENTS, merge_reports, run_traced

    if workload not in EXPERIMENTS:
        raise ValueError(f"unknown workload {workload!r}")
    if rounds < 1 or concurrency < 1:
        raise ValueError("rounds and concurrency must be >= 1")
    obs = Observer(name=f"{workload}@cluster")
    aggregator = TimeSeriesAggregator() if telemetry_interval is not None else None
    recorder = FlightRecorder(capacity=512, node=-1)
    outcome: Dict[str, Any] = {
        "workload": workload, "failure_mode": failure_mode, "seed": seed,
        "observer": obs, "rounds_run": 0, "waves": 0, "exact_rounds": 0,
        "checked_rounds": 0, "dead_ranks": [], "errors": [],
        "config_cache": {"hits": 0, "misses": 0},
    }
    reports, violations = [], []
    started = time.monotonic()
    rounds_left = rounds
    while rounds_left > 0:
        wave = min(concurrency, rounds_left)
        wave_obs, info = run_traced(
            workload, backend=manifest, seed=seed, failure=failure_mode,
            rounds=wave, telemetry_interval=telemetry_interval,
        )
        obs.absorb(wave_obs.snapshot(), pid=None)
        obs.pid_names.update(wave_obs.pid_names)
        if aggregator is not None:
            aggregator.ingest_observer(wave_obs)
        for sample in wave_obs.telemetry:
            recorder.record("telemetry", sample.t, node=sample.node, seq=sample.seq)
        for msg in info["errors"]:
            recorder.record("error", time.monotonic() - started, detail=msg)
        for r in info["dead"]:
            recorder.record("dead", time.monotonic() - started, rank=r)
            if r not in outcome["dead_ranks"]:
                outcome["dead_ranks"].append(r)
        outcome["waves"] += 1
        outcome["rounds_run"] += wave
        outcome["errors"] += info["errors"]
        outcome["exact_rounds"] += info["exact_rounds"]
        outcome["checked_rounds"] += info["checked_rounds"]
        for key in ("hits", "misses"):
            outcome["config_cache"][key] += info["cache"][key]
        if info["report"] is not None:
            reports.append(info["report"])
            violations += info["bound_violations"]
        rounds_left -= wave
        if duration is not None:
            if time.monotonic() - started >= duration:
                break
            if rounds_left <= 0:
                rounds_left = rounds  # keep cycling until the clock says stop
    outcome["elapsed"] = time.monotonic() - started
    cache = outcome["config_cache"]
    cache["hit_rate"] = cache["hits"] / max(cache["hits"] + cache["misses"], 1)
    report = outcome["report"] = merge_reports(reports) if reports else None
    if report is not None:
        outcome.update(coverage=report.summary(), bound_ok=not violations,
                       bound_violations=violations)
    if aggregator is not None:
        outcome["aggregator"] = aggregator
    if (report is not None and (report.lost_indices or report.losses)) or (
        outcome["errors"] or outcome["dead_ranks"]
    ):
        os.makedirs(DEFAULT_LOG_DIR, exist_ok=True)
        path = outcome["postmortem"] = os.path.join(DEFAULT_LOG_DIR, "postmortem-driver.json")
        context = {"workload": workload, "failure_mode": failure_mode, "seed": seed,
                   "dead_ranks": [int(r) for r in outcome["dead_ranks"]]}
        recorder.dump(path, report=report, context=context)
    return outcome
