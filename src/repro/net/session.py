"""The driver↔node session contract of the real backends.

A *session* is one driver running one batch of reduction rounds on a
set of live nodes.  Everything the two sides must agree on lives here,
once, for every real medium (:class:`~repro.net.local.LocalKylix`,
:class:`~repro.net.tcp.TcpKylix`, the standalone cluster of
:mod:`repro.net.cluster`):

* the **job** a node is handed (:class:`NodeJob`);
* the **frames** on the control channel — node to driver exactly one
  ``("result", rank, err, rounds_out, snapshot, cache_stats)`` (the
  node's telemetry samples ride its snapshot); driver to node one
  ``("done",)``;
* the **error encoding** (:func:`encode_error` / :func:`failure`): a
  typed :class:`~repro.faults.PeerFailedError` keeps its slot, phase and
  layer across the wire, anything else travels as its traceback;
* the **dead-rank rule** (:func:`collate`): a rank that is gone without
  a result lost its whole requested slice, recorded as the one
  ``LossRecord(rank, rank, "combined_down", 0)``;
* the **done handshake**: a node sends its result *first* and then
  keeps servicing NACKs (slow peers may still need its final up-parts)
  until the driver — which says so once every rank is settled — sends
  ``done``, the control reaches EOF, or the linger budget runs out.
  A node's death is the EOF of its control: only the node holds its end.

Node half: :func:`run_node` is the only body a real node ever runs, on
one thread that waits only in its transport's pump (telemetry ticks are
due calls there; the linger puts the control on its selector).  What
differs between media is passed in: ``open_transport(rank, plan,
retry, obs)`` builds the mesh, and ``control`` is any selectable object
with ``send(obj)`` / ``recv()`` / ``fileno()`` / ``close()`` — in
practice a :class:`SocketControl`, over a ``socket.socketpair()`` under
a forked backend and over the driver's TCP connection on the node
server.  Control frames are ``ctl`` frames of :mod:`repro.net.framing`
whose metadata is a protocol-5 pickle with out-of-band buffers: the
arrays of a job or of a result are written from where they lie and read
into the frame's own buffer, never copied in user space.  This codec
(:func:`encode_ctl` / :func:`decode_ctl`) is the one place a real
backend pickles; mesh links refuse ``ctl`` frames.  Driver half:
:func:`collect` blocks in one ``multiprocessing.connection.wait`` over
every control, :func:`release` is the done handshake, and
:func:`collate` turns the settled frames into results, errors and the
run's :class:`~repro.faults.CoverageReport`.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..allreduce import ButterflyTopology, ReduceSpec
from ..faults import CoverageReport, FaultPlan, LossRecord, PeerFailedError, RetryPolicy
from ..obs import NULL_OBSERVER, Observer
from ..obs.telemetry import Sampler, TelemetryAgent
from ..sparse import MultiplicativeHasher
from .framing import MAX_ARRAYS, Ctl, FrameError, FrameStream, send_frame
from .protocol import run_rounds

__all__ = [
    "NodeJob",
    "SocketControl",
    "encode_ctl",
    "decode_ctl",
    "run_node",
    "encode_error",
    "failure",
    "collect",
    "release",
    "Collated",
    "collate",
]


@dataclass(frozen=True, eq=False)
class NodeJob:
    """What one node is asked to run in one session (picklable).

    ``spec`` holds only this rank's index sets and ``rounds_values`` one
    value array per round, each aligned with the spec's out indices:
    round 0 runs the combined protocol and — on clean sessions — every
    later round replays values-only through the plan it built
    (:func:`~repro.net.protocol.run_rounds`), so one mesh and one
    configuration serve the whole batch.
    """

    degrees: Tuple[int, ...]
    hasher: MultiplicativeHasher
    spec: ReduceSpec
    rounds_values: Tuple[np.ndarray, ...]
    strict: bool = True
    plan: Optional[FaultPlan] = None
    retry: RetryPolicy = RetryPolicy()
    degrade: bool = False
    observe: bool = False
    telemetry_interval: Optional[float] = None

    @classmethod
    def for_rank(
        cls,
        rank: int,
        spec: ReduceSpec,
        rounds_values: Sequence[Mapping[int, np.ndarray]],
        **fields: Any,
    ) -> "NodeJob":
        """``rank``'s slice of a whole-cluster job: only its own index
        sets and values travel to it."""
        return cls(
            spec=ReduceSpec(
                in_indices={rank: spec.in_indices[rank]},
                out_indices={rank: spec.out_indices[rank]},
                value_shape=spec.value_shape,
                dtype=spec.dtype,
                op=spec.op,
            ),
            rounds_values=tuple(
                np.asarray(values[rank], dtype=spec.dtype) for values in rounds_values
            ),
            **fields,
        )


def encode_ctl(obj: Any) -> Ctl:
    """``obj`` as a ``ctl`` frame: a protocol-5 pickle whose contiguous
    array buffers travel out of band, as the frame's raw section (in
    band, copied, if they are more than a frame may carry)."""
    buffers: List[pickle.PickleBuffer] = []
    meta = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    if len(buffers) >= MAX_ARRAYS:
        meta, buffers = pickle.dumps(obj, protocol=5), []
    return Ctl(meta, [b.raw() for b in buffers])


def decode_ctl(frame: Ctl) -> Any:
    """The object a ``ctl`` frame carries; its arrays view the frame's
    receive buffer.  Raises :class:`~repro.net.framing.FrameError` on
    an undecodable frame."""
    try:
        return pickle.loads(frame.meta, buffers=frame.buffers)
    except Exception as exc:
        raise FrameError(f"undecodable control frame: {exc}") from exc


class SocketControl:
    """A framed socket with the ``Connection`` surface a session uses.

    ``send`` gather-writes ``obj`` as one ``ctl`` frame (:func:`encode_ctl`).
    ``recv`` returns one object and raises ``EOFError`` when the peer is
    gone — at a frame boundary or mid-frame alike — or sends anything but
    a decodable ``ctl`` frame.  :class:`~repro.net.framing.FrameStream`
    never reads ahead, so ``fileno()`` readability means "a frame is
    waiting"; the timeout the socket carries, if any, bounds a frame that
    stalls midway (``OSError``).
    """

    def __init__(self, sock) -> None:
        self._stream = FrameStream(sock)

    def fileno(self) -> int:
        return self._stream.sock.fileno()

    def send(self, obj: Any) -> None:
        send_frame(self._stream.sock, encode_ctl(obj))

    def recv(self) -> Any:
        try:
            ok, frame = self._stream.recv()  # lint: ok — the socket carries its own timeout
            if not ok:
                raise EOFError("control closed")
            if not isinstance(frame, Ctl):
                raise FrameError(f"a {frame[0]} frame on a control")
            return decode_ctl(frame)
        except FrameError as exc:
            raise EOFError(str(exc)) from exc

    def close(self) -> None:
        self._stream.sock.close()


# ---------------------------------------------------------------------------
# Node half
# ---------------------------------------------------------------------------

def encode_error(exc: BaseException):
    """An exception as it rides the result frame: a typed peer failure
    keeps its slot/phase/layer, anything else is its traceback text."""
    if isinstance(exc, PeerFailedError):
        return ("peer", exc.slot, exc.phase, exc.layer, str(exc))
    return f"{type(exc).__name__}: {exc}\n" + "".join(traceback.format_exception(exc))


def run_node(rank: int, job: NodeJob, open_transport, control, sink=None):
    """One node's blocking session; returns ``(err, rounds_out)`` as sent.

    ``rounds_out`` holds ``(result, lost_raw, losses)`` per *completed*
    round, so a session that fails midway still reports the rounds it
    finished.  ``sink``, if given, also receives each telemetry sample as
    it is taken (a cluster node's live buffer for ``monitor --attach``);
    the samples reach the driver in the snapshot either way.  The order
    below is the contract: see the module docstring.
    """
    plan, retry = job.plan, job.retry
    if plan is not None and not plan.is_alive(rank, 0.0):
        os._exit(1)  # dead from the start: no result, no goodbye

    # A private wall-clock observer; its snapshot rides the result frame
    # back to the driver, which absorbs it under this node's pid row.
    obs = Observer(name=f"node {rank}") if job.observe else NULL_OBSERVER
    sampler = None
    net = None
    err = None
    rounds_out: List[Tuple[np.ndarray, Any, Tuple[LossRecord, ...]]] = []
    cache_stats = {"hits": 0, "misses": 0}
    try:
        net = open_transport(rank, plan, retry, obs)
        if obs.enabled and job.telemetry_interval is not None:
            # Ticks are due calls of the transport's pump, on this thread.
            agent = TelemetryAgent(obs, node=rank, interval=job.telemetry_interval, sink=sink)
            sampler = Sampler(net, agent).start()
        rounds = run_rounds(
            rank,
            net,
            ButterflyTopology(job.degrees, int(np.prod(job.degrees))),
            job.hasher,
            job.spec,
            job.rounds_values,
            strict=job.strict,
            obs=obs,
            degrade=job.degrade,
        )
        for result, lost_raw, losses, cached in rounds:
            if cached is not None:
                cache_stats["hits" if cached else "misses"] += 1
            rounds_out.append((result, lost_raw, losses))
    except Exception as exc:  # surfaced at the driver
        err = encode_error(exc)
    try:
        # Stop (and final-flush) the sampler before the snapshot, so the
        # snapshot carries every sample.
        if sampler is not None:
            sampler.stop(flush=True)
        snapshot = obs.snapshot() if obs.enabled else None
        control.send(("result", rank, err, rounds_out, snapshot, cache_stats))
        if net is not None:
            # A live peer can be at most every remaining exchange behind,
            # each bounded by one receive ladder.
            net.linger(control, 2 * len(job.degrees) * retry.local_budget())
    except OSError:  # driver went away
        pass
    finally:
        if net is not None:
            net.close()
    return err, rounds_out


# ---------------------------------------------------------------------------
# Driver half
# ---------------------------------------------------------------------------

def failure(frame) -> Optional[Exception]:
    """The exception a settled frame stands for (``None`` = clean)."""
    rank = frame[1]
    if frame[0] == "lost":
        return PeerFailedError(frame[2], slot=rank)
    err = frame[2]
    if err is None:
        return None
    if isinstance(err, tuple):
        _, slot, phase, layer, text = err
        return PeerFailedError(text, slot=slot, phase=phase, layer=layer)
    return RuntimeError(f"worker {rank} failed: {err}")


def collect(controls: Mapping[int, Any], *, timeout: float) -> Iterator[tuple]:
    """Yield a session's frames as they arrive, until every rank settled.

    Each rank settles exactly once, with its ``result`` frame or with
    ``("lost", rank, why)`` — when its control breaks or reaches EOF (a
    node that exits closes its end), or when ``timeout`` runs out;
    nothing else wakes the wait.  All controls
    are drained continuously, so a node's blocking send of a large result
    never waits on a slower sibling.  The driver owes the nodes a
    :func:`release` afterwards, on every exit path.
    """
    pending = dict(controls)
    deadline = time.monotonic() + timeout
    while pending:
        ready = wait(list(pending.values()), max(deadline - time.monotonic(), 0.0))
        for rank in [r for r, c in pending.items() if c in ready]:
            try:
                frame = pending[rank].recv()  # lint: ok — wait-guarded
            except (EOFError, OSError) as exc:
                frame = ("lost", rank, f"node {rank} closed its control before a result ({exc})")
            del pending[rank]
            yield frame
        if time.monotonic() >= deadline:
            for rank in sorted(pending):
                yield ("lost", rank, f"node {rank} posted no result within {timeout}s")
            return


def release(controls: Mapping[int, Any], hangup: float = 0.0) -> None:
    """The done handshake: tell every node the driver has finished with
    the session (so it may stop lingering), then close its control.  A
    driver calls this on every exit path once :func:`collect` returned
    or raised.

    A driver that will reuse the nodes first waits up to ``hangup``
    seconds for each to hang up its end: a long-lived node does so once
    its transport is closed and it is back in its accept loop, so the
    next session's frames cannot meet a mesh that is still winding down
    (the analogue of joining a forked worker).
    """
    waiting = []
    for control in controls.values():
        try:
            control.send(("done",))
            waiting.append(control)
        except OSError:  # already gone
            pass
    deadline = time.monotonic() + hangup
    while waiting and (remaining := deadline - time.monotonic()) > 0:
        # Nothing follows a result, so readable means hung up.
        for control in wait(waiting, remaining):
            waiting.remove(control)
    for control in controls.values():
        control.close()


class Collated(NamedTuple):
    """One session's settled frames, decoded (see :func:`collate`)."""

    #: ``{rank: [(result, lost_raw, losses), ...]}`` — completed rounds
    #: of every rank that reported, partial sessions included.
    rounds: Dict[int, List[tuple]]
    #: ``{rank: exception}`` for every rank that failed or was lost.
    errors: Dict[int, Exception]
    #: Ranks gone without a result, ascending.
    dead: List[int]
    #: Summed node-side config-cache consults.
    cache: Dict[str, int]
    #: The session's coverage receipt under degraded completion.
    report: Optional[CoverageReport]


def collate(
    records: Mapping[int, tuple], spec: ReduceSpec, size: int, degrade: bool
) -> Collated:
    """Decode settled frames and apply the dead-rank rule.

    A lost rank (and its result) is gone: its entire requested slice is
    lost, recorded as one ``LossRecord(rank, rank, "combined_down", 0)``;
    the survivors' own ``lost_raw`` / loss events are merged in, and
    under ``degrade`` the lot becomes the session's
    :class:`~repro.faults.CoverageReport`.
    """
    rounds: Dict[int, List[tuple]] = {}
    errors: Dict[int, Exception] = {}
    dead: List[int] = []
    cache = {"hits": 0, "misses": 0}
    lost: Dict[int, List[np.ndarray]] = {}
    losses: List[LossRecord] = []
    for rank, frame in sorted(records.items()):
        exc = failure(frame)
        if exc is not None:
            errors[rank] = exc
        if frame[0] == "lost":
            dead.append(rank)
            lost[rank] = [np.asarray(spec.in_indices[rank])]
            losses.append(LossRecord(rank=rank, member=rank, phase="combined_down", layer=0))
            continue
        _, _, _, rounds_out, _, node_cache = frame
        rounds[rank] = rounds_out
        for _result, lost_raw, round_losses in rounds_out:
            if lost_raw is not None and len(lost_raw):
                lost.setdefault(rank, []).append(lost_raw)
            losses.extend(round_losses)
        cache["hits"] += node_cache["hits"]
        cache["misses"] += node_cache["misses"]
    report = None
    if degrade:
        report = CoverageReport.from_losses(
            spec, size, {r: np.concatenate(chunks) for r, chunks in lost.items()}, losses
        )
    return Collated(rounds, errors, dead, cache, report)
