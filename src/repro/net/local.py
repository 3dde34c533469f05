"""Real-execution Kylix: OS processes, pipes, and sender threads.

The simulator (`repro.cluster`) is the measurement instrument; this
module is the existence proof that the protocol "can be run self-
contained" (§I-B) outside any simulation — each logical node is a real
OS process, messages travel over ``multiprocessing`` connections, and
sends run on background threads exactly like the paper's Java
implementation ("we start threads to send all messages concurrently",
§VI-B) so that simultaneous exchanges cannot deadlock on pipe buffers.

It executes the *combined* variant of the protocol (indices + values in
one downward pass, §III) and supports the same reduction operators as
the simulator.  A receiver blocks in one ``multiprocessing.connection.
wait`` over all its pipes and wakes on arrival, so a round costs its
merges and context switches, not a poll period.  It is still built for
correctness and portability rather than throughput: spawning processes
costs ~100 ms each, and a single-core host serialises them — use the
simulator for performance studies.

Only the medium (pipe send/receive) is local to this file.  The node
body and the driver's collection are :mod:`repro.net.session`, the
wire medium :mod:`repro.net.protocol`, fault injection and the
NACK/retry/dedupe layer :mod:`repro.net.transport`, process supervision
:mod:`repro.net.base` — all shared with, and byte-identical on, the TCP
backend (:mod:`repro.net.tcp`).  Each link carries exactly one logical
message per (kind, layer, seq), so a :class:`~repro.faults.FaultPlan`
draws the *same* fault schedule here as on the simulator; wire frames
carry their send timestamp, so receivers emit the same
``message_delivered`` events and ``net.latency`` / ``net.queue_wait``
histograms the simulator fabric does (``CLOCK_MONOTONIC`` is system-wide
on Linux, so worker timestamps are directly comparable).  See
``docs/faults.md`` and ``docs/observability.md``.
"""

from __future__ import annotations

from multiprocessing.connection import wait
from typing import Dict

from ..obs import NULL_OBSERVER
from ..verify.watchlock import watched_lock
from .base import ForkedKylixBase
from .transport import BaseTransport

__all__ = ["LocalKylix", "LocalTransport"]


class LocalTransport(BaseTransport):
    """The reliability layer over a full mesh of duplex pipes.

    A ``multiprocessing.Connection`` is not thread-safe, so each link
    carries a send lock; sends run on one fresh thread per post (cheap
    at pipe latencies, and exactly the paper's concurrent-send shape).
    Receives happen only on the thread that calls ``pump``.
    """

    def __init__(self, rank, conns, plan, retry, obs=NULL_OBSERVER):
        super().__init__(rank, plan, retry, obs)
        self.conns = conns
        self.locks = {m: watched_lock(f"net.local.LocalTransport.locks[{m}]") for m in conns}

    def _send_frame(self, member, frame) -> None:
        try:
            with self.locks[member]:
                self.conns[member].send(frame)
        except (BrokenPipeError, OSError):  # peer already gone
            self.closed.add(member)

    def _pump_once(self, timeout):
        """Block in one ``wait`` over every open pipe, then drain the
        readable ones; returns peers hit EOF (which also reads as
        "readable", so a death wakes the wait like an arrival does)."""
        links = {conn: m for m, conn in self.conns.items() if m not in self.closed}
        dead = []
        for conn in wait(list(links), timeout):  # a negative timeout is a zero one
            member = links[conn]
            try:
                while conn.poll(0):
                    self._dispatch(member, conn.recv())  # lint: ok — poll-guarded
            except (EOFError, OSError):
                self.closed.add(member)
                dead.append(member)
        return dead


class LocalKylix(ForkedKylixBase):
    """Kylix over real OS processes (one per logical node).

    Usage mirrors the simulator API, minus timing::

        net = LocalKylix(degrees=[2, 2])
        result = net.allreduce(spec, values)   # spawns 4 worker processes

    Parameters: see :class:`~repro.net.base.ForkedKylixBase`.
    """

    _BACKEND_NAME = "local"

    def _make_mesh(self, ctx) -> Dict[int, Dict[int, object]]:
        # full mesh of duplex pipes
        conns: Dict[int, Dict[int, object]] = {r: {} for r in range(self.size)}
        for i in range(self.size):
            for j in range(i + 1, self.size):
                a, b = ctx.Pipe(duplex=True)
                conns[i][j] = a
                conns[j][i] = b
        return conns

    def _open_transport(self, mesh, rank, plan, retry, obs):
        return LocalTransport(rank, mesh[rank], plan, retry, obs=obs)

    def _release_mesh(self, mesh) -> None:
        # The children inherited every pipe end at fork; drop the
        # parent's copies so a dead worker's peers see EOF instead of
        # a silently-held-open descriptor.
        for ends in mesh.values():
            for conn in ends.values():
                conn.close()
