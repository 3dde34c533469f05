"""Real-execution Kylix: OS processes over socket-pair links.

The simulator (`repro.cluster`) is the measurement instrument; this
module is the existence proof that the protocol "can be run self-
contained" (§I-B) outside any simulation — each logical node is a real
OS process, and messages travel over one ``socket.socketpair()`` per
pair of nodes.  The paper's Java implementation starts a thread per
message so that simultaneous exchanges cannot deadlock on transport
buffers (§VI-B); here a node's one thread gets the same concurrency from
non-blocking writes.  It runs the *combined* protocol (indices + values
in one downward pass, §III) with the simulator's reduction operators.
It is built for correctness and portability rather than throughput:
spawning processes costs ~100 ms each, and a single-core host serialises
them — use the simulator for performance studies.

Only the mesh is local to this file.  The pump over it is
:class:`~repro.net.transport.SocketTransport`, which the TCP backend
runs too; frames are :mod:`repro.net.framing`'s typed raw-buffer
frames, gather-written and decoded as views of their receive buffers.
The node body and the driver's collection are
:mod:`repro.net.session`, the wire medium
:mod:`repro.net.protocol`, fault injection and the NACK/retry/dedupe
layer :mod:`repro.net.transport`, process supervision
:mod:`repro.net.base` — all shared with, and byte-identical on, the TCP
backend (:mod:`repro.net.tcp`).  Each link carries exactly one logical
message per (kind, layer, seq), so a :class:`~repro.faults.FaultPlan`
draws the *same* fault schedule here as on the simulator; wire frames
carry their send timestamp, so receivers emit the same
``message_delivered`` events and ``net.latency`` / ``net.queue_wait``
histograms the simulator fabric does (``CLOCK_MONOTONIC`` is system-wide
on Linux, so worker timestamps are directly comparable).  See
``docs/faults.md`` and ``docs/observability.md``."""

from __future__ import annotations

import socket
from typing import Dict

from .base import ForkedKylixBase
from .transport import SocketTransport

__all__ = ["LocalKylix"]


class LocalKylix(ForkedKylixBase):
    """Kylix over real OS processes (one per logical node).

    Usage mirrors the simulator API, minus timing::

        net = LocalKylix(degrees=[2, 2])
        result = net.allreduce(spec, values)   # spawns 4 worker processes

    Parameters: see :class:`~repro.net.base.ForkedKylixBase`.
    """

    _BACKEND_NAME = "local"

    def _make_mesh(self) -> Dict[int, Dict[int, socket.socket]]:
        # full mesh: one socket pair per pair of ranks
        links: Dict[int, Dict[int, socket.socket]] = {r: {} for r in range(self.size)}
        for i in range(self.size):
            for j in range(i + 1, self.size):
                links[i][j], links[j][i] = socket.socketpair()
        return links

    def _open_transport(self, mesh, rank, plan, retry, obs):
        # A fixed mesh: a link that breaks loses its peer, nothing re-dials.
        return SocketTransport(rank, mesh[rank], plan, retry, obs=obs)

    def _release_mesh(self, mesh) -> None:
        # The children inherited every link end at fork; drop the
        # parent's copies so a dead worker's peers see EOF instead of
        # a silently-held-open descriptor.
        for ends in mesh.values():
            for sock in ends.values():
                sock.close()
