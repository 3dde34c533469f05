"""Real-execution Kylix: OS processes over socket-pair links.

The simulator (`repro.cluster`) is the measurement instrument; this
module is the existence proof that the protocol "can be run self-
contained" (§I-B) outside any simulation — each logical node is a real
OS process, and messages travel over one ``socket.socketpair()`` per
pair of nodes.  The paper's Java implementation starts a thread per
message so that simultaneous exchanges cannot deadlock on transport
buffers (§VI-B); here a node's one thread gets the same concurrency from
non-blocking writes.

It executes the *combined* variant of the protocol (indices + values in
one downward pass, §III) and supports the same reduction operators as
the simulator.  A receiver blocks in one ``selectors`` call over all its
links and wakes on arrival, so a round costs its merges and context
switches, not a poll period or a thread start.  It is still
built for correctness and portability rather than throughput: spawning
processes costs ~100 ms each, and a single-core host serialises them —
use the simulator for performance studies.

Only the medium (link send/receive) is local to this file.  Frames are
:mod:`repro.net.framing`'s length-prefixed pickles, decoded by the same
:class:`~repro.net.framing.FrameDecoder` the TCP backend uses; they pass
only between forked siblings.  The node body and the driver's collection
are :mod:`repro.net.session`, the wire medium :mod:`repro.net.protocol`,
fault injection and the NACK/retry/dedupe layer
:mod:`repro.net.transport`, process supervision :mod:`repro.net.base` —
all shared with, and byte-identical on, the TCP backend
(:mod:`repro.net.tcp`).  Each link carries exactly one logical message
per (kind, layer, seq), so a :class:`~repro.faults.FaultPlan` draws the
*same* fault schedule here as on the simulator; wire frames carry their
send timestamp, so receivers emit the same ``message_delivered`` events
and ``net.latency`` / ``net.queue_wait`` histograms the simulator fabric
does (``CLOCK_MONOTONIC`` is system-wide on Linux, so worker timestamps
are directly comparable).  See ``docs/faults.md`` and
``docs/observability.md``.
"""

from __future__ import annotations

import selectors
import socket
from collections import deque
from contextlib import suppress
from typing import Deque, Dict

from ..obs import NULL_OBSERVER
from .base import ForkedKylixBase
from .framing import FrameDecoder, FrameError, encode_frame
from .transport import BaseTransport

__all__ = ["LocalKylix", "LocalTransport"]

#: Bytes asked of a readable link per ``recv``.
_CHUNK = 1 << 18


class LocalTransport(BaseTransport):
    """The reliability layer over a full mesh of socket-pair links.

    ``links`` maps each peer to this node's end of their socket pair.
    One thread owns the transport, so a link needs no lock: a send
    writes what the socket takes without blocking and queues the rest as
    the link's unsent tail, in order; :meth:`_pump_once` flushes tails
    as their sockets turn writable and feeds reads to the link's
    :class:`~repro.net.framing.FrameDecoder`.
    """

    def __init__(self, rank, links, plan, retry, obs=NULL_OBSERVER):
        super().__init__(rank, plan, retry, obs)
        self.links: Dict[int, socket.socket] = links
        self._tails: Dict[int, Deque[memoryview]] = {m: deque() for m in links}
        self._decoders = {m: FrameDecoder() for m in links}
        self._selector = selectors.DefaultSelector()
        for member, sock in links.items():
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ, member)

    def _send_frame(self, member, frame) -> None:
        if member in self.closed:
            return  # peer already gone: the reliability layer reports it
        tail = self._tails[member]
        tail.append(memoryview(encode_frame(frame)))
        if len(tail) == 1:  # nothing queued ahead of it: write what fits now
            self._flush_tail(member)

    def _unsent(self) -> bool:
        return any(self._tails.values())

    def _pump_once(self, timeout):
        """One ``select`` over every open link, then flush the writable
        tails and drain the readable links; returns peers hit EOF (which
        also reads as "readable", so a death wakes the wait like an
        arrival does)."""
        dead = []
        for key, events in self._selector.select(max(timeout, 0.0)):
            member = key.data
            if events & selectors.EVENT_WRITE and member not in self.closed:
                self._flush_tail(member)
            if events & selectors.EVENT_READ and member not in self.closed:
                if not self._drain(member):
                    self._lose(member)
                    dead.append(member)
        return dead

    def _flush_tail(self, member) -> None:
        """Write as much of ``member``'s tail as its socket takes now, and
        wait for write readiness on it only while some is left."""
        sock, tail = self.links[member], self._tails[member]
        try:
            while tail:
                sent = sock.send(tail[0])
                if sent < len(tail[0]):
                    tail[0] = tail[0][sent:]
                    break
                tail.popleft()
        except BlockingIOError:
            pass
        except OSError:
            self._lose(member)
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if tail else 0)
        if self._selector.get_key(sock).events != events:
            self._selector.modify(sock, events, member)

    def _drain(self, member) -> bool:
        """Read and dispatch everything ``member``'s link holds; False
        once it reached EOF or carried a corrupt frame."""
        sock, decoder = self.links[member], self._decoders[member]
        try:
            while True:
                chunk = sock.recv(_CHUNK)
                if not chunk:
                    return False  # EOF, at a frame boundary or mid-frame
                for frame in decoder.feed(chunk):
                    self._dispatch(member, frame)
                if len(chunk) < _CHUNK:
                    return True
        except BlockingIOError:
            return True
        except (OSError, FrameError):
            return False

    def _lose(self, member) -> None:
        """``member``'s link is gone: close it to the pump, drop its tail."""
        self.closed.add(member)
        self._tails[member].clear()
        with suppress(KeyError, ValueError):
            self._selector.unregister(self.links[member])

    def close(self) -> None:
        self._selector.close()
        for sock in self.links.values():
            sock.close()


class LocalKylix(ForkedKylixBase):
    """Kylix over real OS processes (one per logical node).

    Usage mirrors the simulator API, minus timing::

        net = LocalKylix(degrees=[2, 2])
        result = net.allreduce(spec, values)   # spawns 4 worker processes

    Parameters: see :class:`~repro.net.base.ForkedKylixBase`.
    """

    _BACKEND_NAME = "local"

    def _make_mesh(self, ctx) -> Dict[int, Dict[int, socket.socket]]:
        # full mesh: one socket pair per pair of ranks
        links: Dict[int, Dict[int, socket.socket]] = {r: {} for r in range(self.size)}
        for i in range(self.size):
            for j in range(i + 1, self.size):
                links[i][j], links[j][i] = socket.socketpair()
        return links

    def _open_transport(self, mesh, rank, plan, retry, obs):
        return LocalTransport(rank, mesh[rank], plan, retry, obs=obs)

    def _release_mesh(self, mesh) -> None:
        # The children inherited every link end at fork; drop the
        # parent's copies so a dead worker's peers see EOF instead of
        # a silently-held-open descriptor.
        for ends in mesh.values():
            for sock in ends.values():
                sock.close()
