"""Length-prefixed wire framing for the TCP backend.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of pickled payload.  The framing layer is deliberately tiny and
fully separable from the socket machinery so its failure modes — EOF in
the middle of a header, EOF in the middle of a body (a peer SIGKILLed
mid-send), a corrupt or absurd length prefix — can be unit-tested
without opening a single socket.

Pickle is acceptable here for the same reason it is on the
``multiprocessing`` backend: both ends of every connection are our own
worker processes, spawned by the same launcher from the same code.  The
hard length cap bounds the damage of a corrupt prefix either way.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, List, Optional, Tuple

__all__ = [
    "FrameError",
    "FrameTruncatedError",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_frame",
    "FrameDecoder",
    "FrameStream",
    "recv_frame",
    "send_frame",
]

#: Refuse frames above this size: a corrupt length prefix must fail fast
#: instead of making the receiver allocate gigabytes.  1 GiB comfortably
#: exceeds any payload the protocol produces at reproduction scale.
MAX_FRAME_BYTES = 1 << 30

_HEADER = struct.Struct(">I")


class FrameError(Exception):
    """Malformed wire data: bad length prefix or undecodable payload."""


class FrameTruncatedError(FrameError):
    """The stream ended mid-frame — the peer died between header and
    body (or mid-body).  Distinct from a clean EOF at a frame boundary,
    which is an orderly close, not a fault."""


def encode_frame(obj: Any) -> bytes:
    """Serialize one message into a length-prefixed frame."""
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return _HEADER.pack(len(body)) + body


def decode_frame(buf: bytes) -> Any:
    """Decode exactly one complete frame (header + body, no trailing data)."""
    if len(buf) < _HEADER.size:
        raise FrameTruncatedError(
            f"{len(buf)} bytes is shorter than the {_HEADER.size}-byte header"
        )
    (length,) = _HEADER.unpack_from(buf)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"length prefix {length} exceeds the frame cap")
    body = buf[_HEADER.size:]
    if len(body) < length:
        raise FrameTruncatedError(
            f"body truncated: header promised {length} bytes, got {len(body)}"
        )
    if len(body) > length:
        raise FrameError(f"{len(body) - length} trailing bytes after the frame")
    return _loads(body)


def _loads(body: bytes) -> Any:
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise FrameError(f"undecodable frame body: {exc}") from exc


class FrameDecoder:
    """Incremental decoder: feed raw stream bytes, pop complete messages.

    Used by reader threads: TCP hands back arbitrary chunk boundaries,
    so a message may arrive split across many ``recv`` calls or packed
    several to a chunk.  ``eof()`` distinguishes a clean close (empty
    buffer) from a peer dying mid-frame.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)

    @property
    def missing(self) -> int:
        """Bytes still needed to complete the frame in progress (its
        header first, then its body).  A reader that asks the socket for
        at most this many never consumes a byte of the next frame."""
        if len(self._buf) < _HEADER.size:
            return _HEADER.size - len(self._buf)
        (length,) = _HEADER.unpack_from(self._buf)
        return _HEADER.size + length - len(self._buf)

    def feed(self, chunk: bytes) -> List[Any]:
        """Absorb a chunk; return every message completed by it."""
        self._buf.extend(chunk)
        out: List[Any] = []
        while True:
            msg = self._try_pop()
            if msg is _INCOMPLETE:
                return out
            out.append(msg)

    def eof(self) -> None:
        """The stream closed.  Raises :class:`FrameTruncatedError` if the
        close landed mid-frame (peer death during a send)."""
        if self._buf:
            raise FrameTruncatedError(
                f"stream closed with {len(self._buf)} buffered bytes mid-frame"
            )

    def _try_pop(self):
        if len(self._buf) < _HEADER.size:
            return _INCOMPLETE
        (length,) = _HEADER.unpack_from(self._buf)
        if length > MAX_FRAME_BYTES:
            raise FrameError(f"length prefix {length} exceeds the frame cap")
        end = _HEADER.size + length
        if len(self._buf) < end:
            return _INCOMPLETE
        body = bytes(self._buf[_HEADER.size:end])
        del self._buf[:end]
        return _loads(body)


_INCOMPLETE = object()


def send_frame(sock, obj: Any) -> None:
    """Blocking send of one frame on a connected socket."""
    sock.sendall(encode_frame(obj))


class FrameStream:
    """Stateful multi-frame receiver over one connected socket.

    :func:`recv_frame` enforces a strict one-frame-per-connection
    contract, which suits probes and single replies.  Connections that
    *stream* frames — a session control socket carrying TELEMETRY
    frames ahead of its result — can legitimately pack several frames
    into one TCP chunk; this reader hands them back one at a time, in
    order, and never reads past the frame it returns.  What it has not
    returned is therefore still in the socket, so the socket's
    readability is the truth about pending frames and ``select`` /
    ``multiprocessing.connection.wait`` can multiplex many streams.
    """

    def __init__(self, sock) -> None:
        self.sock = sock
        self._dec = FrameDecoder()

    def recv(self, timeout: Optional[float] = None) -> Tuple[bool, Any]:
        """Next frame: ``(True, message)``, or ``(False, None)`` on a
        clean EOF at a frame boundary.  Raises like :func:`recv_frame`."""
        if timeout is not None:
            self.sock.settimeout(timeout)
        while True:
            chunk = self.sock.recv(min(self._dec.missing, 1 << 20))
            if not chunk:
                self._dec.eof()
                return False, None
            msgs = self._dec.feed(chunk)
            if msgs:
                return True, msgs[0]


def recv_frame(sock, timeout: Optional[float] = None) -> Tuple[bool, Any]:
    """Blocking receive of exactly one frame.

    Returns ``(True, message)``, or ``(False, None)`` on a clean EOF at
    a frame boundary.  Raises :class:`FrameTruncatedError` if the peer
    closed mid-frame and ``socket.timeout`` if ``timeout`` expires.
    """
    if timeout is not None:
        sock.settimeout(timeout)
    dec = FrameDecoder()
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            dec.eof()
            return False, None
        msgs = dec.feed(chunk)
        if msgs:
            if dec.pending_bytes or len(msgs) != 1:
                raise FrameError("trailing data after a single-frame receive")
            return True, msgs[0]
