"""Typed wire frames for every socket of the real backends.

One layout carries every byte a real node moves: mesh messages between
nodes, and the session control between a node and its driver.  A frame
is a length prefix, a typed header, an array table and a raw section::

    u32 big-endian   body length (checked against MAX_FRAME_BYTES
                     before anything is allocated)
    --- body -------------------------------------------------------------
    header   <BBBBIiqqqd  type, kind, direction, form, arrays,
                          layer, seq, arg, hole, sent_at
    table    per array:   dtype code (u8), ndim (u8), shape (ndim x u64)
    padding  to 8 bytes
    raw      per array:   its bytes in the host's order, padded to 8

=============  ========================================================
``type``       ``msg``, ``wait``, ``nack``, ``audit-req``,
               ``audit-rep``, ``hello``, ``hb``, ``ctl``
``kind``       the message kind: ``down``, ``rd`` or ``up``
``direction``  an audit fetch's store: ``sent`` or ``recv``
``form``       the part: none (``None``), one array, or a tuple
``arg``        the attempt, the audit token, or the greeting's rank
``hole``       an audit fetch's subject
=============  ========================================================

A dtype code indexes a closed table of numeric dtypes (:data:`DTYPES`);
nothing else can travel.  A mesh frame is a tuple, the shape the
transport dispatches on (``("msg", kind, layer, seq, part, sent_at)``,
``("nack", kind, layer, seq, attempt)``, ``("wait", kind, layer,
seq)``, ``("audit-req", token, direction, layer, seq, hole)``,
``("audit-rep", token, keys)``, ``("hello", rank)``, ``("hb",)``), and
a part is an array, a tuple of arrays, or ``None``.

A ``ctl`` frame (:class:`Ctl`) is the session control's: its first raw
buffer is an opaque metadata section and the rest are raw byte buffers.
This module never interprets them — the codec that does lives beside
:class:`~repro.net.session.SocketControl` — and a mesh decoder refuses a
``ctl`` frame with :class:`FrameError` before looking inside it.

Copies: a sender writes a frame as its list of buffers (:func:`frame_views`,
gather-written by :func:`write_some`), so an array is never copied on the way
out.  A receiver decodes arrays as writeable ``np.frombuffer`` views into
the frame's own receive buffer, with the table's dtype instance: a body
that a read leaves incomplete and that is at least :data:`LARGE_BODY`
long gets a buffer of its exact size and is read straight into it
(:meth:`FrameDecoder.buffer`), so only the bytes of its first read are
copied; a smaller body is copied once out of the read that carried it.

Encoder and decoder share their limits: a frame carries at most
:data:`MAX_ARRAYS` buffers and :data:`MAX_FRAME_BYTES` bytes, and a
sender refuses more with :class:`FrameError` before writing a byte.
Every inconsistency — an unknown code, a table or array that runs past
the body, trailing bytes, an absurd length — raises :class:`FrameError`;
a stream that ends inside a frame raises :class:`FrameTruncatedError`.
Both can be tested without opening a socket.
"""

from __future__ import annotations

import math
import struct
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FrameError",
    "FrameTruncatedError",
    "MAX_FRAME_BYTES",
    "LARGE_BODY",
    "MAX_ARRAYS",
    "DTYPES",
    "Ctl",
    "frame_views",
    "write_some",
    "encode_frame",
    "decode_frame",
    "FrameDecoder",
    "FrameStream",
    "read_some",
    "send_frame",
]

#: Refuse frames above this size: a corrupt length prefix must fail fast
#: instead of making the receiver allocate gigabytes.  1 GiB comfortably
#: exceeds any payload the protocol produces at reproduction scale.
MAX_FRAME_BYTES = 1 << 30

#: An incomplete body at least this long is read into its own buffer.
LARGE_BODY = 1 << 16

#: The dtypes a frame can carry, by code: native byte order, each the
#: canonical instance (``np.dtype(np.float64)`` itself).
DTYPES = tuple(
    np.dtype(t)
    for t in (
        np.bool_, np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32,
        np.int64, np.uint64, np.float16, np.float32, np.float64,
        np.complex64, np.complex128,
    )
)
_CODE = {dt: code for code, dt in enumerate(DTYPES)}
_U8 = _CODE[np.dtype(np.uint8)]

TYPES = ("msg", "wait", "nack", "audit-req", "audit-rep", "hello", "hb", "ctl")
_TYPE = {name: code for code, name in enumerate(TYPES)}
KINDS = ("", "down", "rd", "up")
_KIND = {name: code for code, name in enumerate(KINDS)}
DIRECTIONS = ("", "sent", "recv")
_DIRECTION = {name: code for code, name in enumerate(DIRECTIONS)}

#: Part forms: no part, one array, a tuple of arrays.
_NONE, _ONE, _TUPLE = 0, 1, 2
#: The forms each frame type may carry.
_FORMS = {
    "msg": (_NONE, _ONE, _TUPLE),
    "audit-rep": (_NONE, _ONE),
    "ctl": (_TUPLE,),
}
#: Buffers one frame may carry (the meta section counts for a ``ctl`` frame).
MAX_ARRAYS = 1 << 12
_MAX_NDIM = 8

_PREFIX = struct.Struct(">I")
_HEAD = struct.Struct("<BBBBIiqqqd")
_ENTRY = struct.Struct("<BB")
_DIMS = [struct.Struct(f"<{n}Q") for n in range(_MAX_NDIM + 1)]
_ZEROS = memoryview(bytes(8))
#: Buffers handed to one ``sendmsg`` (below every platform's IOV_MAX).
_IOV = 512


class FrameError(Exception):
    """Malformed wire data: bad length prefix or an inconsistent body."""


class FrameTruncatedError(FrameError):
    """The stream ended mid-frame — the peer died between header and
    body (or mid-body).  Distinct from a clean EOF at a frame boundary,
    which is an orderly close, not a fault."""


class Ctl(NamedTuple):
    """A session-control frame: an opaque metadata section and the raw
    buffers it refers to, each handed over as sent."""

    meta: Any
    buffers: Sequence[Any]


def _array(a) -> np.ndarray:
    a = a if a.__class__ is np.ndarray else np.asarray(a)
    return a if a.flags.c_contiguous else np.ascontiguousarray(a)


def frame_views(frame) -> List[memoryview]:
    """``frame`` as the buffers to write, in order: one for the prefix,
    header and table, then each array's own bytes (and zero padding).
    Nothing is copied: the arrays must not change until written."""
    if isinstance(frame, Ctl):
        code, form = _TYPE["ctl"], _TUPLE
        kind = direction = layer = seq = arg = hole = 0
        sent_at = 0.0
        raws = [memoryview(b).cast("B") for b in (frame.meta, *frame.buffers)]
        entries = [(_U8, (r.nbytes,)) for r in raws]
    else:
        name = frame[0]
        kind = direction = layer = seq = arg = hole = 0
        sent_at, part = 0.0, None
        if name == "msg":
            _, k, layer, seq, part, sent_at = frame
            kind = _KIND[k]
        elif name in ("nack", "wait"):
            kind, layer, seq = _KIND[frame[1]], frame[2], frame[3]
            arg = frame[4] if name == "nack" else 0
        elif name == "audit-req":
            _, arg, d, layer, seq, hole = frame
            direction = _DIRECTION[d]
        elif name == "audit-rep":
            _, arg, part = frame
        elif name == "hello":
            arg = frame[1]
        elif name != "hb":
            raise FrameError(f"{name!r} is not a mesh frame")
        code = _TYPE[name]
        if part is None:
            form, arrays = _NONE, ()
        elif isinstance(part, tuple):
            form, arrays = _TUPLE, tuple(_array(a) for a in part)
        else:
            form, arrays = _ONE, (_array(part),)
        entries = []
        for a in arrays:
            dcode = _CODE.get(a.dtype)
            if dcode is None or a.ndim > _MAX_NDIM:
                raise FrameError(f"a {a.dtype} array of {a.ndim} dimensions cannot travel")
            entries.append((dcode, a.shape))
        raws = [memoryview(a).cast("B") for a in arrays]
    if len(raws) > MAX_ARRAYS:
        raise FrameError(f"{len(raws)} buffers exceed the {MAX_ARRAYS}-buffer cap of a frame")
    table = b"".join(_ENTRY.pack(c, len(s)) + _DIMS[len(s)].pack(*s) for c, s in entries)
    pad = -(_HEAD.size + len(table)) % 8
    body = _HEAD.size + len(table) + pad + sum(r.nbytes + (-r.nbytes % 8) for r in raws)
    if body > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {body} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
    head = _HEAD.pack(code, kind, direction, form, len(raws), layer, seq, arg, hole, sent_at)
    views = [memoryview(_PREFIX.pack(body) + head + table + bytes(pad))]
    for r in raws:
        if r.nbytes:
            views.append(r)
        if r.nbytes % 8:
            views.append(_ZEROS[: -r.nbytes % 8])
    return views


def write_some(sock, views: List[memoryview]) -> bool:
    """One ``sendmsg`` of the head of ``views`` (at most :data:`_IOV`
    buffers); drop what it wrote from ``views`` in place.  True once
    nothing is left."""
    sent = sock.sendmsg(views[:_IOV])
    while sent:
        first = views[0]
        if sent < first.nbytes:
            views[0] = first[sent:]
            return False
        sent -= first.nbytes
        del views[0]
    return not views


def encode_frame(frame) -> bytes:
    """``frame`` as one byte string (the buffers of :func:`frame_views`, joined)."""
    return b"".join(frame_views(frame))


def _decode(body, ctl: bool):
    """One frame from its body, a writeable buffer its arrays view."""
    size = len(body)
    if size < _HEAD.size:
        raise FrameError(f"a {size}-byte body is shorter than the header")
    code, kind, direction, form, count, layer, seq, arg, hole, sent_at = _HEAD.unpack_from(body)
    if code >= len(TYPES) or kind >= len(KINDS) or direction >= len(DIRECTIONS):
        raise FrameError(f"unknown type, kind or direction code ({code}, {kind}, {direction})")
    name = TYPES[code]
    if name == "ctl" and not ctl:
        raise FrameError("a ctl frame on a mesh link")
    if form not in _FORMS.get(name, (_NONE,)):
        raise FrameError(f"a {name} frame cannot carry part form {form}")
    expected = {_NONE: 0, _ONE: 1}.get(form, count)
    if count > MAX_ARRAYS or count != expected or (name == "ctl" and not count):
        raise FrameError(f"{count} arrays do not make a {name} frame of part form {form}")
    if (name in ("msg", "nack", "wait")) != (kind > 0) or (name == "audit-req") != (direction > 0):
        raise FrameError(f"a {name} frame with kind {kind} and direction {direction}")
    pos, entries = _HEAD.size, []
    for _ in range(count):
        if pos + _ENTRY.size > size:
            raise FrameError("the array table runs past the body")
        dcode, ndim = _ENTRY.unpack_from(body, pos)
        pos += _ENTRY.size
        if dcode >= len(DTYPES) or ndim > _MAX_NDIM or pos + 8 * ndim > size:
            raise FrameError(f"bad array entry (dtype code {dcode}, ndim {ndim})")
        shape = _DIMS[ndim].unpack_from(body, pos)
        pos += 8 * ndim
        entries.append((DTYPES[dcode], shape))
    pos += -pos % 8
    arrays: List[Any] = []
    for dtype, shape in entries:
        items = math.prod(shape)
        nbytes = items * dtype.itemsize
        if pos + nbytes > size:
            raise FrameError("an array runs past the body")
        if name == "ctl":
            if dtype is not DTYPES[_U8] or len(shape) != 1:
                raise FrameError("a ctl frame carries raw byte buffers only")
            arrays.append(memoryview(body)[pos : pos + nbytes])
        elif items:
            arrays.append(np.frombuffer(body, dtype, items, pos).reshape(shape))
        else:
            try:  # no bytes, but numpy still refuses a shape whose other dims overflow
                arrays.append(np.empty(shape, dtype))
            except ValueError:
                raise FrameError(f"an empty array of impossible shape {shape}") from None
        pos += nbytes + (-nbytes % 8)
    if pos != size:
        raise FrameError(f"{size - pos} trailing bytes after the frame's arrays")
    if name == "ctl":
        return Ctl(arrays[0], arrays[1:])
    part = None if form == _NONE else arrays[0] if form == _ONE else tuple(arrays)
    if name == "msg":
        return ("msg", KINDS[kind], layer, seq, part, sent_at)
    if name == "nack":
        return ("nack", KINDS[kind], layer, seq, arg)
    if name == "wait":
        return ("wait", KINDS[kind], layer, seq)
    if name == "audit-req":
        return ("audit-req", arg, DIRECTIONS[direction], layer, seq, hole)
    if name == "audit-rep":
        return ("audit-rep", arg, part)
    if name == "hello":
        return ("hello", arg)
    return ("hb",)


def decode_frame(buf):
    """Decode exactly one complete mesh frame (prefix + body, no trailing data)."""
    if len(buf) < _PREFIX.size:
        raise FrameTruncatedError(
            f"{len(buf)} bytes is shorter than the {_PREFIX.size}-byte header"
        )
    (length,) = _PREFIX.unpack_from(buf)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"length prefix {length} exceeds the frame cap")
    body = len(buf) - _PREFIX.size
    if body < length:
        raise FrameTruncatedError(f"body truncated: header promised {length} bytes, got {body}")
    if body > length:
        raise FrameError(f"{body - length} trailing bytes after the frame")
    return _decode(bytearray(memoryview(buf)[_PREFIX.size :]), False)


class FrameDecoder:
    """Incremental decoder: feed raw stream bytes, pop complete frames.

    A stream hands back arbitrary chunk boundaries, so a frame may arrive
    split across many reads or packed several to a chunk.  While a large
    body is in progress, :meth:`buffer` is where the next bytes belong
    (``recv_into`` it, then report them with :meth:`filled`).  ``ctl``:
    whether ``ctl`` frames are accepted (a session control) or refused
    (a mesh link).  ``eof()`` distinguishes a clean close from a peer
    dying mid-frame.
    """

    def __init__(self, *, ctl: bool = False) -> None:
        self.ctl = ctl
        self._buf = bytearray()
        self._body: Optional[np.ndarray] = None
        self._filled = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes held of the frame in progress."""
        return len(self._buf) + self._filled

    @property
    def missing(self) -> int:
        """Bytes still needed to complete the frame in progress (its
        prefix first, then its body).  A reader that asks the socket for
        at most this many never consumes a byte of the next frame."""
        if self._body is not None:
            return self._body.size - self._filled
        if len(self._buf) < _PREFIX.size:
            return _PREFIX.size - len(self._buf)
        (length,) = _PREFIX.unpack_from(self._buf)
        return _PREFIX.size + length - len(self._buf)

    def buffer(self) -> Optional[memoryview]:
        """The unfilled rest of the large body in progress, or None."""
        if self._body is None:
            return None
        return memoryview(self._body)[self._filled :]

    def filled(self, n: int) -> List[Any]:
        """``n`` more bytes of :meth:`buffer` arrived; the frame if complete."""
        self._filled += n
        body = self._body
        if self._filled < body.size:
            return []
        self._body, self._filled = None, 0
        return [_decode(body, self.ctl)]

    def feed(self, chunk) -> List[Any]:
        """Absorb a chunk; return every frame completed by it."""
        if self._body is not None:
            take = min(len(chunk), self.missing)
            self._body[self._filled : self._filled + take] = np.frombuffer(chunk, np.uint8, take)
            out = self.filled(take)
            return out + self.feed(memoryview(chunk)[take:]) if take < len(chunk) else out
        if self._buf:
            self._buf += chunk
            chunk = self._buf
        out: List[Any] = []
        pos, size = 0, len(chunk)
        with memoryview(chunk) as mv:
            while size - pos >= _PREFIX.size:
                (length,) = _PREFIX.unpack_from(mv, pos)
                if length > MAX_FRAME_BYTES:
                    raise FrameError(f"length prefix {length} exceeds the frame cap")
                start, end = pos + _PREFIX.size, pos + _PREFIX.size + length
                if end > size:
                    # Once some of a large body is in (not on a bare prefix,
                    # which sizes nothing), the rest goes into its own buffer.
                    if length >= LARGE_BODY and size > start:
                        self._body = np.empty(length, np.uint8)
                        self._filled = size - start
                        self._body[: self._filled] = mv[start:]
                        pos = size
                    break
                out.append(_decode(bytearray(mv[start:end]), self.ctl))
                pos = end
            self._buf = bytearray(mv[pos:])
        return out

    def eof(self) -> None:
        """The stream closed.  Raises :class:`FrameTruncatedError` if the
        close landed mid-frame (peer death during a send)."""
        if self.pending_bytes or self._body is not None:
            raise FrameTruncatedError(
                f"stream closed with {self.pending_bytes} buffered bytes mid-frame"
            )


def read_some(sock, decoder: FrameDecoder, size: int) -> Tuple[Optional[List[Any]], bool]:
    """One read from ``sock`` into ``decoder``: at most ``size`` bytes,
    or, while a large body is in progress, the rest of it, straight into
    its own buffer.  Returns the frames it completed (None at EOF) and
    whether the read came back short of what it asked for."""
    view = decoder.buffer()
    if view is not None:
        n = sock.recv_into(view)
        return (decoder.filled(n) if n else None), n < len(view)
    chunk = sock.recv(size)
    return (decoder.feed(chunk) if chunk else None), len(chunk) < size


def send_frame(sock, frame) -> None:
    """Blocking gather-write of one frame on a connected socket."""
    views = frame_views(frame)
    while not write_some(sock, views):
        pass


class FrameStream:
    """Stateful multi-frame receiver over one connected socket.

    Connections that *stream* frames — a peer's hello with its first
    parts right behind it — can pack several frames into one TCP chunk;
    this reader hands them back one at a time, in order, and never reads
    past the frame it returns.  What it has not returned
    is therefore still in the socket, so the socket's readability is the
    truth about pending frames and ``select`` can multiplex many
    streams.  It accepts ``ctl`` frames: a listening socket's first
    frame may be either kind, and a control carries nothing else.
    """

    def __init__(self, sock) -> None:
        self.sock = sock
        self._dec = FrameDecoder(ctl=True)

    def recv(self, timeout: Optional[float] = None) -> Tuple[bool, Any]:
        """Next frame: ``(True, frame)``, or ``(False, None)`` on a clean
        EOF at a frame boundary.  Raises :class:`FrameTruncatedError` if
        the peer closed mid-frame and ``socket.timeout`` if ``timeout``
        expires."""
        if timeout is not None:
            self.sock.settimeout(timeout)
        while True:
            # Capped, so a length prefix never sizes a read.
            frames, _ = read_some(self.sock, self._dec, min(self._dec.missing, LARGE_BODY))
            if frames is None:
                self._dec.eof()
                return False, None
            if frames:
                return True, frames[0]
