"""The typed wire frames, exercised without any real protocol run.

The failure mode that matters is a peer SIGKILLed mid-send: the stream
ends inside a frame (mid-header or mid-body) and the reader must raise
:class:`FrameTruncatedError` — a first-class fault, distinct from the
orderly close at a frame boundary that ends every healthy connection.
The other is hostile bytes: whatever arrives, a mesh decoder returns a
frame or raises :class:`FrameError`, allocates nothing above the cap,
and never runs a control frame's pickle.
"""

import socket
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import framing
from repro.net.framing import (
    DTYPES,
    LARGE_BODY,
    MAX_ARRAYS,
    MAX_FRAME_BYTES,
    Ctl,
    FrameDecoder,
    FrameError,
    FrameStream,
    FrameTruncatedError,
    decode_frame,
    encode_frame,
    frame_views,
    send_frame,
)
from repro.net.session import SocketControl, encode_ctl
from repro.net.transport import SocketTransport
from repro.faults import RetryPolicy

KEYS = np.arange(5, dtype=np.uint64)
FRAMES = [
    ("msg", "down", 1, 3, (KEYS, KEYS[:2], np.ones((5, 3)), np.ones(5, dtype=bool)), 12.5),
    ("msg", "rd", 2, 0, np.arange(4.0, dtype=np.float32), 0.25),
    ("msg", "up", 1, 9, None, 1.0),
    ("nack", "rd", 2, 7, 3),
    ("wait", "up", 1, 0),
    ("audit-req", 9, "recv", 1, 4, 2),
    ("audit-rep", 9, KEYS),
    ("audit-rep", 9, None),
    ("hello", 3),
    ("hb",),
]


def same(a, b) -> bool:
    """Frames equal field by field, arrays by dtype, shape and bytes."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        )
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def arrays_of(frame):
    part = frame[4] if frame[0] == "msg" else frame[2] if frame[0] == "audit-rep" else None
    return [] if part is None else list(part) if isinstance(part, tuple) else [part]


class SideEffect:
    """Unpickling this runs code: a hostile control frame's payload."""

    ran = []

    def __reduce__(self):
        return (SideEffect.ran.append, ("pwned",))


class TestCodec:
    def test_roundtrip(self):
        for frame in FRAMES:
            assert same(decode_frame(encode_frame(frame)), frame), frame[0]

    def test_roundtrip_ndarray(self):
        for dtype in DTYPES:
            arr = np.arange(24).reshape(4, 6).astype(dtype)
            back = decode_frame(encode_frame(("msg", "up", 1, 0, arr, 0.0)))[4]
            assert back.dtype is dtype  # the canonical instance itself
            assert back.flags.writeable
            np.testing.assert_array_equal(back, arr)

    def test_non_contiguous_and_scalar_parts_travel(self):
        arr = np.arange(12.0).reshape(3, 4)[:, 1]
        part = decode_frame(encode_frame(("msg", "up", 1, 0, (arr, 7), 0.0)))[4]
        np.testing.assert_array_equal(part[0], arr)
        assert part[1].shape == () and int(part[1]) == 7

    def test_unlisted_dtypes_cannot_travel(self):
        for arr in (np.array([object()]), np.arange(3, dtype=">f8"), np.array(["x"])):
            with pytest.raises(FrameError, match="cannot travel"):
                encode_frame(("msg", "up", 1, 0, arr, 0.0))
        with pytest.raises(FrameError, match="not a mesh frame"):
            encode_frame(("session", 1))

    def test_eof_mid_header(self):
        frame = encode_frame(("hb",))
        with pytest.raises(FrameTruncatedError, match="header"):
            decode_frame(frame[:2])

    def test_eof_mid_body(self):
        frame = encode_frame(FRAMES[0])
        with pytest.raises(FrameTruncatedError, match="truncated"):
            decode_frame(frame[:-5])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(FrameError, match="trailing"):
            decode_frame(encode_frame(("hb",)) + b"junk")

    def test_absurd_length_prefix_rejected(self):
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(FrameError, match="cap"):
            decode_frame(header + b"")

    def test_undecodable_body_rejected(self):
        def framed(body: bytes) -> bytes:
            return len(body).to_bytes(4, "big") + body

        with pytest.raises(FrameError, match="shorter than the header"):
            decode_frame(framed(b"\xde\xad\xbe\xef"))
        good = bytearray(encode_frame(FRAMES[1]))
        bad_type = bytearray(good)
        bad_type[4] = 200  # the type code
        with pytest.raises(FrameError, match="unknown"):
            decode_frame(bytes(bad_type))
        # The table promises a longer array than the body holds.
        table = 4 + struct.calcsize("<BBBBIiqqqd") + 2
        huge = bytearray(good)
        huge[table : table + 8] = (1 << 40).to_bytes(8, "little")
        with pytest.raises(FrameError, match="runs past"):
            decode_frame(bytes(huge))
        # A part form its type may not carry.
        hb = bytearray(encode_frame(("hb",)))
        hb[7] = 1  # form: one array
        with pytest.raises(FrameError):
            decode_frame(bytes(hb))

    def test_ctl_frames_are_refused_on_the_mesh(self):
        SideEffect.ran.clear()
        wire = encode_frame(encode_ctl(("session", SideEffect())))
        for feed in (decode_frame, FrameDecoder().feed):
            with pytest.raises(FrameError, match="ctl frame on a mesh link"):
                feed(wire)
        (ctl,) = FrameDecoder(ctl=True).feed(wire)
        assert isinstance(ctl, Ctl)
        assert SideEffect.ran == []  # framing never unpickles


    def test_more_buffers_than_a_frame_carries_are_refused_at_the_sender(self):
        many = [np.zeros(1, np.uint8)] * MAX_ARRAYS
        wire = encode_frame(Ctl(b"m", many[1:]))  # exactly at the cap
        (frame,) = FrameDecoder(ctl=True).feed(wire)
        assert len(frame.buffers) == MAX_ARRAYS - 1
        with pytest.raises(FrameError, match="cap"):
            frame_views(Ctl(b"m", many))
        with pytest.raises(FrameError, match="cap"):
            frame_views(("msg", "up", 1, 0, tuple(many) + (KEYS,), 0.0))


class TestFrameDecoder:
    def test_byte_at_a_time_reassembly(self):
        stream = b"".join(encode_frame(f) for f in FRAMES)
        dec = FrameDecoder()
        got = []
        for i in range(len(stream)):
            got.extend(dec.feed(stream[i : i + 1]))
        assert same(tuple(got), tuple(FRAMES))
        assert dec.pending_bytes == 0
        dec.eof()  # clean close at a frame boundary: no error

    def test_several_frames_per_chunk(self):
        dec = FrameDecoder()
        assert same(tuple(dec.feed(b"".join(encode_frame(f) for f in FRAMES))), tuple(FRAMES))

    def test_eof_mid_frame_raises(self):
        dec = FrameDecoder()
        frame = encode_frame(FRAMES[0])
        assert dec.feed(frame[: len(frame) // 2]) == []
        with pytest.raises(FrameTruncatedError, match="mid-frame"):
            dec.eof()

    def test_eof_mid_header_raises(self):
        dec = FrameDecoder()
        assert dec.feed(b"\x00\x00") == []
        with pytest.raises(FrameTruncatedError):
            dec.eof()

    def test_large_body_is_read_into_its_own_buffer(self):
        values = np.arange(4 * LARGE_BODY, dtype=np.float64)
        keys = np.arange(values.size, dtype=np.uint64)
        wire = encode_frame(("msg", "down", 1, 0, (keys, values), 2.0))
        dec = FrameDecoder()
        assert dec.feed(wire[:1000]) == []  # the first read: copied once
        rest = dec.buffer()
        assert rest is not None and len(rest) == len(wire) - 1000 == dec.missing
        rest[:] = wire[1000:]  # what recv_into does
        (frame,) = dec.filled(len(rest))
        got_keys, got_values = frame[4]
        np.testing.assert_array_equal(got_values, values)
        assert got_keys.dtype is np.dtype(np.uint64)
        assert got_values.dtype is np.dtype(np.float64)
        assert got_values.flags.writeable
        # Views, not copies: they see writes to the receive buffer.
        rest[-8:] = np.float64(-1.0).tobytes()
        assert got_values[-1] == -1.0
        assert dec.buffer() is None and dec.pending_bytes == 0
        dec.eof()

    def test_eof_inside_a_large_body_raises(self):
        wire = encode_frame(("msg", "up", 1, 0, np.zeros(LARGE_BODY), 0.0))
        dec = FrameDecoder()
        dec.feed(wire[: len(wire) // 2])
        assert dec.buffer() is not None
        with pytest.raises(FrameTruncatedError):
            dec.eof()


def _decode_all(data: bytes, chunk: int):
    dec = FrameDecoder()
    out = []
    for i in range(0, len(data), chunk):
        out.extend(dec.feed(data[i : i + chunk]))
    dec.eof()
    return out


class TestHostileBytes:
    """Arbitrary bytes, truncations and over-cap prefixes: a frame or a
    typed error, nothing else, and no allocation above the cap."""

    CAP = 1 << 16

    @given(st.binary(max_size=512), st.integers(1, 64))
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_bytes(self, monkeypatch, data, chunk):
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", self.CAP)
        tracemalloc.start()
        try:
            _decode_all(data, chunk)
        except FrameError:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < self.CAP + (1 << 16)

    @given(
        st.sampled_from([encode_frame(f) for f in FRAMES]),
        st.integers(0, 10_000),
        st.binary(min_size=1, max_size=8),
        st.integers(1, 64),
    )
    @settings(max_examples=300)
    def test_truncated_and_corrupted_frames(self, wire, at, junk, chunk):
        at %= len(wire)
        for data in (wire[:at], wire[:at] + junk + wire[at + len(junk) :]):
            try:
                frames = _decode_all(data, chunk)
            except FrameError:
                continue
            for frame in frames:
                assert isinstance(frame, tuple) and frame[0] in framing.TYPES
                for a in arrays_of(frame):
                    assert a.dtype is DTYPES[DTYPES.index(a.dtype)]

    def test_empty_array_with_an_overflowing_shape_is_a_frame_error(self):
        # a msg frame whose one array has ndim 5, a zero dim and dims whose
        # product overflows: no bytes to read, but numpy cannot build it
        data = bytes.fromhex(
            "00000060040000010100000000000000000000000000000009000000000000"
            "00000000000000000000000000000000000805000300000000000000000000"
            "0000000000000001000000000000000200000000000000030000000000000004"
            "00000000000000"
        )
        with pytest.raises(FrameError, match="impossible shape"):
            _decode_all(data, 1)

    @given(st.integers(MAX_FRAME_BYTES + 1, (1 << 32) - 1), st.binary(max_size=64))
    @settings(max_examples=50)
    def test_over_cap_prefix_allocates_nothing(self, length, tail):
        tracemalloc.start()
        try:
            with pytest.raises(FrameError, match="cap"):
                FrameDecoder().feed(length.to_bytes(4, "big") + tail)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 1 << 16


class TestSocketHelpers:
    def test_send_recv_roundtrip(self):
        a, b = socket.socketpair()
        try:
            frame = ("msg", "up", 2, 5, (np.arange(8), np.arange(3.0)), 4.0)
            send_frame(a, frame)
            ok, msg = FrameStream(b).recv(timeout=2.0)
            assert ok and same(msg, frame)
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_false(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert FrameStream(b).recv(timeout=2.0) == (False, None)
        finally:
            b.close()

    def test_peer_death_mid_frame_raises(self):
        """The acceptance shape: the sender dies after the header but
        before the body finishes — the reader sees EOF mid-frame."""
        a, b = socket.socketpair()
        frame = encode_frame(("msg", "up", 1, 0, np.zeros(512), 0.0))

        def die_mid_send():
            a.sendall(frame[: len(frame) // 2])
            a.close()

        t = threading.Thread(target=die_mid_send)
        t.start()
        try:
            with pytest.raises(FrameTruncatedError):
                FrameStream(b).recv(timeout=2.0)
        finally:
            t.join(timeout=2.0)
            b.close()

    def test_control_results_come_home_as_views(self):
        a, b = socket.socketpair()
        try:
            result = np.arange(3 * LARGE_BODY, dtype=np.float64)
            sender = threading.Thread(target=SocketControl(a).send, args=(("result", 0, result),))
            sender.start()
            b.settimeout(5.0)
            back = SocketControl(b).recv()
            sender.join(timeout=5.0)
            np.testing.assert_array_equal(back[2], result)
            assert back[2].flags.writeable and back[2].base is not None
        finally:
            a.close()
            b.close()

    def test_a_bare_length_prefix_allocates_nothing(self):
        """A stranger's prefix sizes neither a read nor a buffer: the
        body's buffer waits for its first bytes."""
        a, b = socket.socketpair()
        a.sendall(MAX_FRAME_BYTES.to_bytes(4, "big"))
        a.close()
        tracemalloc.start()
        try:
            with pytest.raises(FrameTruncatedError):
                FrameStream(b).recv(timeout=2.0)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            b.close()
        assert peak < 1 << 17

    @pytest.mark.parametrize("count", [2000, MAX_ARRAYS + 10])
    def test_controls_carry_any_number_of_arrays(self, count):
        """Past ``sendmsg``'s buffer limit the write goes in slices;
        past a frame's buffer cap the arrays travel in band."""
        a, b = socket.socketpair()
        result = ("result", 0, [np.full(3, i, dtype=np.int64) for i in range(count)])
        sender = threading.Thread(target=SocketControl(a).send, args=(result,))
        sender.start()
        try:
            b.settimeout(5.0)
            back = SocketControl(b).recv()
            assert len(back[2]) == count and all(same(x, y) for x, y in zip(back[2], result[2]))
        finally:
            sender.join(timeout=5.0)
            a.close()
            b.close()

    def test_a_mesh_link_writes_a_frame_of_many_buffers_in_slices(self):
        a, b = socket.socketpair()
        net = SocketTransport(0, {1: a}, None, RetryPolicy())
        part = tuple(np.full(3, i, dtype=np.int32) for i in range(1500))  # two views each
        try:
            net.post(1, "up", 1, part)
            b.settimeout(5.0)
            ok, got = FrameStream(b).recv()
            assert ok and 1 not in net.closed and same(got[4], part)
        finally:
            net.close()
            b.close()

    def test_a_mesh_link_refuses_a_ctl_frame_without_unpickling_it(self):
        SideEffect.ran.clear()
        a, b = socket.socketpair()
        net = SocketTransport(0, {1: b}, None, RetryPolicy())
        try:
            send_frame(a, encode_ctl(("msg", SideEffect())))
            net.pump(2.0)
            assert 1 in net.closed  # the link was refused, as a corrupt frame
            assert SideEffect.ran == []
        finally:
            net.close()
            a.close()
