"""Micro-drivers: one layer's public functions on inputs cut from a workload.

Each returns rates for a single layer with nothing else in the loop, so a
change to that layer can be seen before (and apart from) its end-to-end
effect.  Every timing is the best of a few repetitions.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from .noise import best_seconds
from .program import (
    ButterflyTopology,
    Cluster,
    Engine,
    FrameDecoder,
    KeyRange,
    MultiplicativeHasher,
    Store,
    encode_frame,
    spec_fingerprint,
    split_sorted,
    union_with_maps,
)
from .workloads import Pattern, Workload

__all__ = ["MICRO", "fingerprint_ms"]


def _down_parts(wl: Workload, pattern: Pattern, rank: int) -> List[tuple]:
    """The layer-1 down parts ``rank`` receives (its own included): each group
    member's hashed, sorted keys and values cut to ``rank``'s key range."""
    ins, outs, vals = pattern
    hasher = MultiplicativeHasher()
    topo = ButterflyTopology(wl.degrees, wl.shape.m)
    group, pos, d = topo.group(rank, 1), topo.position(rank, 1), wl.degrees[0]
    full = KeyRange.full(hasher.key_space)
    parts = []
    for q, member in enumerate(group):
        out_keys, first = np.unique(hasher.hash(outs[member]), return_index=True)
        in_keys = np.unique(hasher.hash(ins[member]))
        out_cut = split_sorted(out_keys, full, d)[pos]
        in_cut = split_sorted(in_keys, full, d)[pos]
        parts.append(
            (q, out_keys[out_cut], in_keys[in_cut], np.ascontiguousarray(vals[member][first][out_cut]))
        )
    return parts


def sparse_micro(wl: Workload, pattern: Pattern) -> Dict[str, float]:
    """``union_with_maps`` over rank 0's layer-1 out-key parts, and
    ``MultiplicativeHasher.hash`` over rank 0's raw out indices."""
    key_parts = [part[1] for part in _down_parts(wl, pattern, 0)]
    keys_in = sum(p.size for p in key_parts)
    union_s = best_seconds(lambda: union_with_maps(key_parts), reps=5)
    raw = pattern[1][0]
    hasher = MultiplicativeHasher()
    hash_s = best_seconds(lambda: hasher.hash(raw), reps=20)
    return {
        "sparse.union_Mkeys_per_s": keys_in / union_s / 1e6,
        "sparse.hash_Mkeys_per_s": raw.size / hash_s / 1e6,
    }


def engine_micro(wl: Workload, pattern: Pattern, round_trips: int = 5_000) -> Dict[str, float]:
    """Engine + stores, no fabric and no protocol: two processes ping-pong
    through a pair of ``Store`` mailboxes with a ``timeout`` per hop."""

    def run(record_trace: bool) -> Engine:
        eng = Engine(record_trace=record_trace)
        there, back = Store(eng), Store(eng)

        def ping():
            for i in range(round_trips):
                there.put(i)
                yield back.get()
                yield eng.timeout(1e-6)

        def pong():
            for _ in range(round_trips):
                item = yield there.get()
                yield eng.timeout(1e-6)
                back.put(item)

        eng.process(ping())
        eng.process(pong())
        eng.run()
        return eng

    events = len(run(record_trace=True).trace)  # deterministic, so counted once
    return {"simul.events_per_s": events / best_seconds(lambda: run(False), reps=5)}


def fabric_micro(wl: Workload, pattern: Pattern, exchanges: int = 10) -> Dict[str, float]:
    """The cluster fabric with nothing to carry: every node exchanges empty
    payloads with its group at each butterfly layer, ``exchanges`` times."""
    m, degrees = wl.shape.m, wl.degrees
    topo = ButterflyTopology(degrees, m)
    groups = {
        (rank, layer): topo.group(rank, layer)
        for rank in range(m)
        for layer in range(1, len(degrees) + 1)
    }
    empty = np.empty(0, dtype=np.float64)

    def proto(node):
        for x in range(exchanges):
            for layer in range(1, len(degrees) + 1):
                group = groups[(node.rank, layer)]
                for member in group:
                    node.send(member, empty, tag=(x, layer))
                for _ in group:
                    yield node.recv(tag=(x, layer))

    def run() -> Cluster:
        cluster = Cluster(m)
        cluster.run(proto)
        return cluster

    messages = run().stats.total_messages()
    return {"cluster.msgs_per_s": messages / best_seconds(run, reps=3)}


def framing_micro(wl: Workload, pattern: Pattern) -> Dict[str, float]:
    """``encode_frame`` / ``FrameDecoder`` on the frame that carries one
    layer-1 down part of this workload, as ``net.transport`` builds it."""
    _, out_keys, in_keys, values = _down_parts(wl, pattern, 0)[1]
    part = (1, out_keys, in_keys, values)
    frame = ("msg", "down", 1, 0, part, time.monotonic())
    payload = out_keys.nbytes + in_keys.nbytes + values.nbytes
    wire = encode_frame(frame)

    def decode():
        if len(FrameDecoder().feed(wire)) != 1:
            raise RuntimeError("frame did not decode to one message")

    encode_s = best_seconds(lambda: encode_frame(frame), reps=10)
    decode_s = best_seconds(decode, reps=10)
    return {
        "net.framing.encode_MBps": payload / encode_s / 1e6,
        "net.framing.decode_MBps": payload / decode_s / 1e6,
        "net.framing.overhead_bytes": float(len(wire) - payload),
    }


def fingerprint_ms(spec, degrees) -> float:
    """``spec_fingerprint``: what the service pays to key one pattern."""
    return best_seconds(lambda: spec_fingerprint(spec, degrees), reps=5) * 1e3


#: ``Workload.micro`` names -> micro-driver ``(workload, its first pattern)``.
MICRO: Dict[str, Callable[[Workload, Pattern], Dict[str, float]]] = {
    "engine": engine_micro,
    "fabric": fabric_micro,
    "sparse": sparse_micro,
    "framing": framing_micro,
}
