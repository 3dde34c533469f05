"""The one exchange step (``repro.allreduce.core.drive``) on its two media.

The simulator and the real backends run the same step, so what it
decides — which slot a part lands in, what a byte count and a span look
like — must come out equal on both, and the wire's per-round state must
stay bounded on every session path.
"""

import collections
import multiprocessing as mp
import socket
import threading

import numpy as np

from repro.allreduce import ButterflyTopology, KylixAllreduce, ReduceSpec, dense_reduce
from repro.cluster import Cluster
from repro.faults import FaultPlan, RetainedKeys, RetryPolicy
from repro.net import LocalKylix
from repro.net.protocol import run_rounds
from repro.net.transport import SocketTransport
from repro.obs import Observer
from repro.sparse import IdentityHasher, MultiplicativeHasher
from repro.verify.plan import synthetic_spec


def run_on_threads(m, body):
    """``body(rank)`` on one thread per rank; ``{rank: return value}``,
    re-raising the first exception."""
    out, errors = {}, []

    def run(rank):
        try:
            out[rank] = body(rank)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(r,), daemon=True) for r in range(m)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads), "a rank hung"
    if errors:
        raise errors[0]
    return out


class Hub:
    """Frames in flight between in-process ranks, keyed
    ``(src, dst, kind, layer, seq)``; ``tamper`` rewrites one on post."""

    def __init__(self, tamper):
        self.frames, self.posted = {}, []
        self.cond = threading.Condition()
        self.tamper = tamper


class HubNet:
    """An in-process fake of :class:`~repro.net.transport.BaseTransport`:
    a post lands in the hub, a collect takes one frame per member from it
    — keyed by the link's member, like the real ``collect``."""

    plan = None

    def __init__(self, rank, hub):
        self.rank, self.hub = rank, hub
        self.retained = RetainedKeys()

    def post(self, member, kind, layer, part, seq=0):
        hub = self.hub
        with hub.cond:
            hub.posted.append(part)
            frame = hub.tamper(self.rank, member, kind, part)
            hub.frames[(self.rank, member, kind, layer, seq)] = frame
            hub.cond.notify_all()

    def collect(self, members, kind, layer, seq=0, *, missing_ok=False):
        keys = [(m, self.rank, kind, layer, seq) for m in members if m != self.rank]
        hub = self.hub
        with hub.cond:
            assert hub.cond.wait_for(lambda: all(k in hub.frames for k in keys), 30.0)
            # Arrival order is not position order either.
            got = {k[0]: hub.frames.pop(k) for k in reversed(keys)}
        return (got, []) if missing_ok else got

    def prune_round(self, seq):
        pass


def test_a_part_is_slotted_by_the_link_it_arrived_on():
    """A frame that names a sender position other than its link's must
    not move the part: on a cached reduce two equal-size value parts
    would be merged through each other's maps — a wrong sum, no error."""
    m, width = 4, 16  # key sub-range q of the one layer is [16q, 16q + 16)
    # Every rank holds 8 keys of each sub-range, each rank different ones:
    # equal-size parts, different maps.
    idx = {
        r: np.sort([width * q + (r + j) % width for q in range(m) for j in range(8)])
        for r in range(m)
    }
    spec = ReduceSpec(in_indices=idx, out_indices=idx)
    rng = np.random.default_rng(0)
    rounds = [
        {r: rng.integers(-9, 10, idx[r].size).astype(np.float64) for r in range(m)}
        for _ in range(2)
    ]

    def claim_swapped(src, dst, kind, frame):
        # Where a frame format carries the sender's group position, the
        # cached reduce's parts from members 2 and 0 to rank 1 claim each
        # other's.
        if kind == "rd" and dst == 1 and src in (0, 2) and isinstance(frame[0], int):
            return (2 - src, *frame[1:])
        return frame

    hub = Hub(claim_swapped)
    hasher = IdentityHasher(m * width)
    topo = ButterflyTopology([m], m, key_space=hasher.key_space)
    out = run_on_threads(m, lambda rank: [
        result for result, *_ in run_rounds(
            rank, HubNet(rank, hub), topo, hasher, spec, [vals[rank] for vals in rounds],
            strict=True,
        )
    ])
    for r in range(m):
        for got, vals in zip(out[r], rounds):
            np.testing.assert_array_equal(got, dense_reduce(spec, vals)[r])
    # Nothing in a frame names a position: a part is its arrays.
    for frame in hub.posted:
        assert all(isinstance(a, np.ndarray) for a in (frame if isinstance(frame, tuple) else [frame]))


def test_fault_sessions_prune_round_state():
    """``run_rounds`` under a fault plan runs the combined protocol every
    round; its send cache, inbox and dedupe set must still be pruned to
    the previous round, as a cached session's are."""
    m, n_rounds = 4, 5
    spec = synthetic_spec(m, n=120, seed=1)
    vals = {r: np.ones(spec.out_indices[r].size) for r in range(m)}
    conns = {r: {} for r in range(m)}
    for i in range(m):
        for j in range(i + 1, m):
            conns[i][j], conns[j][i] = socket.socketpair()
    topo, hasher = ButterflyTopology([2, 2], m), MultiplicativeHasher()
    retry = RetryPolicy(base_timeout=0.5)
    # Closing the write end is EOF on the read end every node lingers on.
    (finished, all_done), lock, count = mp.Pipe(duplex=False), threading.Lock(), [0]

    def node(rank):
        net = SocketTransport(rank, conns[rank], FaultPlan(), retry)
        stale = []
        try:
            rounds = run_rounds(
                rank, net, topo, hasher, spec, [vals[rank]] * n_rounds,
                strict=True,
            )
            for seq, (_, _, _, cached) in enumerate(rounds):
                assert cached is None  # a fault session: combined every round
                stale += [
                    key for store in (net.sent, net.inbox, net.seen)
                    for key in store if key[3] < seq - 1
                ]
            with lock:
                count[0] += 1
                if count[0] == m:
                    all_done.close()
            net.linger(finished, 10.0)  # serve late NACKs until all are done
        finally:
            net.close()
        return stale

    stale = run_on_threads(m, node)
    assert stale == {r: [] for r in range(m)}


def test_one_byte_count_and_one_span_shape_on_both_media():
    """A clean combined run through the one step: the simulator and the
    pipes count the same bytes per (phase, layer), open the same spans on
    every node and label the union-size histogram alike."""
    m, degrees = 4, [2, 2]
    spec = synthetic_spec(m, n=200, seed=3)
    rng = np.random.default_rng(3)
    vals = {r: rng.normal(size=spec.out_indices[r].size) for r in range(m)}
    cluster = Cluster(m, observe=True)
    sim = KylixAllreduce(cluster, degrees).allreduce_combined(spec, vals)
    wire_obs = Observer(name="pipes")
    pipes = LocalKylix(degrees, observe=wire_obs).allreduce(spec, vals)
    for r in range(m):
        np.testing.assert_array_equal(sim[r], pipes[r])

    def shape(obs):
        cells = {
            name: {(lab["phase"], lab["layer"]): v for lab, v in obs.counter(name).items()}
            for name in ("net.bytes", "net.messages", "net.self_bytes", "net.self_messages")
        }
        spans = collections.Counter(
            (sp.name, sp.phase, sp.layer, sp.args.get("kind"))
            for sp in obs.spans if sp.node >= 0
        )
        labels = sorted(
            (lab["phase"], lab["layer"])
            for lab, _ in obs.histogram("config.merge_length").items()
        )
        return cells, spans, labels

    sim_cells, sim_spans, sim_labels = shape(cluster.obs)
    cells, spans, labels = shape(wire_obs)
    assert cells == sim_cells
    assert spans == sim_spans
    assert labels == sim_labels == [("combined_down", 1), ("combined_down", 2)]


def test_an_idle_observer_is_never_called_by_the_step(monkeypatch):
    """With observation off the step opens no span, formats no span name
    and observes no histogram: a cached reduce and a combined run finish
    with the disabled observer's span and histogram calls made to raise."""
    from repro.obs.observer import NullObserver

    def called(*args, **kwargs):
        raise AssertionError("the exchange step called the disabled observer")

    for name in ("begin", "end", "histogram"):
        monkeypatch.setattr(NullObserver, name, called)
    m, degrees = 8, [2, 4]
    spec = synthetic_spec(m, n=300, seed=5)
    rng = np.random.default_rng(5)
    vals = {r: rng.integers(-9, 10, spec.out_indices[r].size).astype(np.float64) for r in range(m)}
    ref = dense_reduce(spec, vals)
    net = KylixAllreduce(Cluster(m), degrees)
    net.configure(spec)
    for out in (net.reduce(vals), net.allreduce_combined(spec, vals)):
        for r in range(m):
            np.testing.assert_array_equal(out[r], ref[r])
