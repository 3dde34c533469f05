"""The message fabric: point-to-point transfers with NIC contention.

Cost model (a LogGP variant matched to the paper's observations):

* **Sender CPU overhead** ``t0`` per message (TCP stack, copies).  With
  ``T`` sender threads up to ``T`` overheads overlap — this is the §VI-B
  multi-threading effect (Fig 7).  Past the hardware thread count a
  switching penalty inflates the overhead.
* **Egress serialization**: the sender NIC pushes ``size/B`` seconds of
  bytes per message; concurrent sends from one node serialize here.
* **Propagation latency**: sampled from :class:`LatencyModel` (lognormal
  jitter on commodity clouds), overlapped with other messages.
* **Ingress serialization**: a receiver NIC absorbs at most ``B`` bytes/s
  total, so fan-in serializes at the destination.

A single isolated message therefore takes ``t0 + latency + size/B`` — the
effective-throughput curve of Fig 2 falls straight out of this model, and
the fabric-measured curve is validated against the analytic one in the
benchmarks.

Messages to self bypass the network entirely (delivered next tick) but are
still reported to :class:`TrafficStats`, since the paper's Fig 5 counts
"packets to its own" in communication volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional

from ..netmodel import LatencyModel, NetworkParams
from ..simul import Engine, FilterStore, Timeout
from .stats import TrafficStats

__all__ = ["Message", "Fabric"]


@dataclass(slots=True)
class Message:
    """One delivered message, as seen by the receiving protocol code,
    which only reads it (slots, not ``frozen``: a frozen dataclass pays
    ten ``object.__setattr__`` calls per message built).

    ``seq`` numbers the messages on one (src, dst, phase, layer) link in
    send order; duplicates (injected or replica race copies) share the
    original's sequence number, which is what receivers dedupe on.
    """

    src: int
    dst: int
    tag: Any
    payload: Any
    nbytes: int
    sent_at: float
    delivered_at: float
    phase: str = ""
    layer: int = -1
    seq: int = 0


class _Nic:
    """Per-node NIC state: thread slots for overheads, serialization point."""

    __slots__ = ("thread_free", "egress_free", "ingress_free")

    def __init__(self, threads: int):
        self.thread_free = [0.0] * threads
        self.egress_free = 0.0
        self.ingress_free = 0.0


class Fabric:
    """Simulated interconnect between ``num_nodes`` nodes.

    Parameters
    ----------
    engine, params:
        The event engine and the interconnect parameter bundle.
    num_nodes:
        Cluster size ``m``.
    threads:
        Sender thread slots per node (Fig 7's variable).  ``hw_threads``
        is the physical core-thread count; software threads beyond it pay
        a context-switching penalty on the per-message overhead.
    seed:
        Seeds the latency jitter stream (deterministic runs).
    """

    def __init__(
        self,
        engine: Engine,
        params: NetworkParams,
        num_nodes: int,
        *,
        threads: int = 16,
        hw_threads: int = 16,
        switch_penalty: float = 0.06,
        seed: int = 0,
        stats: Optional[TrafficStats] = None,
        observer=None,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if threads <= 0:
            raise ValueError("threads must be positive")
        self.engine = engine
        self.params = params
        self.num_nodes = num_nodes
        self.threads = threads
        self.stats = stats if stats is not None else TrafficStats()
        self._latency = LatencyModel(params, seed=seed)
        self._nics = [_Nic(threads) for _ in range(num_nodes)]
        self.mailboxes = [FilterStore(engine) for _ in range(num_nodes)]
        # Overhead multiplier: oversubscribed software threads thrash.
        over = max(0, threads - hw_threads)
        self._overhead = params.message_overhead * (
            1.0 + switch_penalty * over / max(1, hw_threads)
        )
        # The interconnect constants one send reads (params is frozen), and
        # the two jitter draws where LatencyModel would return a constant
        # without touching its stream (sigma 0); None = draw per message.
        self._per_byte_cpu = params.per_byte_cpu
        self._recv_byte_cpu = params.recv_byte_cpu
        self._bandwidth = params.bandwidth
        self._incast_overhead = params.incast_overhead
        self._fixed_service = 1.0 if params.service_sigma == 0.0 else None
        self._fixed_latency = (
            params.base_latency
            if params.latency_sigma == 0.0 or params.base_latency == 0.0
            else None
        )
        # The failure oracle; None = nobody ever dies, nothing to ask.
        self._alive: Optional[Callable[[int], bool]] = None
        self._obs = observer  # repro.obs.Observer; None = observation off
        self.dropped = 0
        # -- fault-injection state (inert unless a FaultPlan is installed) --
        self._fault_plan = None
        self._seq_counters: dict = {}  # (src, dst, canonical phase, layer) -> next seq
        self._sent_cache: dict = {}  # (src, dst, tag) -> retransmission state
        self._crashed: set = set()  # step-killed nodes
        self.injected = {"dropped": 0, "duplicated": 0, "delayed": 0, "resent": 0}
        # Memoized per-(phase, layer) stats cells: the send bookkeeping
        # used to rebuild the (phase, layer) key and re-run the dict
        # machinery for every message; a protocol run touches only a
        # handful of distinct cells, so the lookups are cached and only
        # rebuilt when TrafficStats.reset() bumps the epoch.
        self._stats_cells: dict = {}
        self._stats_epoch = self.stats.epoch

    def set_liveness(self, fn: Callable[[int], bool]) -> None:
        """Install the failure oracle (see :mod:`repro.cluster.failures`)."""
        self._alive = fn

    def set_observer(self, observer) -> None:
        """Install a :class:`~repro.obs.Observer` as the message-event
        sink.  Every send (including self-messages and retransmissions)
        is reported at send time, every completed delivery at delivery
        time — the same accounting points :class:`TrafficStats` and
        :class:`~repro.cluster.trace.TraceRecorder` consume, so their
        numbers and the observer's counters agree exactly."""
        self._obs = observer

    def set_fault_plan(self, plan) -> None:
        """Install a :class:`~repro.faults.FaultPlan` as the message-fault
        and step-kill oracle.  ``None`` uninstalls."""
        self._fault_plan = plan
        if plan is not None:
            from ..faults.plan import canonical_phase

            self._canon = canonical_phase

    def is_crashed(self, node: int) -> bool:
        """True once a step-kill crash point has fired for ``node``."""
        return node in self._crashed

    # -- sending -------------------------------------------------------------
    def _account_send(
        self, src: int, dst: int, nbytes: int, phase: str, layer: int
    ) -> None:
        """Per-message bookkeeping (TrafficStats cell + observer counters)
        through the memoized cell cache — the fabric send hot path."""
        if self._stats_epoch != self.stats.epoch:
            self._stats_cells.clear()
            self._stats_epoch = self.stats.epoch
        cell = self._stats_cells.get((phase, layer))
        if cell is None:
            cell = self.stats.cell_ref(phase, layer)
            self._stats_cells[(phase, layer)] = cell
        cell.add(nbytes, self_message=src == dst)
        if self._obs is not None:
            self._obs.message_sent(src, dst, nbytes, phase=phase, layer=layer)

    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        nbytes: int,
        *,
        tag: Any = None,
        phase: str = "",
        layer: int = -1,
    ) -> float:
        """Fire-and-forget send; returns the scheduled delivery time.

        Sends from or to dead nodes vanish (counted in ``dropped``), which
        is exactly the failure behaviour replication must survive.
        """
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise ValueError(f"bad endpoints {src}->{dst}")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        now = self.engine.now
        plan = self._fault_plan
        crashed = self._crashed
        if plan is not None and src != dst and src not in crashed:
            # Step-kill crash point: the node dies immediately *before*
            # its first send at the targeted (phase, layer), so that send
            # and everything after it is lost.
            sk = plan.step_kill_for(src)
            if sk is not None and sk == (self._canon(phase), layer):
                crashed.add(src)
        alive = self._alive
        if (
            src in crashed
            or dst in crashed
            or (alive is not None and not (alive(src) and alive(dst)))
        ):
            self.dropped += 1
            return float("inf")

        decision = None
        seq = 0
        if plan is not None and src != dst:
            key = (src, dst, self._canon(phase), layer)
            seq = self._seq_counters.get(key, 0)
            self._seq_counters[key] = seq + 1
            self._sent_cache[(src, dst, tag)] = (payload, nbytes, phase, layer, seq)
            decision = plan.decide(src, dst, phase, layer, seq)

        self._account_send(src, dst, nbytes, phase, layer)

        if src == dst:
            # Local hand-off: no network, only a memcpy-scale CPU charge.
            deliver = now + self._per_byte_cpu * nbytes
            self._deliver_at(deliver, src, dst, tag, payload, nbytes, now, phase, layer)
            return deliver

        nic_s = self._nics[src]
        jitter = self._fixed_service
        if jitter is None:
            jitter = self._latency.sample_service_factor()
        # 1. sender thread slot (the first of the earliest-free ones) runs
        # the per-message overhead
        free = nic_s.thread_free
        slot = free.index(min(free))
        cpu_start = max(now, free[slot])
        cpu_done = cpu_start + (self._overhead + self._per_byte_cpu * nbytes) * jitter
        free[slot] = cpu_done
        # 2. egress serialization (service jitter models congestion/steal)
        tx = nbytes / self._bandwidth * jitter
        tx_start = max(cpu_done, nic_s.egress_free)
        tx_done = tx_start + tx
        nic_s.egress_free = tx_done
        # 3. propagation
        latency = self._fixed_latency
        first_byte = tx_start + (self._latency.sample() if latency is None else latency)
        # 4. ingress serialization at the receiver; a backlog on arrival
        # signals fan-in contention and charges the incast penalty
        nic_d = self._nics[dst]
        contended = nic_d.ingress_free > first_byte
        rx_start = max(first_byte, nic_d.ingress_free)
        arrived = rx_start + tx + (self._incast_overhead if contended else 0.0)
        nic_d.ingress_free = arrived
        # 5. receive-side processing in a receiver thread slot (§VI-B):
        # deserialisation/copy work that multi-threading overlaps
        proc = self._recv_byte_cpu * nbytes
        if proc > 0.0:
            free = nic_d.thread_free
            slot_r = free.index(min(free))
            proc_start = max(arrived, free[slot_r])
            deliver = proc_start + proc * jitter
            free[slot_r] = deliver
        else:
            deliver = arrived

        # Injected message faults (after the sender paid its costs — a
        # network-dropped packet still burned CPU and egress, and the
        # latency stream stays aligned with fault-free runs).
        if decision is not None:
            if decision.drop:
                self.injected["dropped"] += 1
                if self._obs is not None:
                    self._obs.counter("faults.injected").inc(kind="dropped")
                return float("inf")
            if decision.delay > 0.0:
                self.injected["delayed"] += 1
                if self._obs is not None:
                    self._obs.counter("faults.injected").inc(kind="delayed")
                deliver += decision.delay
            for k in range(decision.duplicates):
                self.injected["duplicated"] += 1
                if self._obs is not None:
                    self._obs.counter("faults.injected").inc(kind="duplicated")
                self._deliver_at(
                    deliver + (k + 1) * self.params.base_latency,
                    src, dst, tag, payload, nbytes, now, phase, layer, seq,
                )

        self._deliver_at(deliver, src, dst, tag, payload, nbytes, now, phase, layer, seq)
        return deliver

    def _deliver_at(self, when, src, dst, tag, payload, nbytes, sent, phase, layer, seq=0):
        # now + (when - now), not `when`: the arithmetic the event queue has
        # always keyed deliveries on, kept to the bit.
        now = self.engine.now
        ev = Timeout(self.engine, max(when, now) - now)
        # A partial, not a closure: a closure is a function plus one cell
        # per captured name, a dozen GC-tracked objects per message in flight.
        ev.callbacks.append(
            partial(self._deliver, src, dst, tag, payload, nbytes, sent, phase, layer, seq)
        )
        if src != dst:
            # Commutativity label for the model checker: two network
            # deliveries conflict only when they land in the same mailbox
            # within the same (phase, layer) step group — all protocol
            # receives are tag-filtered on exactly those coordinates, so
            # deliveries with different footprints commute and need not
            # be reordered against each other.  Self-messages stay
            # unlabeled: their relative order is fixed by program order
            # on a single sequential node.
            ev.footprint = ("mbox", dst, phase, layer)

    def _deliver(self, src, dst, tag, payload, nbytes, sent, phase, layer, seq, _event):
        alive = self._alive
        if dst in self._crashed or (alive is not None and not alive(dst)):
            self.dropped += 1
            return
        now = self.engine.now
        self.mailboxes[dst].put(
            Message(src, dst, tag, payload, nbytes, sent, now, phase, layer, seq)
        )
        if self._obs is not None:
            self._obs.message_delivered(src, dst, nbytes, sent, now, phase, layer)

    def request_resend(self, requester: int, src: int, tag: Any, attempt: int = 1) -> bool:
        """Model a NACK from ``requester``: redeliver the cached payload
        of the (src → requester, tag) message, if the sender is still up.

        The retransmission pays a deterministic request/response round
        trip (NACKs are tiny, so no jitter draw — the shared latency
        stream stays aligned), and re-runs the fault oracle with the
        bumped ``attempt`` so a resend can itself be dropped or delayed.
        Tri-state return: ``True`` — a resend was scheduled (it may itself
        be fault-dropped; the requester retries); ``False`` — the sender
        is dead or crashed, nothing will ever come; ``None`` — the sender
        is alive but has not reached that send yet (it may be burning its
        own retry budget upstream), so the requester should keep waiting
        without charging its retry budget.
        """
        if src in self._crashed or (self._alive is not None and not self._alive(src)):
            return False
        entry = self._sent_cache.get((src, requester, tag))
        if entry is None:
            return None
        payload, nbytes, phase, layer, seq = entry
        self.injected["resent"] += 1
        self._account_send(src, requester, nbytes, phase, layer)
        self.stats.cell_ref(phase, layer).add_resent(nbytes)
        if self._obs is not None:
            self._obs.counter("faults.resent").inc(phase=phase, layer=layer)
        delay = (
            2.0 * self.params.base_latency
            + self.params.message_overhead
            + nbytes / self.params.bandwidth
        )
        if self._fault_plan is not None:
            decision = self._fault_plan.decide(src, requester, phase, layer, seq, attempt)
            if decision.drop:
                self.injected["dropped"] += 1
                if self._obs is not None:
                    self._obs.counter("faults.injected").inc(kind="dropped")
                return True
            delay += decision.delay
        self._deliver_at(
            self.engine.now + delay, src, requester, tag, payload,
            nbytes, self.engine.now, phase, layer, seq,
        )
        return True

    # -- receiving -------------------------------------------------------------
    def recv(self, node: int, *, tag: Any = None, src: Optional[int] = None):
        """Event that fires with the next matching :class:`Message`.

        When an observer is installed, the consumed message's *queue
        wait* — how long it sat delivered in the mailbox before the
        protocol picked it up — is charged to the ``net.queue_wait``
        histogram (labels ``node=, phase=, layer=``) at consumption
        time.  A starved receiver consumes at delivery time, so its
        waits are exactly zero; backlog behind a slow merge shows up as
        positive wait — the signal the straggler report reads.
        """
        if tag is None and src is None:
            ev = self.mailboxes[node].get()
        else:

            def match(msg: Message) -> bool:
                return (tag is None or msg.tag == tag) and (
                    src is None or msg.src == src
                )

            ev = self.mailboxes[node].get(match)
        # Deadlock-analysis breadcrumbs: a stuck process's awaited event
        # walks back to this description (formatted only when read), and
        # any retry timer racing this get inherits the wildcard mailbox
        # footprint (phase/layer of the winning message are unknown until
        # it arrives).
        ev.what = ("recv(node=%s, tag=%r, src=%s)", node, tag, src)
        ev.race_footprint = ("mbox", node, None, None)
        if self._obs is not None:
            ev.add_callback(self._record_queue_wait)
        return ev

    def _record_queue_wait(self, ev) -> None:
        if ev.ok is not True or getattr(ev, "cancelled", False):
            return
        self._observe_queue_wait(ev.value, self.engine.now)

    def _observe_queue_wait(self, msg: Message, consumed_at: float) -> None:
        self._obs.histogram("net.queue_wait").observe(
            consumed_at - msg.delivered_at,
            node=msg.dst,
            phase=msg.phase,
            layer=msg.layer,
        )

    def recv_all(
        self, node: int, count: int, *, tag: Any, slot_of: Callable[[int], int]
    ):
        """Event that fires with ``count`` messages tagged ``tag``, as a list
        indexed by ``slot_of(msg.src)`` — "receive from all d_i neighbours"
        as one wait: one wake-up when the last slot fills, not one per
        message (:class:`~repro.simul.GroupGet`).  The first copy per slot
        is kept; later copies that arrive before the group is complete
        (replicas that lost the race) are consumed and dropped.

        Every consumed message, dropped copies included, is charged its
        ``net.queue_wait`` as by :meth:`recv`: zero when it was taken on
        arrival, the time since its delivery when it was found queued.
        """

        def slot(msg: Message) -> Optional[int]:
            return slot_of(msg.src) if msg.tag == tag else None

        asked_at = self.engine.now
        ev = self.mailboxes[node].get_group(slot, count)
        ev.what = ("recv_all(node=%s, tag=%r)", node, tag)
        ev.race_footprint = ("mbox", node, None, None)
        if self._obs is not None:

            def record(ev) -> None:
                for msg in ev.taken:
                    self._observe_queue_wait(msg, max(asked_at, msg.delivered_at))

            ev.add_callback(record)
        return ev
