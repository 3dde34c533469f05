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
"packets to its own" in communication volume.  Those cells are the one
byte ledger: every send (NACK resends included) is added to them once,
and an observer's ``net.*`` series read them rather than count again.
Injected faults are counted once too, in :attr:`Fabric.injected`; the
observer's ``faults.injected`` / ``faults.resent`` series read that and
the cells' resend counts.

The simulator pays for this once per message and once per exchange, in
wall time as well.  :meth:`Fabric.send_group` is the one send loop: it
takes a node's whole exchange in one call and reads what the exchange
shares once.  :meth:`Fabric.send` is that loop with one message.  A
message in flight is a single :class:`Message`, which is also the engine
event that delivers it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from ..faults.plan import canonical_phase
from ..netmodel import LatencyModel, NetworkParams
from ..simul import Engine, FilterStore, Timeout
from ..simul.events import PROCESSED, TRIGGERED
from .stats import TrafficStats

__all__ = ["Message", "Fabric"]


class Message(Timeout):
    """One message: in flight, the engine event that delivers it; once
    delivered, what the receiving protocol code reads.

    Processing the event *is* the delivery — the receiver's liveness
    check, the mailbox put, ``delivered_at`` and the observer's
    ``message_delivered`` — so a message in flight is this object, its
    (empty) callback list and its queue entry, and nothing else.

    ``seq`` numbers the messages on one (src, dst, phase, layer) link in
    send order; duplicates (injected or replica race copies) share the
    original's sequence number, which is what receivers dedupe on.
    """

    __slots__ = (
        "src", "dst", "tag", "payload", "nbytes", "sent_at", "delivered_at",
        "phase", "layer", "seq", "_fabric",
    )

    def __init__(
        self, fabric: "Fabric", when: float, src: int, dst: int, tag: Any,
        payload: Any, nbytes: int, phase: str, layer: int, seq: int,
    ):
        # Timeout's fields inline (its footprint is derived, not stored).
        engine = self.engine = fabric.engine
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = TRIGGERED
        # now + (when - now), not `when`: the arithmetic the event queue has
        # always keyed deliveries on, kept to the bit.
        now = engine._now
        self.delay = delay = max(when, now) - now
        self.src, self.dst, self.tag, self.payload = src, dst, tag, payload
        self.nbytes, self.sent_at, self.delivered_at = nbytes, now, None
        self.phase, self.layer, self.seq = phase, layer, seq
        self._fabric = fabric
        engine._push(self, delay)

    @property
    def footprint(self):
        """Commutativity label for the model checker: two network
        deliveries conflict only when they land in the same mailbox
        within the same (phase, layer) step group — all protocol receives
        are tag-filtered on exactly those coordinates, so deliveries with
        different footprints commute and need not be reordered against
        each other.  Self-messages are unlabeled (``None``): their
        relative order is fixed by program order on a single sequential
        node."""
        if self.src == self.dst:
            return None
        return ("mbox", self.dst, self.phase, self.layer)

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._state = PROCESSED
        fabric, dst = self._fabric, self.dst
        alive = fabric._alive
        if dst in fabric._crashed or (alive is not None and not alive(dst)):
            fabric.dropped += 1
        else:
            now = self.delivered_at = self.engine._now
            fabric.mailboxes[dst].put(self)
            if fabric._obs is not None:
                fabric._obs.message_delivered(
                    self.src, dst, self.nbytes, self.sent_at, now, self.phase, self.layer
                )
        for cb in callbacks:
            cb(self)


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
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if threads <= 0:
            raise ValueError("threads must be positive")
        self.engine = engine
        self.params = params
        self.num_nodes = num_nodes
        self.threads = threads
        self.stats = TrafficStats()  # the one byte ledger
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
        self._obs = None  # repro.obs.Observer; None = observation off
        self.dropped = 0
        # -- fault-injection state (inert unless a FaultPlan is installed) --
        self._fault_plan = None
        self._seq_counters: dict = {}  # (src, dst, canonical phase, layer) -> next seq
        self._sent_cache: dict = {}  # (src, dst, tag) -> retransmission state
        self._crashed: set = set()  # step-killed nodes
        # The fault ledger: injections by kind, and NACK resends.
        self.injected = {"dropped": 0, "duplicated": 0, "delayed": 0, "resent": 0}
        self._served: set = set()  # faults.* series the observer reads

    def set_liveness(self, fn: Callable[[int], bool]) -> None:
        """Install the failure oracle: ``fn(node)`` is False while the
        node is dead (:meth:`~repro.faults.FaultPlan.is_alive`)."""
        self._alive = fn

    def set_observer(self, observer) -> None:
        """Install a :class:`~repro.obs.Observer` as the message-event
        sink: every completed delivery is reported at delivery time.
        Sends are not reported; their bytes are in :attr:`stats`, which
        the observer's ``net.*`` series read (:meth:`Cluster.enable_observer`),
        and fault injections and resends are in :attr:`injected` and
        :attr:`stats`, which its ``faults.*`` series read (:meth:`_serve`)."""
        self._obs = observer

    def set_fault_plan(self, plan) -> None:
        """Install a :class:`~repro.faults.FaultPlan` as the message-fault
        and step-kill oracle.  ``None`` uninstalls."""
        self._fault_plan = plan

    def is_crashed(self, node: int) -> bool:
        """True once a step-kill crash point has fired for ``node``."""
        return node in self._crashed

    # -- sending -------------------------------------------------------------
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
        """Fire-and-forget send of one message: :meth:`send_group` of one.
        Returns the scheduled delivery time (``inf`` if it vanished)."""
        return self.send_group(
            src, ((dst, payload, nbytes),), tag=tag, phase=phase, layer=layer
        )

    def send_group(
        self,
        src: int,
        sends,
        *,
        tag: Any = None,
        phase: str = "",
        layer: int = -1,
    ) -> float:
        """Send every ``(dst, payload, nbytes)`` of ``sends`` from ``src``,
        in order, under one tag, phase and layer — one exchange's sends in
        one call.  This is the fabric's only send path; returns the last
        message's scheduled delivery time (``inf`` if it vanished).

        Each message is exactly what a lone send of it would be: what
        does not depend on the message (the source check, the stats cell,
        the clock, the interconnect constants) is read once, every
        per-message step runs per message, in send order.  Sends from or
        to dead nodes vanish (counted in ``dropped``), which is exactly
        the failure behaviour replication must survive.
        """
        num_nodes = self.num_nodes
        if not 0 <= src < num_nodes:
            raise ValueError(f"bad source {src}")
        cell = self.stats.cell_ref(phase, layer)
        now = self.engine.now
        plan = self._fault_plan
        canon = canonical_phase(phase) if plan is not None else None
        crashed, alive = self._crashed, self._alive
        nics = self._nics
        nic_s = nics[src]
        overhead, per_byte_cpu = self._overhead, self._per_byte_cpu
        recv_byte_cpu, bandwidth = self._recv_byte_cpu, self._bandwidth
        incast_overhead, latency_model = self._incast_overhead, self._latency
        fixed_service, fixed_latency = self._fixed_service, self._fixed_latency
        deliver = float("inf")
        for dst, payload, nbytes in sends:
            if not 0 <= dst < num_nodes:
                raise ValueError(f"bad endpoints {src}->{dst}")
            if nbytes < 0:
                raise ValueError("nbytes must be non-negative")
            if plan is not None and src != dst and src not in crashed:
                # Step-kill crash point: the node dies immediately *before*
                # its first send at the targeted (phase, layer), so that
                # send and everything after it is lost.
                sk = plan.step_kill_for(src)
                if sk is not None and sk == (canon, layer):
                    crashed.add(src)
            if (
                src in crashed
                or dst in crashed
                or (alive is not None and not (alive(src) and alive(dst)))
            ):
                self.dropped += 1
                deliver = float("inf")
                continue

            decision = None
            seq = 0
            if plan is not None and src != dst:
                key = (src, dst, canon, layer)
                seq = self._seq_counters.get(key, 0)
                self._seq_counters[key] = seq + 1
                self._sent_cache[(src, dst, tag)] = (payload, nbytes, phase, layer, seq)
                decision = plan.decide(src, dst, phase, layer, seq)

            cell.add(nbytes, self_message=src == dst)

            if src == dst:
                # Local hand-off: no network, only a memcpy-scale CPU charge.
                deliver = now + per_byte_cpu * nbytes
                Message(self, deliver, src, dst, tag, payload, nbytes, phase, layer, seq)
                continue

            jitter = fixed_service
            if jitter is None:
                jitter = latency_model.sample_service_factor()
            # 1. sender thread slot (the first of the earliest-free ones)
            # runs the per-message overhead
            free = nic_s.thread_free
            slot = free.index(min(free))
            cpu_start = max(now, free[slot])
            cpu_done = cpu_start + (overhead + per_byte_cpu * nbytes) * jitter
            free[slot] = cpu_done
            # 2. egress serialization (service jitter models congestion/steal)
            tx = nbytes / bandwidth * jitter
            tx_start = max(cpu_done, nic_s.egress_free)
            tx_done = tx_start + tx
            nic_s.egress_free = tx_done
            # 3. propagation
            first_byte = tx_start + (
                latency_model.sample() if fixed_latency is None else fixed_latency
            )
            # 4. ingress serialization at the receiver; a backlog on arrival
            # signals fan-in contention and charges the incast penalty
            nic_d = nics[dst]
            contended = nic_d.ingress_free > first_byte
            rx_start = max(first_byte, nic_d.ingress_free)
            arrived = rx_start + tx + (incast_overhead if contended else 0.0)
            nic_d.ingress_free = arrived
            # 5. receive-side processing in a receiver thread slot (§VI-B):
            # deserialisation/copy work that multi-threading overlaps
            proc = recv_byte_cpu * nbytes
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
                    self._inject("dropped")
                    deliver = float("inf")
                    continue
                if decision.delay > 0.0:
                    self._inject("delayed")
                    deliver += decision.delay
                for k in range(decision.duplicates):
                    self._inject("duplicated")
                    Message(
                        self, deliver + (k + 1) * self.params.base_latency,
                        src, dst, tag, payload, nbytes, phase, layer, seq,
                    )

            Message(self, deliver, src, dst, tag, payload, nbytes, phase, layer, seq)
        return deliver

    def _inject(self, kind: str) -> None:
        self.injected[kind] += 1
        self._serve("faults.injected", self._injected_series)

    def _serve(self, name: str, read: Callable[[], dict]) -> None:
        """On an observed run, serve the ``faults.*`` series ``name`` from
        this fabric's ledger through ``read``.  Adopted at the first
        fault it counts, so the series appears exactly when a counted one
        would: a run without faults carries none."""
        if self._obs is not None and name not in self._served:
            from ..obs.metrics import LedgerCounter

            self._served.add(name)
            self._obs.metrics.adopt(LedgerCounter(name, read))

    def _injected_series(self) -> dict:
        return {
            (("kind", kind),): n
            for kind, n in self.injected.items()
            if n and kind != "resent"
        }

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
        cell = self.stats.cell_ref(phase, layer)
        cell.add(nbytes, self_message=src == requester)
        cell.add_resent(nbytes)
        self._serve(
            "faults.resent", partial(self.stats.series, "resent_messages", "resent_messages")
        )
        delay = (
            2.0 * self.params.base_latency
            + self.params.message_overhead
            + nbytes / self.params.bandwidth
        )
        if self._fault_plan is not None:
            decision = self._fault_plan.decide(src, requester, phase, layer, seq, attempt)
            if decision.drop:
                self._inject("dropped")
                return True
            delay += decision.delay
        Message(
            self, self.engine.now + delay, src, requester, tag, payload,
            nbytes, phase, layer, seq,
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
