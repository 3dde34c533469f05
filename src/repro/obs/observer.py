"""The :class:`Observer`: one sink for spans, metrics, and message events.

An observer owns a clock (the simulator's virtual clock or the host's
monotonic clock — callers never care which), a span list, a
:class:`~repro.obs.metrics.MetricsRegistry`, and the one message
timeline (:attr:`Observer.messages`, which :mod:`repro.obs.analyze` and
:mod:`repro.obs.export` read).  Both execution backends report into the
same API, which is what makes the exported trace schema identical across
them:

* the simulator fabric calls :meth:`message_delivered` for every packet,
  and protocol code opens :meth:`span` regions timed against
  ``engine.now``;
* each real-process worker owns a private wall-clock observer, opens the
  same spans, and ships a :meth:`snapshot` back over its result queue
  for the parent to :meth:`absorb`.

The canonical traffic counters are ``net.bytes`` / ``net.messages`` and
their ``net.self_*`` twins, each labelled ``phase=, layer=``.  A real
transport counts them through :meth:`message_sent`; on the simulator
they are the fabric's :class:`~repro.cluster.stats.TrafficStats` cells,
read through (:meth:`~repro.cluster.Cluster.enable_observer`), so each
simulated send is counted once.

``NULL_OBSERVER`` is the disabled instance: every operation is a no-op,
so instrumented code runs unconditionally with negligible overhead when
observation is off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional

from .events import MessageEvent, SpanEvent
from .metrics import MetricsRegistry

__all__ = ["Observer", "NullObserver", "NULL_OBSERVER"]


class _SpanToken:
    """An open span returned by :meth:`Observer.begin`.

    Mutable on purpose: while the span is open, the observer accumulates
    the total duration of directly nested child spans in ``child_time``
    so that :meth:`Observer.end` can charge the *self time* (duration
    minus children) to the ``span.self_time`` histogram — the per-node
    compute attribution the trace analyzer's straggler report reads.
    """

    __slots__ = ("name", "start", "node", "phase", "layer", "pid", "args", "child_time")

    def __init__(self, name, start, node, phase, layer, pid, args):
        self.name = name
        self.start = start
        self.node = node
        self.phase = phase
        self.layer = layer
        self.pid = pid
        self.args = args
        self.child_time = 0.0


class Observer:
    """Collects spans, metrics, and message events against one clock.

    Parameters
    ----------
    clock:
        Zero-arg callable returning seconds.  ``None`` (default) reads
        the host monotonic clock; the simulated cluster installs
        ``engine.now`` via :meth:`set_clock` so the same instrumented
        code is timed in virtual seconds there.
    name:
        Label for the export metadata (experiment/backend name).
    """

    enabled = True

    def __init__(self, *, clock: Optional[Callable[[], float]] = None, name: str = "obs"):
        self.name = name
        self._clock = clock
        self.spans: List[SpanEvent] = []
        self.messages: List[MessageEvent] = []
        #: TelemetrySample stream (appended by a TelemetryAgent); rides
        #: snapshot()/absorb() like spans, so worker samples reach the
        #: parent's TimeSeriesAggregator.  See repro.obs.telemetry.
        self.telemetry: List[Any] = []
        self.metrics = MetricsRegistry()
        self.pid_names: Dict[int, str] = {}
        self._delivered_subs: List[Callable[[MessageEvent], None]] = []
        self._span_subs: List[Callable[[SpanEvent], None]] = []
        # Open-span stacks keyed (pid, node): each protocol node is
        # sequential within itself, so its spans nest LIFO; different
        # nodes interleave freely in the simulator and must not share a
        # stack.  Drives the span.self_time attribution in end().
        self._open: Dict[tuple, List[_SpanToken]] = {}

    # -- clock -------------------------------------------------------------
    def set_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def now(self) -> float:
        return self._clock() if self._clock is not None else time.monotonic()

    # -- spans -------------------------------------------------------------
    @contextmanager
    def span(
        self,
        name: str,
        *,
        node: int = -1,
        phase: str = "",
        layer: int = -1,
        pid: int = 0,
        **args: Any,
    ):
        """Context manager timing one region; safe inside generator
        protocols (the clock is read at entry and exit, whenever the
        surrounding generator actually executes those lines)."""
        token = self.begin(
            name, node=node, phase=phase, layer=layer, pid=pid, **args
        )
        try:
            yield self
        finally:
            self.end(token)

    def begin(
        self,
        name: str,
        *,
        node: int = -1,
        phase: str = "",
        layer: int = -1,
        pid: int = 0,
        **args: Any,
    ):
        """Explicit-form span open; pair with :meth:`end`.

        Protocol generators prefer this over the ``with`` form when the
        region does not nest cleanly in one lexical block."""
        token = _SpanToken(name, self.now(), node, phase, layer, pid, args)
        self._open.setdefault((pid, node), []).append(token)
        return token

    def end(self, token) -> None:
        """Close a span opened with :meth:`begin`.

        Besides recording the :class:`SpanEvent`, charges the span's
        *self time* — duration minus directly nested child spans on the
        same (pid, node) — to the ``span.self_time`` histogram, labelled
        ``phase=, layer=, node=``."""
        if token is None:
            return
        end = self.now()
        duration = end - token.start
        stack = self._open.get((token.pid, token.node))
        if stack is not None:
            try:
                stack.remove(token)
            except ValueError:
                pass  # already closed (double end is tolerated)
            else:
                if stack:
                    stack[-1].child_time += duration
                else:
                    del self._open[(token.pid, token.node)]
        self.metrics.histogram("span.self_time").observe(
            max(duration - token.child_time, 0.0),
            phase=token.phase,
            layer=token.layer,
            node=token.node,
        )
        ev = SpanEvent(
            name=token.name,
            start=token.start,
            end=end,
            node=token.node,
            phase=token.phase,
            layer=token.layer,
            pid=token.pid,
            args=token.args,
        )
        self.spans.append(ev)
        for fn in self._span_subs:
            fn(ev)

    # -- metrics passthrough ----------------------------------------------
    def counter(self, name: str):
        return self.metrics.counter(name)

    def gauge(self, name: str):
        return self.metrics.gauge(name)

    def histogram(self, name: str):
        return self.metrics.histogram(name)

    # -- message stream ----------------------------------------------------
    def message_sent(
        self, src: int, dst: int, nbytes: int, *, phase: str = "", layer: int = -1
    ) -> None:
        """One real-transport send: maintains the (phase, layer) traffic
        counters (self-messages separated, as in the paper's Fig 5).  The
        simulator never calls it: its fabric's cells are the counters."""
        prefix = "net.self_" if src == dst else "net."
        self.metrics.counter(prefix + "bytes").inc(nbytes, phase=phase, layer=layer)
        self.metrics.counter(prefix + "messages").inc(phase=phase, layer=layer)

    def message_delivered(
        self,
        src: int,
        dst: int,
        nbytes: int,
        sent_at: float,
        delivered_at: float,
        phase: str = "",
        layer: int = -1,
    ) -> None:
        """One completed transfer: recorded in :attr:`messages` (the
        timeline), charged to the per-phase latency histogram, fed to
        delivery subscribers (the flight recorder)."""
        ev = MessageEvent(
            src,
            dst,
            nbytes,
            phase=phase,
            layer=layer,
            sent_at=sent_at,
            delivered_at=delivered_at,
        )
        self.messages.append(ev)
        self.metrics.histogram("net.latency").observe(
            delivered_at - sent_at, phase=phase
        )
        for fn in self._delivered_subs:
            fn(ev)

    def subscribe_delivered(self, fn: Callable[[MessageEvent], None]) -> None:
        self._delivered_subs.append(fn)

    def subscribe_span(self, fn: Callable[[SpanEvent], None]) -> None:
        """Called with each SpanEvent as it closes (flight recorders)."""
        self._span_subs.append(fn)

    # -- naming ------------------------------------------------------------
    def name_pid(self, pid: int, name: str) -> None:
        """Display name for one producing process in the exported trace."""
        self.pid_names[pid] = name

    # -- cross-process merge ------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Everything a worker ships back to its parent (picklable)."""
        return {
            "spans": list(self.spans),
            "messages": list(self.messages),
            "telemetry": list(self.telemetry),
            "metrics": self.metrics.snapshot(),
        }

    def absorb(
        self, snap: Dict[str, Any], *, pid: Optional[int] = 0, name: str = ""
    ) -> None:
        """Merge a worker :meth:`snapshot`, re-homing its spans under
        ``pid`` so each worker gets its own process row in the trace
        (``pid=None`` keeps the spans' own rows)."""
        for sp in snap.get("spans", []):
            self.spans.append(sp if pid is None else replace(sp, pid=pid))
        self.messages.extend(snap.get("messages", []))
        self.telemetry.extend(snap.get("telemetry", []))
        self.metrics.absorb(snap.get("metrics", {}))
        if name:
            self.name_pid(pid, name)


class _NullMetric:
    """Swallows every metric operation; returned by the null observer."""

    def inc(self, value: float = 1, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass


class NullObserver(Observer):
    """The disabled observer: all operations are no-ops.

    Instrumented code does ``obs = cluster.obs or NULL_OBSERVER`` and
    then calls the API unconditionally; when observation is off the only
    cost is an empty context-manager entry per span site (per layer per
    node — never per message: transports guard their per-message calls
    on the real observer being installed).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0, name="null")
        self._metric = _NullMetric()

    @contextmanager
    def span(self, name: str, **kw: Any):
        yield self

    def begin(self, name: str, **kw: Any):
        return None

    def end(self, token) -> None:
        pass

    def counter(self, name: str):
        return self._metric

    def gauge(self, name: str):
        return self._metric

    def histogram(self, name: str):
        return self._metric

    def message_sent(self, *a: Any, **kw: Any) -> None:
        pass

    def message_delivered(self, *a: Any, **kw: Any) -> None:
        pass


#: Shared disabled instance (stateless by construction).
NULL_OBSERVER = NullObserver()
