"""The live telemetry plane: streaming metric samples, time series, and
the crash flight recorder.

Post-hoc traces answer "what happened"; a live 64-node service needs
"what is happening".  This module adds the streaming layer on top of the
:class:`~repro.obs.metrics.MetricsRegistry`:

* :class:`TelemetryAgent` — a per-node sampler.  Every ``interval``
  seconds it diffs the registry against its cursors and emits one
  :class:`TelemetrySample` carrying counter *deltas*, current gauge
  values, and :class:`~repro.obs.metrics.Histogram` summaries of the
  observations added since the previous sample.  One :class:`Sampler`
  drives it on any clock with ``now`` and ``schedule_at``: on the
  simulator's engine (virtual time, so two same-seed runs produce
  **bit-identical** time series) and on a real node's transport (wall
  time; ticks run in the node's one pump, so the registry has one
  writer and a tick due during a merge is taken right after it).
* :class:`TimeSeriesAggregator` — the central collector.  Samples arrive
  as observer events (a real node's ride its result snapshot home) or,
  for ``monitor --attach``, from a cluster node's buffer of recent
  samples; the aggregator keys them per (node, metric, labels) and
  offers rate/latest/percentile rollups, a canonical JSON document
  (``kylix-telemetry-v1``), and the text dashboard behind
  ``python -m repro monitor``.
* :class:`FlightRecorder` — a bounded ring buffer of recent observer
  events (spans, deliveries, samples).  On ``PeerFailedError`` or
  degraded completion it is dumped to a ``kylix-postmortem-v1`` JSON
  cross-linked with the dead-partial key audit: the coverage section
  carries the :class:`~repro.faults.CoverageReport`'s exact lost ranges
  and per-(member, phase, layer) loss records, so a crash under chaos
  leaves evidence instead of nothing.

See the "Live telemetry" section of ``docs/observability.md`` for the
schemas and the monitor CLI.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .metrics import Histogram, LabelKey

__all__ = [
    "TELEMETRY_SCHEMA",
    "POSTMORTEM_SCHEMA",
    "DEFAULT_INTERVAL",
    "TelemetrySample",
    "TelemetryAgent",
    "Sampler",
    "TimeSeriesAggregator",
    "FlightRecorder",
    "postmortem_doc",
]

TELEMETRY_SCHEMA = "kylix-telemetry-v1"
POSTMORTEM_SCHEMA = "kylix-postmortem-v1"

#: Default sampling interval (seconds — virtual on sim, wall on real).
DEFAULT_INTERVAL = 0.05

#: Glyph ramp for the dashboard sparklines (ASCII so CI logs render it).
_SPARK = " .:-=+*#%@"


@dataclass(frozen=True)
class TelemetrySample:
    """One agent tick: the registry's movement since the previous tick.

    ``counters`` maps ``name -> {labelkey: delta}`` (only moved series),
    ``gauges`` maps ``name -> {labelkey: value}`` (current values), and
    ``histograms`` maps ``name -> {labelkey: summary}`` where the
    summary covers only the observations recorded since the last sample.
    Label keys are the registry's canonical sorted tuples, so samples
    pickle across process boundaries and ride wire frames unchanged.
    """

    node: int
    t: float
    seq: int
    counters: Dict[str, Dict[LabelKey, float]] = field(default_factory=dict)
    gauges: Dict[str, Dict[LabelKey, float]] = field(default_factory=dict)
    histograms: Dict[str, Dict[LabelKey, Dict[str, float]]] = field(
        default_factory=dict
    )


class TelemetryAgent:
    """Samples one observer's metric registry on a fixed interval.

    The agent never copies the whole registry: counters are diffed
    against per-series cursors, histograms against per-series lengths,
    so each sample is proportional to what *moved*.  Every sample is
    appended to ``obs.telemetry`` (the observer-event path that rides
    worker snapshots home) and handed to any extra ``sink`` — a cluster
    node server's sink buffers them for monitor probes.
    """

    def __init__(
        self,
        obs,
        *,
        node: int = -1,
        interval: float = DEFAULT_INTERVAL,
        sink: Optional[Callable[[TelemetrySample], None]] = None,
    ):
        if interval <= 0:
            raise ValueError("telemetry interval must be positive")
        self.obs = obs
        self.node = int(node)
        self.interval = float(interval)
        self._sink = sink
        self._seq = 0
        self._counter_cursor: Dict[str, Dict[LabelKey, float]] = {}
        self._hist_cursor: Dict[str, Dict[LabelKey, int]] = {}

    def sample(self) -> TelemetrySample:
        """Take one sample now and return it."""
        reg = self.obs.metrics
        t = self.obs.now()
        counters: Dict[str, Dict[LabelKey, float]] = {}
        for name in sorted(reg._counters):
            prev = self._counter_cursor.setdefault(name, {})
            moved: Dict[LabelKey, float] = {}
            for k, v in reg._counters[name]._values.items():
                delta = v - prev.get(k, 0)
                if delta:
                    moved[k] = delta
                prev[k] = v
            if moved:
                counters[name] = moved
        gauges = {
            name: dict(reg._gauges[name]._values)
            for name in sorted(reg._gauges)
            if reg._gauges[name]._values
        }
        histograms: Dict[str, Dict[LabelKey, Dict[str, float]]] = {}
        for name in sorted(reg._histograms):
            cursor = self._hist_cursor.setdefault(name, {})
            moved_h: Dict[LabelKey, Dict[str, float]] = {}
            for k, obs_list in reg._histograms[name]._values.items():
                start = cursor.get(k, 0)
                fresh = obs_list[start:]
                cursor[k] = start + len(fresh)
                if fresh:
                    moved_h[k] = Histogram._summarise(fresh)
            if moved_h:
                histograms[name] = moved_h
        s = TelemetrySample(
            node=self.node,
            t=t,
            seq=self._seq,
            counters=counters,
            gauges=gauges,
            histograms=histograms,
        )
        self._seq += 1
        # Tally *after* the diff so a sample never counts itself.
        self.obs.counter("telemetry.samples").inc(node=self.node)
        self.obs.telemetry.append(s)
        if self._sink is not None:
            self._sink(s)
        return s


class Sampler:
    """Drives a :class:`TelemetryAgent` on a clock's timers.

    ``clock`` is anything with a ``now`` and a ``schedule_at(due, fn)``:
    the simulator's :class:`~repro.simul.engine.Engine` (virtual seconds;
    its (time, seq) tie-break makes the series deterministic) or a real
    node's :class:`~repro.net.transport.BaseTransport` (wall seconds; the
    tick runs in its pump).  Each tick samples and reschedules itself
    ``interval`` seconds later.  A stopped sampler leaves at most one
    inert call behind (it checks the flag and does not reschedule), so
    what follows is unperturbed.
    """

    #: Hard backstop on scheduled ticks, far above any real run.
    MAX_TICKS = 1_000_000

    def __init__(self, clock, agent: TelemetryAgent):
        self.clock = clock
        self.agent = agent
        self._stopped = False
        self._ticks = 0

    def start(self) -> "Sampler":
        self._schedule()
        return self

    def _schedule(self) -> None:
        self.clock.schedule_at(self.clock.now + self.agent.interval, self._tick)

    def _tick(self) -> None:
        if self._stopped or self._ticks >= self.MAX_TICKS:
            return
        self._ticks += 1
        self.agent.sample()
        self._schedule()

    def stop(self, *, flush: bool = True) -> None:
        """Stop rescheduling; ``flush`` takes one final catch-all sample."""
        self._stopped = True
        if flush:
            self.agent.sample()


def _labels_str(key: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


class TimeSeriesAggregator:
    """Per-(node, metric, labels) time series built from telemetry samples.

    Counters accumulate per-sample *deltas* (so ``rate`` is
    delta/elapsed between consecutive points and ``total`` is the sum);
    gauges keep the sampled value; histograms keep the per-interval
    summary dicts (count/min/max/mean/p50/p99) the agent computed from
    the fresh observations.

    Not internally locked: the aggregator is single-owner by design —
    a cluster driver ingests every node's frames from the one thread that
    runs ``net.session.collect``.
    """

    def __init__(self) -> None:
        self.kinds: Dict[str, str] = {}
        self.points: Dict[Tuple[int, str, LabelKey], List[Tuple[float, float]]] = {}
        self.hist_points: Dict[
            Tuple[int, str, LabelKey], List[Tuple[float, Dict[str, float]]]
        ] = {}
        self.nodes: set = set()
        self.samples = 0

    # -- ingest ------------------------------------------------------------
    def ingest(self, sample: TelemetrySample) -> None:
        self.samples += 1
        self.nodes.add(sample.node)
        for kind, series in (("counter", sample.counters), ("gauge", sample.gauges)):
            for name, values in series.items():
                self.kinds.setdefault(name, kind)
                for key, value in values.items():
                    self.points.setdefault((sample.node, name, key), []).append(
                        (sample.t, float(value))
                    )
        for name, summaries in sample.histograms.items():
            self.kinds.setdefault(name, "histogram")
            for key, summ in summaries.items():
                self.hist_points.setdefault((sample.node, name, key), []).append(
                    (sample.t, dict(summ))
                )

    def ingest_many(self, samples: Iterable[TelemetrySample]) -> int:
        n = 0
        for s in samples:
            self.ingest(s)
            n += 1
        return n

    def ingest_observer(self, obs) -> int:
        """Consume every sample the observer (and its absorbed workers)
        accumulated under ``obs.telemetry``."""
        return self.ingest_many(getattr(obs, "telemetry", ()))

    # -- rollups -----------------------------------------------------------
    def series(self, node: int, metric: str, **labels: Any) -> List[Tuple[float, float]]:
        key = tuple(sorted(labels.items()))
        return list(self.points.get((node, metric, key), []))

    def total(self, node: int, metric: str, **labels: Any) -> float:
        return sum(v for _, v in self.series(node, metric, **labels))

    def latest(self, node: int, metric: str, **labels: Any) -> Optional[float]:
        pts = self.series(node, metric, **labels)
        return pts[-1][1] if pts else None

    def rate(self, node: int, metric: str, **labels: Any) -> List[Tuple[float, float]]:
        """Counter movement per second between consecutive samples."""
        pts = self.series(node, metric, **labels)
        out: List[Tuple[float, float]] = []
        for (t0, _), (t1, v1) in zip(pts, pts[1:]):
            dt = t1 - t0
            out.append((t1, v1 / dt if dt > 0 else 0.0))
        return out

    def percentiles(
        self, node: int, metric: str, **labels: Any
    ) -> List[Tuple[float, float, float]]:
        """(t, p50, p99) trend of one histogram series."""
        key = tuple(sorted(labels.items()))
        return [
            (t, s.get("p50", 0.0), s.get("p99", 0.0))
            for t, s in self.hist_points.get((node, metric, key), [])
        ]

    def span(self) -> Tuple[float, float]:
        """(earliest, latest) sample timestamp across every series."""
        times = [t for pts in self.points.values() for t, _ in pts]
        times += [t for pts in self.hist_points.values() for t, _ in pts]
        if not times:
            return (0.0, 0.0)
        return (min(times), max(times))

    # -- export ------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """Canonical ``kylix-telemetry-v1`` document.

        Fully value-determined: series are sorted by (metric, node,
        labels), label keys flatten to plain dicts, no wall-clock or
        environment detail leaks in — same-seed simulator runs produce
        byte-identical documents.
        """

        def rows(points, kind: bool):
            return [
                {
                    "node": node,
                    "metric": metric,
                    **({"kind": self.kinds.get(metric, "counter")} if kind else {}),
                    "labels": {k: v for k, v in key},
                    "points": [[t, v] for t, v in points[(node, metric, key)]],
                }
                for node, metric, key in sorted(
                    points, key=lambda k: (k[1], k[0], _labels_str(k[2]))
                )
            ]

        return {
            "schema": TELEMETRY_SCHEMA,
            "nodes": sorted(self.nodes),
            "samples": self.samples,
            "metrics": {name: self.kinds[name] for name in sorted(self.kinds)},
            "series": rows(self.points, True),
            "histograms": rows(self.hist_points, False),
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "TimeSeriesAggregator":
        if doc.get("schema") != TELEMETRY_SCHEMA:
            raise ValueError(
                f"not a {TELEMETRY_SCHEMA} document (schema={doc.get('schema')!r})"
            )
        agg = cls()
        agg.samples = int(doc.get("samples", 0))
        agg.nodes = set(doc.get("nodes", []))
        agg.kinds = dict(doc.get("metrics", {}))
        for points, section, value in (
            (agg.points, "series", lambda v: v), (agg.hist_points, "histograms", dict)
        ):
            for row in doc.get(section, []):
                key = tuple(sorted(row["labels"].items()))
                points[(row["node"], row["metric"], key)] = [
                    (p[0], value(p[1])) for p in row["points"]
                ]
        return agg

    # -- dashboard ---------------------------------------------------------
    def render(self, *, width: int = 32, max_rows: int = 24) -> str:
        """The refreshing text dashboard behind ``python -m repro monitor``."""
        t0, t1 = self.span()
        lines = [
            f"telemetry — {len(self.nodes)} node(s), "
            f"{len(self.points) + len(self.hist_points)} series, "
            f"{self.samples} sample(s), t=[{t0:.3f}, {t1:.3f}]"
        ]
        rows = sorted(
            self.points,
            key=lambda k: (-abs(sum(v for _, v in self.points[k])), k[1], k[0]),
        )
        shown = 0
        for key3 in rows:
            if shown >= max_rows:
                lines.append(f"  … {len(rows) - shown} more series")
                break
            node, metric, key = key3
            pts = self.points[key3]
            values = [v for _, v in pts]
            kind = self.kinds.get(metric, "counter")
            head = f"{metric}[{_labels_str(key)}]" if key else metric
            if kind == "counter":
                stat = f"total {sum(values):14,.0f}  last Δ {values[-1]:10,.0f}"
            else:
                stat = f"value {values[-1]:14,.3f}" + " " * 19
            lines.append(
                f"  n{node:>3} {head:<48} {stat}  {_sparkline(values, width)}"
            )
            shown += 1
        for key3 in sorted(self.hist_points, key=lambda k: (k[1], k[0])):
            node, metric, key = key3
            _, last = self.hist_points[key3][-1]
            head = f"{metric}[{_labels_str(key)}]" if key else metric
            p99s = [s.get("p99", 0.0) for _, s in self.hist_points[key3]]
            lines.append(
                f"  n{node:>3} {head:<48} p50 {last.get('p50', 0.0):10.4f}  "
                f"p99 {last.get('p99', 0.0):10.4f}  {_sparkline(p99s, width)}"
            )
        return "\n".join(lines)


def _sparkline(values: List[float], width: int) -> str:
    if not values:
        return ""
    tail = values[-width:]
    lo, hi = min(tail), max(tail)
    if hi <= lo:
        return _SPARK[1] * len(tail)
    scale = (len(_SPARK) - 1) / (hi - lo)
    return "".join(_SPARK[max(1, int((v - lo) * scale))] for v in tail)


class FlightRecorder:
    """Bounded ring of recent observer events, dumped on failure.

    Attach to an observer to capture span closes and message deliveries
    as they happen; transports and agents may :meth:`record` their own
    marks.  The ring (``deque(maxlen=capacity)``) keeps only the most
    recent ``capacity`` events — the point is the last seconds before a
    crash, not the whole run.
    """

    def __init__(self, capacity: int = 256, *, node: int = -1):
        if capacity < 1:
            raise ValueError("flight-recorder capacity must be >= 1")
        self.capacity = int(capacity)
        self.node = int(node)
        self._ring: deque = deque(maxlen=self.capacity)
        self.recorded = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events that aged out of the ring."""
        return self.recorded - len(self._ring)

    def record(self, kind: str, t: float, **payload: Any) -> None:
        self.recorded += 1
        self._ring.append({"t": float(t), "kind": kind, **payload})

    def attach(self, obs) -> "FlightRecorder":
        """Subscribe to an observer's span and delivery streams."""
        obs.subscribe_span(
            lambda sp: self.record(
                "span",
                sp.end,
                name=sp.name,
                node=sp.node,
                phase=sp.phase,
                layer=sp.layer,
                start=sp.start,
            )
        )
        obs.subscribe_delivered(
            lambda ev: self.record(
                "message",
                ev.delivered_at if ev.delivered_at is not None else ev.sent_at,
                src=ev.src,
                dst=ev.dst,
                nbytes=ev.nbytes,
                phase=ev.phase,
                layer=ev.layer,
            )
        )
        return self

    def events(self) -> List[Dict[str, Any]]:
        return list(self._ring)

    def postmortem(
        self,
        *,
        error: Optional[BaseException] = None,
        report: Any = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The ``kylix-postmortem-v1`` document (see module doc)."""
        return postmortem_doc(
            self.events(),
            node=self.node,
            capacity=self.capacity,
            recorded=self.recorded,
            error=error,
            report=report,
            context=context,
        )

    def dump(self, path: str, **kw: Any) -> Dict[str, Any]:
        """Write the postmortem JSON to ``path``; returns the document."""
        doc = self.postmortem(**kw)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        return doc


def postmortem_doc(
    events: List[Dict[str, Any]],
    *,
    node: int = -1,
    capacity: int = 0,
    recorded: int = 0,
    error: Optional[BaseException] = None,
    report: Any = None,
    context: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a postmortem document from raw parts.

    ``report`` is a :class:`~repro.faults.CoverageReport` (or None): its
    exact lost ranges and dead-partial audit records become the
    ``coverage`` section, which is the cross-link the acceptance tests
    pin — the postmortem's lost ranges *are* the degraded run's.
    """
    err_doc = None
    if error is not None:
        err_doc = {"type": type(error).__name__, "message": str(error)}
        for attr in ("slot", "phase", "layer"):
            val = getattr(error, attr, None)
            if val is not None:
                err_doc[attr] = val
    coverage = None
    if report is not None:
        coverage = {
            "total_ranks": int(report.total_ranks),
            "lost": {
                str(rank): [int(i) for i in idx]
                for rank, idx in sorted(report.lost_indices.items())
            },
            "dead_members": sorted({int(m) for m in report.dead_members}),
            "losses": [
                {
                    "rank": int(e.rank),
                    "member": int(e.member),
                    "phase": e.phase,
                    "layer": int(e.layer),
                }
                for e in report.losses
            ],
        }
    doc: Dict[str, Any] = {
        "schema": POSTMORTEM_SCHEMA,
        "node": int(node),
        "capacity": int(capacity),
        "recorded": int(recorded),
        "dropped": max(int(recorded) - len(events), 0),
        "error": err_doc,
        "coverage": coverage,
        "events": events,
    }
    if context:
        doc["context"] = dict(context)
    return doc
