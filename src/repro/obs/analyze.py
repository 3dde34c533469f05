"""Trace analytics: critical paths, stragglers, queue waits, the goblet.

Nobody reads a 50k-event trace by hand.  This module turns one observed
run — a live :class:`~repro.obs.Observer`, an exported Chrome-trace
JSON, or a flat metrics JSON, from either execution backend — into the
three answers the ROADMAP's perf work needs:

* **critical path** — the chain of per-(phase, layer) protocol steps
  that bounds the run's wall/virtual time, with per-phase and per-layer
  attribution (how much each step *advanced* the completion frontier);
* **straggler report** — per-layer slowest-node-over-median ratios (the
  paper's §V skew discussion) combined with per-source delivery-latency
  medians, fed by the ``span.self_time`` and ``net.queue_wait`` series
  the fabric and :class:`~repro.net.local.LocalKylix` emit;
* **goblet report** — the per-layer communication-volume curve of
  Fig 5, reproduced exactly from the ``net.bytes``/``net.self_bytes``
  counters (on the simulator, the fabric's
  :class:`~repro.cluster.stats.TrafficStats` cells read through).

It reads the observer's one message timeline (``obs.messages``); there
is no second per-message recorder with a straggler rule of its own.

Entry point: ``analyze(x)`` accepts any of the three input shapes and
returns a :class:`TraceAnalysis`; the ``render_*`` helpers format each
report as a plain-text table (returned, never printed — the CLI faces
in :mod:`repro.__main__` do the printing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .events import MessageEvent, SpanEvent
from .export import NET_PID
from .observer import Observer

__all__ = [
    "TraceAnalysis",
    "CriticalStep",
    "CriticalPath",
    "LayerSkew",
    "StragglerReport",
    "QueueWaitReport",
    "GobletReport",
    "analyze",
    "render_critical_path",
    "render_straggler",
    "render_queue_wait",
    "render_goblet",
    "render_analysis",
]

#: Phases that carry reduction volume (Fig 5 sums down + up per layer).
REDUCTION_PHASES = ("reduce_down", "combined_down", "gather_up")

#: A node must be this much slower than the median before the report
#: names it a straggler (below it, skew is ordinary jitter).
SKEW_THRESHOLD = 1.5


# ---------------------------------------------------------------------------
# Report shapes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CriticalStep:
    """One (phase, layer) protocol step on the completion frontier."""

    phase: str
    layer: int
    start: float  # earliest span start in the step
    end: float  # latest span end in the step
    advance: float  # how far this step pushed the frontier
    spans: int
    slowest_node: int  # node whose span ends last (bounds the step)
    slowest_seconds: float


@dataclass(frozen=True)
class CriticalPath:
    """The frontier walk over every step, bounding the run end to end."""

    t0: float
    t_end: float
    total: float  # t_end - t0
    steps: Tuple[CriticalStep, ...]

    @property
    def attributed(self) -> float:
        """Seconds of the total explained by protocol steps; the rest is
        driver overhead / inter-run gaps."""
        return sum(s.advance for s in self.steps)

    def by_phase(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for s in self.steps:
            out[s.phase] = out.get(s.phase, 0.0) + s.advance
        return dict(sorted(out.items()))

    def by_layer(self) -> Dict[Tuple[str, int], float]:
        return {(s.phase, s.layer): s.advance for s in self.steps}


@dataclass(frozen=True)
class LayerSkew:
    """Slowest-node-over-median ratio for one (phase, layer) step."""

    phase: str
    layer: int
    slowest_node: int
    slowest_seconds: float
    median_seconds: float

    @property
    def ratio(self) -> float:
        if self.median_seconds <= 0.0:
            return 1.0 if self.slowest_seconds <= 0.0 else float("inf")
        return self.slowest_seconds / self.median_seconds


@dataclass(frozen=True)
class StragglerReport:
    """Per-layer span skew + per-source link latency, and the verdict."""

    layers: Tuple[LayerSkew, ...]
    link_latency: Dict[int, Dict[str, float]]  # src -> count/median/max
    straggler: Optional[int]
    reason: str  # "link" | "compute" | "balanced"


@dataclass(frozen=True)
class QueueWaitReport:
    """``net.queue_wait`` summaries, per label row and rolled per node."""

    rows: Tuple[Tuple[Dict[str, Any], Dict[str, float]], ...]
    per_node: Dict[int, Dict[str, float]]  # node -> count/mean/max


@dataclass(frozen=True)
class GobletReport:
    """Fig 5: per-layer reduction volume (down + up passes, self bytes
    included), exactly as :meth:`TrafficStats.merged` computes it."""

    layers: Dict[int, int]
    config_layers: Dict[int, int]
    total_bytes: int
    total_messages: int

    @property
    def strictly_decreasing(self) -> bool:
        vols = [self.layers[k] for k in sorted(self.layers)]
        return all(a > b for a, b in zip(vols, vols[1:]))


# ---------------------------------------------------------------------------
# The analysis container + loaders
# ---------------------------------------------------------------------------
class TraceAnalysis:
    """One run's spans, messages, and metrics in a uniform shape.

    Construct via :func:`analyze` (or the ``from_*`` classmethods).  The
    metrics document follows :meth:`MetricsRegistry.as_dict`: counters
    carry exact values whichever loader produced them; histograms carry
    exact observations from a live observer but only summaries after a
    JSON round trip (documented approximation).
    """

    def __init__(
        self,
        *,
        spans: List[SpanEvent],
        messages: List[MessageEvent],
        metrics: Dict[str, Any],
        name: str = "trace",
    ):
        self.spans = spans
        self.messages = messages
        self.metrics = metrics
        self.name = name

    # -- loaders -----------------------------------------------------------
    @classmethod
    def from_observer(cls, obs: Observer) -> "TraceAnalysis":
        return cls(
            spans=list(obs.spans),
            messages=list(obs.messages),
            metrics=obs.metrics.as_dict(),
            name=obs.name,
        )

    @classmethod
    def from_chrome_trace(cls, doc: Dict[str, Any]) -> "TraceAnalysis":
        """Rebuild spans/messages from an exported Chrome trace.

        Timestamps come back in seconds from the export epoch (the
        exporter wrote microseconds from the earliest event); network
        lanes (pid ``NET_PID``) become :class:`MessageEvent`\\ s again.
        """
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("not a Chrome trace: missing 'traceEvents' list")
        spans: List[SpanEvent] = []
        messages: List[MessageEvent] = []
        for ev in events:
            if not isinstance(ev, dict) or ev.get("ph") != "X":
                continue
            args = ev.get("args", {}) or {}
            start = float(ev.get("ts", 0.0)) / 1e6
            end = start + float(ev.get("dur", 0.0)) / 1e6
            if ev.get("pid") == NET_PID:
                messages.append(
                    MessageEvent(
                        src=int(args.get("src", -1)),
                        dst=int(args.get("dst", -1)),
                        nbytes=int(args.get("nbytes", 0)),
                        phase=str(args.get("phase", "")),
                        layer=int(args.get("layer", -1)),
                        sent_at=start,
                        delivered_at=end,
                    )
                )
            else:
                extra = {
                    k: v
                    for k, v in args.items()
                    if k not in ("node", "phase", "layer")
                }
                spans.append(
                    SpanEvent(
                        name=str(ev.get("name", "")),
                        start=start,
                        end=end,
                        node=int(args.get("node", int(ev.get("tid", 0)) - 1)),
                        phase=str(args.get("phase", "")),
                        layer=int(args.get("layer", -1)),
                        pid=int(ev.get("pid", 0)),
                        args=extra,
                    )
                )
        name = str((doc.get("otherData") or {}).get("observer", "trace"))
        return cls(
            spans=spans, messages=messages, metrics=doc.get("metrics", {}), name=name
        )

    @classmethod
    def from_metrics_json(cls, doc: Dict[str, Any]) -> "TraceAnalysis":
        """Metrics-only analysis (no timeline): goblet and queue-wait
        reports work, critical path / span skew are empty."""
        return cls(
            spans=[],
            messages=[],
            metrics=doc.get("metrics", {}),
            name=str(doc.get("observer", "metrics")),
        )

    # -- metric access -----------------------------------------------------
    def counter_items(self, metric: str) -> List[Tuple[Dict[str, Any], float]]:
        rows = (self.metrics.get("counters") or {}).get(metric, [])
        return [(r["labels"], r["value"]) for r in rows]

    def histogram_items(self, metric: str) -> List[Tuple[Dict[str, Any], Dict[str, float]]]:
        rows = (self.metrics.get("histograms") or {}).get(metric, [])
        return [
            (r.get("labels", {}), {k: v for k, v in r.items() if k != "labels"})
            for r in rows
        ]

    # -- reports -----------------------------------------------------------
    def _step_spans(self) -> List[SpanEvent]:
        """Protocol step spans: per-node, per-layer, merge sub-spans
        excluded (they nest inside their step and would double count)."""
        return [
            sp
            for sp in self.spans
            if sp.layer >= 1 and sp.node >= 0 and sp.args.get("kind") != "merge"
        ]

    def critical_path(self) -> CriticalPath:
        """Walk the completion frontier across (phase, layer) steps.

        Steps execute in dependency order (config/down layers top-down,
        then up layers bottom-up); each step's *advance* is how far its
        latest span end pushed the frontier past everything before it —
        zero for steps fully hidden under an earlier step's tail.
        ``sum(advance)`` over steps is the protocol-attributed fraction
        of the run; the remainder is driver overhead and gaps.
        """
        if not self.spans:
            return CriticalPath(t0=0.0, t_end=0.0, total=0.0, steps=())
        t0 = min(sp.start for sp in self.spans)
        t_end = max(sp.end for sp in self.spans)
        groups: Dict[Tuple[str, int], List[SpanEvent]] = {}
        for sp in self._step_spans():
            groups.setdefault((sp.phase, sp.layer), []).append(sp)
        ordered = sorted(
            groups.items(), key=lambda kv: (min(sp.start for sp in kv[1]), kv[0])
        )
        frontier = t0
        steps: List[CriticalStep] = []
        for (phase, layer), spans in ordered:
            start = min(sp.start for sp in spans)
            slowest = max(spans, key=lambda sp: sp.end)
            end = slowest.end
            advance = max(0.0, end - frontier)
            frontier = max(frontier, end)
            steps.append(
                CriticalStep(
                    phase=phase,
                    layer=layer,
                    start=start,
                    end=end,
                    advance=advance,
                    spans=len(spans),
                    slowest_node=slowest.node,
                    slowest_seconds=slowest.duration,
                )
            )
        return CriticalPath(t0=t0, t_end=t_end, total=t_end - t0, steps=tuple(steps))

    def straggler_report(self) -> StragglerReport:
        """Name the straggling node, if any, and say why.

        Two independent signals: per-(phase, layer) span skew (slowest
        node over median — a slow *merge/compute* shows here) and
        per-source delivery-latency medians (a slow or fault-delayed
        *link* shows at the node's peers' receives, so the source with
        outlying median latency is the culprit).  Link evidence wins
        when both fire: a delayed link also stalls its receivers' spans,
        but not vice versa.
        """
        # Span skew per step: per-node busy seconds within the step.
        skews: List[LayerSkew] = []
        groups: Dict[Tuple[str, int], Dict[int, float]] = {}
        for sp in self._step_spans():
            per_node = groups.setdefault((sp.phase, sp.layer), {})
            per_node[sp.node] = per_node.get(sp.node, 0.0) + sp.duration
        for (phase, layer), per_node in sorted(groups.items()):
            if len(per_node) < 2:
                continue
            slowest_node = max(per_node, key=lambda n: per_node[n])
            med = float(np.median(list(per_node.values())))
            skews.append(
                LayerSkew(
                    phase=phase,
                    layer=layer,
                    slowest_node=slowest_node,
                    slowest_seconds=per_node[slowest_node],
                    median_seconds=med,
                )
            )

        # Link latency per source.
        by_src: Dict[int, List[float]] = {}
        for ev in self.messages:
            if ev.delivered_at is None or ev.src == ev.dst:
                continue
            by_src.setdefault(ev.src, []).append(ev.delivered_at - ev.sent_at)
        link_latency = {
            src: {
                "count": float(len(lats)),
                "median": float(np.median(lats)),
                "max": float(max(lats)),
            }
            for src, lats in sorted(by_src.items())
        }

        straggler: Optional[int] = None
        reason = "balanced"
        if len(link_latency) >= 2:
            medians = {s: d["median"] for s, d in link_latency.items()}
            worst = max(medians, key=lambda s: medians[s])
            others = [m for s, m in medians.items() if s != worst]
            baseline = float(np.median(others))
            if baseline > 0.0 and medians[worst] / baseline >= SKEW_THRESHOLD:
                straggler, reason = worst, "link"
        if straggler is None and skews:
            # Count how often each node bounds a step, weighted by ratio.
            votes: Dict[int, float] = {}
            for sk in skews:
                if sk.ratio >= SKEW_THRESHOLD:
                    votes[sk.slowest_node] = votes.get(sk.slowest_node, 0.0) + sk.ratio
            if votes:
                straggler = max(votes, key=lambda n: votes[n])
                reason = "compute"
        return StragglerReport(
            layers=tuple(skews),
            link_latency=link_latency,
            straggler=straggler,
            reason=reason,
        )

    def queue_wait_report(self) -> QueueWaitReport:
        rows = tuple(
            (labels, summ)
            for labels, summ in self.histogram_items("net.queue_wait")
            if summ.get("count")
        )
        per_node: Dict[int, Dict[str, float]] = {}
        for labels, summ in rows:
            node = int(labels.get("node", -1))
            agg = per_node.setdefault(node, {"count": 0.0, "mean": 0.0, "max": 0.0})
            n_old, n_new = agg["count"], float(summ["count"])
            agg["mean"] = (agg["mean"] * n_old + summ["mean"] * n_new) / (n_old + n_new)
            agg["count"] = n_old + n_new
            agg["max"] = max(agg["max"], float(summ["max"]))
        return QueueWaitReport(rows=rows, per_node=dict(sorted(per_node.items())))

    def goblet_report(self) -> GobletReport:
        """The Fig 5 volume curve from the exact traffic counters."""
        layers: Dict[int, int] = {}
        config_layers: Dict[int, int] = {}
        total_bytes = 0
        for metric in ("net.bytes", "net.self_bytes"):
            for labels, value in self.counter_items(metric):
                total_bytes += int(value)
                layer = int(labels.get("layer", -1))
                if layer < 1:
                    continue
                phase = labels.get("phase", "")
                if phase in REDUCTION_PHASES:
                    layers[layer] = layers.get(layer, 0) + int(value)
                elif phase == "config":
                    config_layers[layer] = config_layers.get(layer, 0) + int(value)
        total_messages = sum(
            int(v)
            for metric in ("net.messages", "net.self_messages")
            for _, v in self.counter_items(metric)
        )
        return GobletReport(
            layers=dict(sorted(layers.items())),
            config_layers=dict(sorted(config_layers.items())),
            total_bytes=total_bytes,
            total_messages=total_messages,
        )

    def merge_seconds(self) -> float:
        """Total time inside merge-kernel spans (``kind="merge"``)."""
        return sum(
            sp.duration for sp in self.spans if sp.args.get("kind") == "merge"
        )


def analyze(x: Any) -> TraceAnalysis:
    """Build a :class:`TraceAnalysis` from whatever describes a run:
    a live :class:`Observer`, a Chrome-trace JSON object, a flat metrics
    JSON object, or an existing analysis (returned as is)."""
    if isinstance(x, TraceAnalysis):
        return x
    if isinstance(x, Observer):
        return TraceAnalysis.from_observer(x)
    if isinstance(x, dict):
        if "traceEvents" in x:
            return TraceAnalysis.from_chrome_trace(x)
        if "metrics" in x:
            return TraceAnalysis.from_metrics_json(x)
    raise TypeError(
        f"cannot analyze {type(x).__name__}: expected an Observer, a "
        "Chrome-trace dict, a metrics-JSON dict, or a TraceAnalysis"
    )


# ---------------------------------------------------------------------------
# Text renderers (return strings; CLI faces do the printing)
# ---------------------------------------------------------------------------
def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:10.3f} ms"


def render_critical_path(cp: CriticalPath) -> str:
    lines = [
        f"critical path: {_ms(cp.total).strip()} end to end "
        f"({_ms(cp.attributed).strip()} attributed to protocol steps)"
    ]
    lines.append("  step                advance        step span      slowest node")
    for s in cp.steps:
        lines.append(
            f"  {s.phase:>13} L{s.layer}  {_ms(s.advance)}  "
            f"{_ms(s.end - s.start)}  node {s.slowest_node:>3} "
            f"({_ms(s.slowest_seconds).strip()})"
        )
    if cp.steps:
        lines.append("  by phase:")
        for phase, adv in cp.by_phase().items():
            share = adv / cp.total if cp.total > 0 else 0.0
            lines.append(f"    {phase:>16}  {_ms(adv)}  {share:6.1%}")
    return "\n".join(lines)


def render_straggler(sr: StragglerReport) -> str:
    if sr.straggler is not None:
        head = f"straggler: node {sr.straggler} ({sr.reason})"
    else:
        head = "straggler: none (balanced)"
    lines = [head]
    if sr.layers:
        lines.append("  per-layer skew (slowest node / median):")
        for sk in sr.layers:
            lines.append(
                f"    {sk.phase:>16} L{sk.layer}  node {sk.slowest_node:>3}  "
                f"{_ms(sk.slowest_seconds)} / {_ms(sk.median_seconds)}  "
                f"ratio {sk.ratio:6.2f}"
            )
    if sr.link_latency:
        lines.append("  delivery latency by source:")
        for src, d in sr.link_latency.items():
            lines.append(
                f"    node {src:>3}  median {_ms(d['median'])}  "
                f"max {_ms(d['max'])}  ({d['count']:.0f} msgs)"
            )
    return "\n".join(lines)


def render_queue_wait(qw: QueueWaitReport) -> str:
    if not qw.per_node:
        return "queue wait: no observations"
    lines = ["queue wait by receiving node:"]
    for node, agg in qw.per_node.items():
        lines.append(
            f"  node {node:>3}  mean {_ms(agg['mean'])}  "
            f"max {_ms(agg['max'])}  ({agg['count']:.0f} waits)"
        )
    return "\n".join(lines)


def render_goblet(gr: GobletReport) -> str:
    lines = [
        f"goblet (per-layer reduction volume, down+up, self included) — "
        f"{gr.total_bytes:,} B / {gr.total_messages:,} msgs total"
    ]
    peak = max(gr.layers.values()) if gr.layers else 0
    for layer, nbytes in gr.layers.items():
        bar = "#" * max(1, round(40 * nbytes / peak)) if peak else ""
        lines.append(f"  L{layer}  {nbytes:14,} B  {bar}")
    if gr.layers:
        shape = "decreasing" if gr.strictly_decreasing else "NOT decreasing"
        lines.append(f"  shape: strictly {shape} toward the bottom (Fig 5)")
    return "\n".join(lines)


def render_analysis(x: Any) -> str:
    """The full analyzer report for one run, as a single string."""
    a = analyze(x)
    parts = [f"trace analysis — {a.name}"]
    cp = a.critical_path()
    if cp.steps:
        parts.append(render_critical_path(cp))
    parts.append(render_straggler(a.straggler_report()))
    parts.append(render_queue_wait(a.queue_wait_report()))
    parts.append(render_goblet(a.goblet_report()))
    merge = a.merge_seconds()
    if merge > 0.0:
        parts.append(f"merge kernels: {_ms(merge).strip()} total")
    return "\n\n".join(parts)
