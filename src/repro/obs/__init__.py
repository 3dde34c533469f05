"""``repro.obs`` — unified observability: spans, metrics, trace export.

The paper explains its 64-node overhead as "lack of synchronization …
absorbed in the communication time measurements"; interrogating claims
like that needs first-class instrumentation, not ad-hoc timers.  This
package is the one lens over both execution backends:

* :class:`Observer` — span API + metrics registry + message-event
  stream, timed against the simulator's virtual clock or the host's
  monotonic clock transparently;
* :mod:`repro.obs.metrics` — labelled counters/gauges/histograms
  (bytes and messages per (phase, layer), merge lengths, retry/NACK
  counts, latency tails);
* :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON, a flat metrics
  JSON for regression tracking, and a text summary, plus the schema
  validator CI runs on the artifacts;
* :mod:`repro.obs.runner` — the named end-to-end experiments behind
  ``python -m repro trace <experiment> --backend sim|local``;
* :mod:`repro.obs.analyze` — trace analytics over a run (critical-path
  extraction, queue-wait/straggler reports, the per-layer volume
  "goblet"), consuming a live observer or exported JSON — on the
  simulator its numbers for the named experiments are golden values,
  pinned by ``tests/test_experiment_golden.py`` (wall-clock speed is
  ``perfbench``'s to measure);
* :mod:`repro.obs.telemetry` — the *live* plane: streaming metric
  samplers on every backend, the per-(node, metric, labels) time-series
  aggregator behind ``python -m repro monitor``, and the crash flight
  recorder that dumps a postmortem cross-linked with the dead-partial
  key audit.

Enable on the simulator with ``Cluster(observe=True)`` (or hand in your
own :class:`Observer`); on the real-process backend pass
``LocalKylix(observe=Observer())`` and worker events are shipped back to
the parent automatically.  See ``docs/observability.md``.
"""

from .analyze import (
    CriticalPath,
    GobletReport,
    StragglerReport,
    TraceAnalysis,
    analyze,
    render_analysis,
)
from .events import MessageEvent, SpanEvent
from .export import chrome_trace, metrics_json, text_summary, validate_chrome_trace
from .metrics import CATALOGUE, Counter, Gauge, Histogram, MetricsRegistry
from .observer import NULL_OBSERVER, NullObserver, Observer
from .telemetry import (
    DEFAULT_INTERVAL,
    POSTMORTEM_SCHEMA,
    TELEMETRY_SCHEMA,
    FlightRecorder,
    Sampler,
    TelemetryAgent,
    TelemetrySample,
    TimeSeriesAggregator,
    postmortem_doc,
)

__all__ = [
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "SpanEvent",
    "MessageEvent",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CATALOGUE",
    "chrome_trace",
    "metrics_json",
    "text_summary",
    "validate_chrome_trace",
    "TraceAnalysis",
    "CriticalPath",
    "StragglerReport",
    "GobletReport",
    "analyze",
    "render_analysis",
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
