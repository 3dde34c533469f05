"""The metrics registry: labelled counters, gauges, and histograms.

SparCML- and Flare-style performance analysis lives on a handful of
aggregate shapes — bytes and messages per (phase, layer), merge lengths,
retry/NACK counts, queue-wait distributions.  A
:class:`MetricsRegistry` holds them all under stable string names with
free-form key=value labels, so the same registry serves the simulator
(labels carry protocol phases and butterfly layers) and the real-process
backend (one registry per worker, merged in the parent).

Everything is plain Python accumulation — no background threads, no
sampling — so identical runs produce identical metric dumps, which is
what lets the regression-tracking JSON be diffed across commits.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple

import numpy as np

__all__ = ["Counter", "LedgerCounter", "Gauge", "Histogram", "MetricsRegistry", "CATALOGUE"]

LabelKey = Tuple[Tuple[str, Any], ...]

#: The metric catalogue: every series the instrumented backends emit (or
#: reserve), as ``name -> (kind, labels, meaning)``.  One source of truth
#: for the docs table in ``docs/observability.md``; the test suite checks
#: that every metric a traced run produces is listed here, so new
#: instrumentation must register its names.  The ``config.cache.*``
#: counters — reserved since the catalogue first shipped — are now
#: emitted by :class:`repro.service.ConfigCache` (keyed configuration
#: reuse across reduces with an unchanged sparsity pattern); the
#: ``service.*`` counters come from the :class:`repro.service.ReduceService`
#: front-end multiplexing named streams over one fabric.
CATALOGUE: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "net.bytes": ("counter", ("phase", "layer"), "network bytes per (phase, layer); on the simulator read off the fabric's TrafficStats cells"),
    "net.messages": ("counter", ("phase", "layer"), "network messages per (phase, layer)"),
    "net.self_bytes": ("counter", ("phase", "layer"), "bytes a node sends to itself (counted in volume, free on the wire)"),
    "net.self_messages": ("counter", ("phase", "layer"), "self-messages per (phase, layer)"),
    "net.latency": ("histogram", ("phase",), "send-to-delivery time per message, both backends"),
    "net.queue_wait": ("histogram", ("node", "phase", "layer"), "delivery-to-consumption time per message, per receiving node"),
    "span.self_time": ("histogram", ("node", "phase", "layer"), "span duration minus nested children: per-node compute attribution"),
    "config.merge_length": ("histogram", ("phase", "layer"), "union sizes out of union_with_maps during configuration"),
    "config.cache.hits": ("counter", ("phase",), "config-cache lookups served from a memoised entry (repro.service.ConfigCache)"),
    "config.cache.misses": ("counter", ("phase",), "config-cache lookups that had to run configuration"),
    "config.cache.invalidations": ("counter", ("phase",), "config-cache invalidations on sparsity-pattern drift"),
    "config.cache.evictions": ("counter", ("phase",), "config-cache entries LRU-evicted at capacity"),
    "service.submitted": ("counter", ("stream",), "reduces admitted per named service stream"),
    "service.completed": ("counter", ("stream",), "reduces completed per named service stream"),
    "service.rejected": ("counter", ("stream",), "submissions rejected by bounded-queue admission control"),
    "service.queue.depth": ("gauge", (), "admission-queue depth, sampled on every submit and completion"),
    "slo.reduce_latency": ("histogram", ("stream",), "submit-to-result latency per named service stream (virtual seconds on sim)"),
    "slo.cache.hit_rate": ("gauge", (), "config-cache hit rate so far (hits / consults) — the cache-amortization trend"),
    "telemetry.samples": ("counter", ("node",), "telemetry samples taken per agent (repro.obs.telemetry.TelemetryAgent)"),
    "faults.injected": ("counter", ("kind",), "fault-oracle decisions applied (dropped/delayed/duplicated)"),
    "faults.resent": ("counter", ("phase", "layer"), "NACK-serviced retransmissions"),
    "faults.duplicates_dropped": ("counter", ("phase", "layer"), "receiver-side dedupe hits"),
    "verify.cert.obligations": ("counter", ("obligation",), "certifier proof-obligation instances checked, per obligation"),
    "verify.cert.discharged": ("counter", ("obligation",), "certifier proof-obligation instances discharged, per obligation"),
    "verify.cert.fingerprint": ("gauge", (), "low 48 bits of the certified plan fingerprint"),
}


def _key(labels: Dict[str, Any]) -> LabelKey:
    """Canonical, hashable form of a label set."""
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically growing sum per label set (bytes, messages, retries)."""

    def __init__(self, name: str):
        self.name = name
        self._values: Dict[LabelKey, float] = {}

    def inc(self, value: float = 1, **labels: Any) -> None:
        k = _key(labels)
        self._values[k] = self._values.get(k, 0) + value

    def value(self, **labels: Any) -> float:
        return self._values.get(_key(labels), 0)

    def total(self) -> float:
        return sum(self._values.values())

    def items(self) -> List[Tuple[Dict[str, Any], float]]:
        return [(dict(k), v) for k, v in sorted(self._values.items())]

    def __len__(self) -> int:
        return len(self._values)


class LedgerCounter(Counter):
    """A read-only counter whose values live in another ledger.

    ``read()`` returns ``{label key: value}`` and is called on every
    access, so readers (``items``, ``total``, the telemetry sampler's
    diff of ``_values``, :meth:`MetricsRegistry.snapshot`) always see
    the ledger as it stands; ``inc`` raises.  The simulator serves its
    ``net.*`` series this way from the fabric's
    :class:`~repro.cluster.stats.TrafficStats` cells, and its
    ``faults.injected`` / ``faults.resent`` series from the fabric's
    fault ledger, so a simulated send or fault is counted once.
    """

    def __init__(self, name: str, read: Callable[[], Dict[LabelKey, float]]):
        self.name = name
        self._read = read

    @property
    def _values(self) -> Mapping[LabelKey, float]:
        return MappingProxyType(self._read())


class _Unwritten(Counter):
    """What :meth:`MetricsRegistry.counter` hands out for a name nobody
    wrote yet: it reads as the registered counter (empty while there is
    none) and its first ``inc`` registers one, so a read leaves the
    metrics document as it was."""

    def __init__(self, name: str, counters: Dict[str, Counter]):
        self.name = name
        self._counters = counters

    @property
    def _values(self) -> Mapping[LabelKey, float]:
        c = self._counters.get(self.name)
        return MappingProxyType(c._values if c is not None else {})

    def inc(self, value: float = 1, **labels: Any) -> None:
        c = self._counters.get(self.name)
        if c is None:
            c = self._counters[self.name] = Counter(self.name)
        c.inc(value, **labels)


class Gauge:
    """A last-write-wins sample per label set (sizes, configuration)."""

    def __init__(self, name: str):
        self.name = name
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_key(labels)] = value

    def value(self, **labels: Any) -> float:
        return self._values.get(_key(labels), float("nan"))

    def items(self) -> List[Tuple[Dict[str, Any], float]]:
        return [(dict(k), v) for k, v in sorted(self._values.items())]

    def __len__(self) -> int:
        return len(self._values)


class Histogram:
    """Raw observations per label set, summarised on demand.

    Keeping the raw values (rather than fixed buckets) is affordable at
    this repo's scale and makes the exported percentiles exact.
    """

    def __init__(self, name: str):
        self.name = name
        self._values: Dict[LabelKey, List[float]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        self._values.setdefault(_key(labels), []).append(float(value))

    def observations(self, **labels: Any) -> List[float]:
        return list(self._values.get(_key(labels), []))

    def count(self, **labels: Any) -> int:
        return len(self._values.get(_key(labels), []))

    def summary(self, **labels: Any) -> Dict[str, float]:
        return self._summarise(self._values.get(_key(labels), []))

    @staticmethod
    def _summarise(obs: Iterable[float]) -> Dict[str, float]:
        arr = np.asarray(list(obs), dtype=np.float64)
        if arr.size == 0:
            # A labelled series with no observations still summarises to
            # a well-defined document: every key present, no percentile
            # crash — consumers branch on count, never on key presence.
            return {
                "count": 0,
                "min": 0.0,
                "max": 0.0,
                "mean": 0.0,
                "p50": 0.0,
                "p99": 0.0,
            }
        return {
            "count": int(arr.size),
            "min": float(arr.min()),
            "max": float(arr.max()),
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p99": float(np.percentile(arr, 99)),
        }

    def items(self) -> List[Tuple[Dict[str, Any], Dict[str, float]]]:
        return [(dict(k), self._summarise(v)) for k, v in sorted(self._values.items())]

    def __len__(self) -> int:
        return len(self._values)


class MetricsRegistry:
    """Named metrics, created on first touch (`registry.counter("x").inc()`);
    a counter is created by its first write, not by a read."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        return c if c is not None else _Unwritten(name, self._counters)

    def adopt(self, counter: Counter) -> None:
        """Serve ``counter.name`` from ``counter`` (a :class:`LedgerCounter`)."""
        self._counters[counter.name] = counter

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        return self._histograms.setdefault(name, Histogram(name))

    # -- export / merge ----------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-able dump: the regression-tracking metrics document."""
        return {
            "counters": {
                name: [{"labels": l, "value": v} for l, v in c.items()]
                for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: [{"labels": l, "value": v} for l, v in g.items()]
                for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: [{"labels": l, **s} for l, s in h.items()]
                for name, h in sorted(self._histograms.items())
            },
        }

    def snapshot(self) -> Dict[str, Any]:
        """Raw internal state, for shipping across a process boundary."""
        return {
            "counters": {n: dict(c._values) for n, c in self._counters.items()},
            "gauges": {n: dict(g._values) for n, g in self._gauges.items()},
            "histograms": {
                n: {k: list(v) for k, v in h._values.items()}
                for n, h in self._histograms.items()
            },
        }

    def absorb(self, snap: Dict[str, Any]) -> None:
        """Merge a :meth:`snapshot` from another registry into this one.

        Counters add, histogram observations concatenate, gauges
        last-write-win — the merge a parent applies per finished worker.
        """
        for name, values in snap.get("counters", {}).items():
            c = self._counters.setdefault(name, Counter(name))
            for k, v in values.items():
                c._values[k] = c._values.get(k, 0) + v
        for name, values in snap.get("gauges", {}).items():
            self.gauge(name)._values.update(values)
        for name, values in snap.get("histograms", {}).items():
            h = self.histogram(name)
            for k, obs in values.items():
                h._values.setdefault(k, []).extend(obs)
