"""Allreduce as a service: named reduce streams multiplexed over one fabric.

:class:`ReduceService` is the front-end the ROADMAP's "millions of
users" scenario calls for: many *named* streams, each bound to a sparsity
pattern (:class:`~repro.allreduce.ReduceSpec`), submit reductions
against a shared backend and get futures back.  Three mechanisms carry
the load shape:

* **Keyed config cache** (:mod:`repro.service.cache`) — every submit
  consults the cache under the stream's spec fingerprint; the first
  reduce of a pattern pays :meth:`configure`, every later one (from any
  stream with the same pattern) adopts the memoised maps.  Pattern drift
  re-fingerprints the stream, records an invalidation, and can never be
  served a stale entry.
* **Concurrent streams** — on the simulator backend, queued submissions
  from many streams execute inside *one* cluster run as concurrent
  protocol generators (distinct instance tags keep them from
  cross-talking); on the forked backends (``local`` / ``tcp``) each job
  is one backend reduce, run in submission order.  Results are
  bit-identical to sequential execution because merges are position-map
  driven, never arrival-order driven.
* **Admission control** — the submission queue is bounded
  (``queue_depth``); when the queue is full, :meth:`submit` raises
  :class:`ServiceOverloaded` before it touches the stream or the cache.
  That is the backpressure contract: the caller sheds or retries, the
  service never hides an unbounded queue.

Everything runs on the caller's thread: queued jobs run when a result is
asked for (:meth:`ReduceFuture.result`), on :meth:`ReduceService.drain`
or on :meth:`ReduceService.close`.  The service is not thread-safe; one
thread drives it.

Minibatch pipelining (reduce ``k+1``'s scatter overlapping reduce
``k``'s allgather) is exposed as :meth:`ReduceService.submit_pipelined`
— see :mod:`repro.service.pipeline` and the SGD loop in
:mod:`repro.apps.sgd` for the end-to-end parameter-server use.

See ``docs/service.md`` for the stream lifecycle and the backpressure
semantics in detail.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..allreduce import KylixAllreduce, ReduceSpec, check_values
from ..obs import NULL_OBSERVER
from ..simul import AllOf
from ..sparse import MultiplicativeHasher
from .cache import ConfigCache, spec_fingerprint
from .pipeline import pipelined_reduces

__all__ = [
    "ReduceService",
    "ReduceStream",
    "ReduceFuture",
    "ServiceOverloaded",
    "ServiceClosed",
]

BACKENDS = ("sim", "local", "tcp")


class ServiceOverloaded(RuntimeError):
    """Admission control rejected a submit: the bounded queue is full."""


class ServiceClosed(RuntimeError):
    """The service was closed; no further submissions are accepted."""


class ReduceFuture:
    """Handle for one queued reduce.

    ``result()`` runs the service's queue (:meth:`ReduceService.drain`)
    if this reduce has not run yet, then returns its value or raises its
    error.
    """

    def __init__(self, service: "ReduceService", stream: "ReduceStream", seq: int):
        self.stream = stream
        self.seq = seq  # per-stream submission sequence number
        self._service = service
        self._done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        # Observer-clock admission timestamp (set by submit); feeds the
        # slo.reduce_latency histogram when the future resolves.
        self.submitted_at: Optional[float] = None

    def done(self) -> bool:
        return self._done

    def _resolve(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        self._value = value
        self._error = error
        self._done = True

    def result(self):
        if not self._done:
            self._service.drain()
        if self._error is not None:
            raise self._error
        return self._value


@dataclass
class ReduceStream:
    """One named reduce stream: a spec binding plus submission counters."""

    name: str
    spec: ReduceSpec
    fingerprint: str
    net: Any  # KylixAllreduce (sim) or a ForkedKylixBase (local/tcp)
    submitted: int = 0
    completed: int = 0
    drifts: int = 0


class ReduceService:
    """Multiplex named reduce streams over one simulated or real backend.

    Parameters
    ----------
    backend:
        ``"sim"`` (default; needs ``cluster``), ``"local"`` (forked
        processes over pipes) or ``"tcp"`` (forked processes over
        loopback sockets).
    cluster:
        The :class:`~repro.cluster.Cluster` to run on (sim backend only).
    degrees:
        Butterfly degree stack shared by every stream.
    slots:
        Protocol instances per simulator wave (no effect on the forked
        backends, which run one job at a time).
    queue_depth:
        Bound of the admission queue; a full queue raises
        :class:`ServiceOverloaded` (emitted as ``service.rejected``).
    cache_size:
        Capacity of the keyed config cache.
    obs:
        Observer for the ``config.cache.*`` / ``service.*`` counters.
        Defaults to the cluster's observer on the sim backend.
    """

    def __init__(
        self,
        backend: str = "sim",
        *,
        cluster=None,
        degrees: Sequence[int],
        slots: int = 4,
        queue_depth: int = 16,
        cache_size: int = 8,
        retry=None,
        obs=None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        if backend == "sim" and cluster is None:
            raise ValueError("the sim backend needs a cluster=")
        if slots < 1 or queue_depth < 1:
            raise ValueError("slots and queue_depth must be >= 1")
        self.backend = backend
        self.cluster = cluster
        self.degrees = [int(d) for d in degrees]
        self.slots = int(slots)
        self.queue_depth = int(queue_depth)
        self.retry = retry
        if obs is not None:
            self.obs = obs
        elif backend == "sim":
            self.obs = getattr(cluster, "obs", None) or NULL_OBSERVER
        else:
            self.obs = NULL_OBSERVER
        self.cache = ConfigCache(cache_size, obs=self.obs)
        self._multiplier = MultiplicativeHasher().multiplier
        self.streams: Dict[str, ReduceStream] = {}
        # Admission queue of (stream, values, future, bad) jobs — ``bad`` is
        # the values' check error, if any: submit checks its length against
        # queue_depth before it appends.
        self._queue: deque = deque(maxlen=self.queue_depth)
        self._closed = False
        self.stats = {"submitted": 0, "completed": 0, "rejected": 0}

    # -- streams -----------------------------------------------------------
    def open_stream(self, name: str, spec: ReduceSpec) -> ReduceStream:
        """Bind ``name`` to a sparsity pattern; idempotent per name+spec."""
        self._check_open()
        fp = spec_fingerprint(spec, self.degrees, multiplier=self._multiplier)
        existing = self.streams.get(name)
        if existing is not None:
            if existing.fingerprint != fp:
                raise ValueError(
                    f"stream {name!r} already bound to a different pattern; "
                    "submit with spec= to drift it explicitly"
                )
            return existing
        stream = ReduceStream(
            name=name, spec=spec, fingerprint=fp, net=self._make_net(name)
        )
        self.streams[name] = stream
        return stream

    def _make_net(self, name: str):
        if self.backend == "sim":
            return KylixAllreduce(
                self.cluster, self.degrees, retry=self.retry, name=f"svc:{name}"
            )
        if self.backend == "local":
            from ..net.local import LocalKylix

            cls = LocalKylix
        else:
            from ..net.tcp import TcpKylix

            cls = TcpKylix
        return cls(degrees=self.degrees, retry=self.retry)

    def _stream(self, stream: Union[str, ReduceStream]) -> ReduceStream:
        if isinstance(stream, ReduceStream):
            return stream
        try:
            return self.streams[stream]
        except KeyError:
            raise KeyError(f"unknown stream {stream!r}; open_stream() it first") from None

    def _drift(self, stream: ReduceStream, spec: ReduceSpec) -> None:
        """Re-bind a stream whose sparsity pattern changed."""
        fp = spec_fingerprint(spec, self.degrees, multiplier=self._multiplier)
        if fp == stream.fingerprint:
            return
        # Queued jobs were submitted against the old pattern: run them
        # before the stream is rebound under them.
        self.drain()
        self.cache.invalidate(stream.fingerprint)
        stream.spec = spec
        stream.fingerprint = fp
        stream.drifts += 1
        if self.backend == "sim":
            # The old binding's maps must not leak into the new pattern.
            stream.net.spec = None
            stream.net.plans = {}

    def _ensure_configured(self, stream: ReduceStream) -> None:
        """One cache consult per reduce: hit adopts, miss configures."""
        if self.backend != "sim":
            # Forked backends run the combined protocol on the wire; the
            # cache tracks driver-side reuse (hits mean the round-0 plan
            # is replayable, see KylixDriver.allreduce_rounds).
            entry = self.cache.lookup(stream.fingerprint)
            if entry is None:
                self.cache.store(stream.fingerprint, {}, stream.spec)
            return
        entry = self.cache.lookup(stream.fingerprint)
        if entry is None:
            stream.net.configure(stream.spec)
            self.cache.store(stream.fingerprint, stream.net.plans, stream.spec)
        elif stream.net.plans is not entry.plans:
            stream.net.adopt_plans(stream.spec, entry.plans)

    # -- submission --------------------------------------------------------
    def submit(
        self,
        stream: Union[str, ReduceStream],
        values: Mapping[int, np.ndarray],
        *,
        spec: Optional[ReduceSpec] = None,
    ) -> ReduceFuture:
        """Enqueue one reduce on ``stream``; returns a future.

        ``spec`` re-binds the stream when its sparsity pattern drifted
        (recorded as a ``config.cache.invalidations`` event).  Raises
        :class:`ServiceOverloaded` when the bounded queue is full; a
        rejected submit leaves the stream and the cache untouched.
        """
        self._check_open()
        st = self._stream(stream)
        if len(self._queue) >= self.queue_depth:
            self.stats["rejected"] += 1
            self.obs.counter("service.rejected").inc(stream=st.name)
            raise ServiceOverloaded(
                f"stream {st.name!r}: admission queue full "
                f"({self.queue_depth} pending)"
            )
        if spec is not None:
            self._drift(st, spec)
        try:
            check_values(st.spec, values)
            bad = None
        except (KeyError, TypeError, ValueError) as exc:
            bad = exc  # fails this job's future alone: it never joins a wave
        self._ensure_configured(st)
        fut = ReduceFuture(self, st, st.submitted)
        self._queue.append((st, values, fut, bad))
        st.submitted += 1
        self.stats["submitted"] += 1
        self.obs.counter("service.submitted").inc(stream=st.name)
        fut.submitted_at = self.obs.now()
        self._sample_slo()
        return fut

    def reduce(
        self,
        stream: Union[str, ReduceStream],
        values: Mapping[int, np.ndarray],
        *,
        spec: Optional[ReduceSpec] = None,
    ) -> Dict[int, np.ndarray]:
        """Synchronous convenience: submit + result."""
        return self.submit(stream, values, spec=spec).result()

    def submit_pipelined(
        self,
        stream: Union[str, ReduceStream],
        batches: Sequence[Mapping[int, np.ndarray]],
        *,
        depth: int = 2,
    ) -> List[Dict[int, np.ndarray]]:
        """Run a batch of reduces with down/up overlap (sim backend) or
        as one fork-amortised multi-round session (forked backends).

        Counts one cache consult per batch — the first reduce of a fresh
        pattern misses and configures, every later batch hits.
        """
        self._check_open()
        st = self._stream(stream)
        batches = list(batches)
        if not batches:
            return []
        for _ in batches:
            self._ensure_configured(st)
        self._sample_slo()
        st.submitted += len(batches)
        self.stats["submitted"] += len(batches)
        self.obs.counter("service.submitted").inc(len(batches), stream=st.name)
        if self.backend == "sim":
            results = pipelined_reduces(st.net, batches, depth=depth)
        else:
            results = st.net.allreduce_rounds(st.spec, batches)
        st.completed += len(batches)
        self.stats["completed"] += len(batches)
        self.obs.counter("service.completed").inc(len(batches), stream=st.name)
        return results

    # -- SLO instrumentation ----------------------------------------------
    def _sample_slo(self) -> None:
        """Refresh the sampled SLO gauges: queue depth (on every submit
        and completion — the docstring's queue-depth visibility) and the
        config-cache hit-rate trend."""
        self.obs.gauge("service.queue.depth").set(float(len(self._queue)))
        cache = self.cache.stats
        consults = cache["hits"] + cache["misses"]
        if consults:
            self.obs.gauge("slo.cache.hit_rate").set(cache["hits"] / consults)

    def _observe_latency(self, st: ReduceStream, fut: ReduceFuture) -> None:
        if fut.submitted_at is not None:
            self.obs.histogram("slo.reduce_latency").observe(
                max(self.obs.now() - fut.submitted_at, 0.0), stream=st.name
            )

    # -- execution ---------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosed("the service is closed")

    def drain(self) -> int:
        """Run every queued job on the caller's thread; returns the count.

        On the simulator, jobs run in waves of up to ``slots``: one
        simulated-cluster run per wave, every job in the wave a
        concurrent protocol instance.  On the forked backends each job
        is one backend reduce, in submission order.  A job whose values
        failed :func:`~repro.allreduce.check_values` at submit resolves
        only its own future and joins no wave.
        """
        done = 0
        width = self.slots if self.backend == "sim" else 1
        while self._queue:
            wave = []
            while self._queue and len(wave) < width:
                st, values, fut, bad = self._queue.popleft()
                done += 1
                if bad is not None:
                    fut._resolve(error=bad)
                else:
                    wave.append((st, values, fut))
            if wave and self.backend == "sim":
                self._sim_wave(wave)
            elif wave:
                self._run_forked(*wave[0])
        return done

    def _complete(self, st: ReduceStream, fut: ReduceFuture, value) -> None:
        fut._resolve(value=value)
        st.completed += 1
        self.stats["completed"] += 1
        self.obs.counter("service.completed").inc(stream=st.name)
        self._observe_latency(st, fut)

    def _sim_wave(self, jobs) -> None:
        protos = [(st.net, values, st.net.next_instance()) for st, values, _ in jobs]

        def wave_proto(node):
            engine = node.engine
            procs = [
                engine.process(net.node_reduce(node, values, inst))
                for net, values, inst in protos
            ]
            yield AllOf(engine, procs)
            return [p.value for p in procs]

        try:
            raw = self.cluster.run(wave_proto)
        except BaseException as exc:
            for _, _, fut in jobs:
                fut._resolve(error=exc)
            raise
        for j, (st, _, fut) in enumerate(jobs):
            self._complete(st, fut, {rank: raw[rank][j] for rank in raw})
        self._sample_slo()

    def _run_forked(self, st: ReduceStream, values, fut: ReduceFuture) -> None:
        try:
            result = st.net.allreduce(st.spec, values)
        except Exception as exc:
            fut._resolve(error=exc)
            return
        except BaseException as exc:  # an interrupt stops the drain too
            fut._resolve(error=exc)
            raise
        self._complete(st, fut, result)
        self._sample_slo()

    def close(self) -> None:
        """Stop accepting work and run what is still queued."""
        if self._closed:
            return
        self._closed = True
        self.drain()

    def __enter__(self) -> "ReduceService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
