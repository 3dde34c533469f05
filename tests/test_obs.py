"""The :mod:`repro.obs` observability subsystem: span timing, labelled
metrics, the Chrome-trace exporters, and the end-to-end contract that
both execution backends feed the same trace schema."""

import json

import numpy as np
import pytest

from repro.obs import (
    NULL_OBSERVER,
    MetricsRegistry,
    NullObserver,
    Observer,
    chrome_trace,
    metrics_json,
    text_summary,
    validate_chrome_trace,
)
from repro.obs.runner import BACKENDS, EXPERIMENTS, run_traced


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestSpans:
    def test_context_manager_times_region(self):
        clock = FakeClock()
        obs = Observer(clock=clock)
        with obs.span("merge", node=2, phase="config", layer=1, d=4):
            clock.t = 1.5
        (sp,) = obs.spans
        assert sp.name == "merge"
        assert sp.start == 0.0 and sp.end == 1.5 and sp.duration == 1.5
        assert (sp.node, sp.phase, sp.layer) == (2, "config", 1)
        assert sp.args == {"d": 4}

    def test_span_recorded_even_on_exception(self):
        obs = Observer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with obs.span("broken"):
                raise RuntimeError("boom")
        assert len(obs.spans) == 1

    def test_begin_end_pairs(self):
        clock = FakeClock()
        obs = Observer(clock=clock)
        token = obs.begin("layer", node=0, phase="reduce_down", layer=2)
        clock.t = 0.25
        obs.end(token)
        (sp,) = obs.spans
        assert sp.duration == 0.25 and sp.phase == "reduce_down"

    def test_null_observer_is_inert(self):
        n = NullObserver()
        with n.span("x", node=1):
            pass
        n.end(n.begin("y"))
        n.counter("c").inc(5, phase="config")
        n.histogram("h").observe(1.0)
        n.message_sent(0, 1, 10, phase="config", layer=1)
        n.message_delivered(0, 1, 10, 0.0, 1.0)
        assert n.spans == [] and n.messages == []
        assert len(n.metrics.counter("c")) == 0
        assert NULL_OBSERVER.enabled is False and Observer().enabled is True

    def test_snapshot_absorb_rehomes_spans(self):
        clock = FakeClock()
        worker = Observer(clock=clock)
        with worker.span("work", node=3, phase="gather_up", layer=1):
            clock.t = 1.0
        worker.counter("net.bytes").inc(128, phase="gather_up", layer=1)

        parent = Observer(clock=clock)
        parent.absorb(worker.snapshot(), pid=7, name="worker 3")
        (sp,) = parent.spans
        assert sp.pid == 7 and sp.node == 3
        assert parent.pid_names[7] == "worker 3"
        assert parent.metrics.counter("net.bytes").value(phase="gather_up", layer=1) == 128


class TestMetrics:
    def test_counter_labels_and_totals(self):
        c = MetricsRegistry().counter("net.bytes")
        c.inc(100, phase="config", layer=1)
        c.inc(50, phase="config", layer=1)
        c.inc(7, phase="config", layer=2)
        assert c.value(phase="config", layer=1) == 150
        assert c.value(phase="config", layer=3) == 0
        assert c.total() == 157 and len(c) == 2

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry().gauge("size")
        g.set(10, node=0)
        g.set(20, node=0)
        assert g.value(node=0) == 20

    def test_histogram_summary_percentiles(self):
        h = MetricsRegistry().histogram("lat")
        for v in range(1, 101):
            h.observe(float(v), phase="config")
        s = h.summary(phase="config")
        assert s["count"] == 100 and s["min"] == 1.0 and s["max"] == 100.0
        assert s["p50"] == pytest.approx(50.5)
        # an unobserved series summarises to a complete, all-zero
        # document — every key present, no percentile crash
        empty = h.summary(phase="missing")
        assert empty == {
            "count": 0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p99": 0.0,
        }
        assert set(empty) == set(s), "empty and populated summaries share keys"

    def test_registry_absorb_merges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1, k="x")
        b.counter("c").inc(2, k="x")
        b.histogram("h").observe(3.0)
        b.gauge("g").set(9)
        a.absorb(b.snapshot())
        assert a.counter("c").value(k="x") == 3
        assert a.histogram("h").count() == 1
        assert a.gauge("g").value() == 9

    def test_as_dict_is_json_serialisable(self):
        r = MetricsRegistry()
        r.counter("net.bytes").inc(10, phase="config", layer=1)
        r.histogram("lat").observe(0.5, phase="config")
        json.dumps(r.as_dict())


class TestChromeExport:
    def _observer(self):
        clock = FakeClock()
        obs = Observer(clock=clock, name="unit")
        obs.name_pid(0, "driver")
        with obs.span("configure", node=0, phase="config", layer=1):
            clock.t = 0.002
        obs.message_sent(0, 1, 64, phase="config", layer=1)
        obs.message_delivered(0, 1, 64, 0.001, 0.0015, phase="config", layer=1)
        return obs

    def test_trace_validates_and_has_metadata(self):
        doc = chrome_trace(self._observer(), meta={"experiment": "unit"})
        assert validate_chrome_trace(doc) == []
        names = {(e["ph"], e["name"]) for e in doc["traceEvents"]}
        assert ("M", "process_name") in names and ("M", "thread_name") in names
        assert doc["otherData"]["experiment"] == "unit"
        assert "net.bytes" in doc["metrics"]["counters"]

    def test_span_timestamps_are_microseconds_from_epoch(self):
        doc = chrome_trace(self._observer())
        (span_ev,) = [
            e for e in doc["traceEvents"] if e["ph"] == "X" and e["name"] == "configure"
        ]
        assert span_ev["ts"] == 0.0
        assert span_ev["dur"] == pytest.approx(2000.0)  # 2 ms in µs
        assert span_ev["args"]["phase"] == "config"

    def test_message_lanes_on_network_pid(self):
        from repro.obs.export import NET_PID

        doc = chrome_trace(self._observer())
        lanes = [e for e in doc["traceEvents"] if e.get("pid") == NET_PID]
        assert any(e["ph"] == "X" and e["name"] == "0→1" for e in lanes)

    def test_metrics_json_aggregates_busy_time(self):
        doc = metrics_json(self._observer())
        assert doc["spans"]["by_phase"]["config"]["spans"] == 1
        assert doc["spans"]["by_phase"]["config"]["busy_seconds"] == pytest.approx(0.002)
        json.dumps(doc)

    def test_text_summary_renders(self):
        out = text_summary(self._observer())
        assert "config" in out and "traffic by (phase, layer)" in out

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ("nope", "top level"),
            ({"traceEvents": "x"}, "must be a list"),
            ({"traceEvents": []}, "empty"),
            ({"traceEvents": [{"ph": "Z", "name": "x", "pid": 0, "tid": 0}]}, "bad or missing 'ph'"),
            ({"traceEvents": [{"ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": 1}]}, "missing event 'name'"),
            ({"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": -1, "dur": 1}]}, "ts >= 0"),
            ({"traceEvents": [{"ph": "M", "name": "process_name", "pid": 0, "tid": 0, "args": {}}]}, "args.name"),
        ],
    )
    def test_validator_rejects_malformed(self, doc, fragment):
        errors = validate_chrome_trace(doc)
        assert errors and any(fragment in e for e in errors)


class TestSimulatorBackend:
    @pytest.fixture(scope="class")
    def traced(self):
        return run_traced("quickstart", backend="sim", seed=0)

    def test_result_is_exact(self, traced):
        _, info = traced
        assert info["exact"]

    def test_spans_cover_all_three_phases(self, traced):
        obs, _ = traced
        phases = {sp.phase for sp in obs.spans}
        assert {"config", "reduce_down", "gather_up"} <= phases

    def test_counters_match_traffic_stats_exactly(self, traced):
        obs, info = traced
        stats = info["stats"]
        net = obs.metrics.counter("net.bytes")
        self_net = obs.metrics.counter("net.self_bytes")
        msgs = obs.metrics.counter("net.messages")
        for phase in stats.phases:
            for layer in stats.layers(phase):
                cell = stats.cell(phase, layer)
                assert net.value(phase=phase, layer=layer) == cell.bytes
                assert self_net.value(phase=phase, layer=layer) == cell.self_bytes
                assert msgs.value(phase=phase, layer=layer) == cell.messages
        assert net.total() + self_net.total() == stats.total_bytes()

    def test_delivered_stream_matches_message_count(self, traced):
        obs, info = traced
        assert len(obs.messages) == info["stats"].total_messages()

    def test_trace_export_validates(self, traced):
        obs, _ = traced
        assert validate_chrome_trace(chrome_trace(obs)) == []

    def test_observer_clock_is_virtual(self, traced):
        obs, _ = traced
        # simulated runs finish in simulated seconds; every span sits in
        # the first few virtual seconds, which wall clocks cannot do.
        assert all(0.0 <= sp.start < 60.0 for sp in obs.spans)


class TestLocalBackend:
    @pytest.fixture(scope="class")
    def traced(self):
        from repro.allreduce import ReduceSpec, dense_reduce
        from repro.net.local import LocalKylix

        m, n = 4, 64
        rng = np.random.default_rng(3)
        idx = {
            r: np.unique(np.concatenate([rng.choice(n, 12), np.arange(r, n, m)]))
            for r in range(m)
        }
        spec = ReduceSpec(in_indices=idx, out_indices=idx)
        values = {r: rng.normal(size=idx[r].size) for r in range(m)}
        obs = Observer(name="local-unit")
        net = LocalKylix(degrees=[2, 2], observe=obs)
        result = net.allreduce(spec, values)
        reference = dense_reduce(spec, values)
        exact = all(np.allclose(result[r], reference[r]) for r in range(m))
        return obs, exact

    def test_result_is_exact(self, traced):
        _, exact = traced
        assert exact

    def test_spans_cover_both_passes_and_their_merges(self, traced):
        """The exchange step's spans, as on the simulator: per worker and
        layer, one span per pass and one merge span inside each."""
        obs, _ = traced
        spans = {
            (sp.node, sp.name, sp.phase, sp.args.get("kind"))
            for sp in obs.spans if sp.node >= 0
        }
        assert spans == {
            (node, name, phase, kind)
            for node in range(4)
            for phase in ("combined_down", "gather_up")
            for layer in (1, 2)
            for name, kind in ((f"{phase} L{layer}", None), (f"merge L{layer}", "merge"))
        }

    def test_one_process_row_per_worker(self, traced):
        obs, _ = traced
        pids = {sp.pid for sp in obs.spans}
        assert pids == {0, 1, 2, 3, 4}  # driver + 4 workers
        assert obs.pid_names[0] == "driver"
        assert obs.pid_names[2] == "worker 1"

    def test_traffic_counters_populated_per_layer(self, traced):
        obs, _ = traced
        net = obs.metrics.counter("net.bytes")
        for layer in (1, 2):
            assert net.value(phase="combined_down", layer=layer) > 0
            assert net.value(phase="gather_up", layer=layer) > 0
        # each worker counts its self-part once per layer, both passes
        self_msgs = obs.metrics.counter("net.self_messages")
        assert self_msgs.total() == 4 * 2 * 2

    def test_trace_export_validates(self, traced):
        obs, _ = traced
        doc = chrome_trace(obs)
        assert validate_chrome_trace(doc) == []
        json.dumps(doc)


class TestRunner:
    def test_registry_names(self):
        assert set(EXPERIMENTS) == {"quickstart", "demo", "faults", "straggler", "soak"}
        assert BACKENDS == ("sim", "local", "tcp")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_traced("nope")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_traced("quickstart", backend="mpi")

    @pytest.mark.parametrize(
        "backend,failure",
        [
            ("sim", [(1, "down", 1)]),
            ("sim", [(1, "config", 1)]),
            ("sim", "partition"),
            ("local", [(1, "down", 1)]),
        ],
    )
    def test_failure_paths_are_exact_within_the_bound(self, backend, failure):
        """A run under a kill or a partition degrades: its survivors are
        exact outside their reported losses, the victim's missing result
        is reported lost, and every loss lies inside the static bound."""
        _, info = run_traced("quickstart", backend=backend, seed=0, failure=failure)
        assert info["report"] is not None and 1 in info["report"].dead_members
        assert info["exact"] and info["checked_rounds"] == 7
        assert info["bound_violations"] == []

    def test_faults_experiment_counts_injections_sim(self):
        obs, info = run_traced("faults", backend="sim", seed=0)
        assert info["exact"]
        injected = obs.metrics.counter("faults.injected")
        resent = obs.metrics.counter("faults.resent")
        assert injected.total() > 0 and resent.total() > 0


class TestQueueWaitMetric:
    """``net.queue_wait`` = delivery-to-consumption, measured on the
    simulator's own event timestamps — the assertions are exact."""

    def test_late_consumer_waits_exactly_delivery_to_recv(self):
        from repro.cluster import Cluster

        c = Cluster(2, observe=True)
        consumed = {}

        def proto(node):
            if node.rank == 0:
                node.send(1, None, nbytes=1000, tag="x", phase="reduce_down", layer=1)
                if False:
                    yield
            else:
                yield node.compute(0.5)  # message is parked in the mailbox
                yield node.recv(tag="x")
                consumed["now"] = node.cluster.now

        c.run(proto)
        (msg,) = c.obs.messages
        waits = c.obs.metrics.histogram("net.queue_wait").observations(
            node=1, phase="reduce_down", layer=1
        )
        assert waits == [consumed["now"] - msg.delivered_at]
        assert waits[0] > 0.4  # delivery is fast; nearly all of the 0.5 s

    def test_blocked_consumer_waits_zero(self):
        from repro.cluster import Cluster

        c = Cluster(2, observe=True)

        def proto(node):
            if node.rank == 0:
                yield node.compute(0.25)
                node.send(1, None, nbytes=1000, tag="x", phase="gather_up", layer=2)
            else:
                yield node.recv(tag="x")  # parked *before* the send

        c.run(proto)
        waits = c.obs.metrics.histogram("net.queue_wait").observations(
            node=1, phase="gather_up", layer=2
        )
        assert waits == [0.0]

    def test_traced_run_records_queue_waits_per_node(self):
        obs, _ = run_traced("quickstart", backend="sim", seed=0)
        h = obs.metrics.histogram("net.queue_wait")
        nodes = {l["node"] for l, _ in h.items()}
        assert nodes == set(range(8))
        assert all(v >= 0.0 for l, _ in h.items()
                   for v in h.observations(**l))


class TestSelfTimeMetric:
    def test_self_time_subtracts_nested_children(self):
        clock = FakeClock()
        obs = Observer(clock=clock)
        outer = obs.begin("step", node=0, phase="reduce_down", layer=1)
        clock.t = 1.0
        inner = obs.begin("merge", node=0, phase="reduce_down", layer=1, kind="merge")
        clock.t = 4.0
        obs.end(inner)  # child: 3 s
        clock.t = 5.0
        obs.end(outer)  # total 5 s, self 2 s
        h = obs.metrics.histogram("span.self_time")
        assert h.observations(node=0, phase="reduce_down", layer=1) == [3.0, 2.0]

    def test_interleaved_nodes_do_not_share_stacks(self):
        clock = FakeClock()
        obs = Observer(clock=clock)
        a = obs.begin("step", node=0, phase="config", layer=1)
        b = obs.begin("step", node=1, phase="config", layer=1)
        clock.t = 2.0
        obs.end(a)
        clock.t = 3.0
        obs.end(b)
        h = obs.metrics.histogram("span.self_time")
        # neither span is the other's child: full durations survive
        assert h.observations(node=0, phase="config", layer=1) == [2.0]
        assert h.observations(node=1, phase="config", layer=1) == [3.0]

    def test_traced_run_emits_catalogued_metrics_only(self):
        from repro.obs import CATALOGUE
        from repro.verify.flow import certificate_for_experiment, emit_certificate_metrics

        obs, _ = run_traced("faults", backend="sim", seed=0)
        # a certified run additionally publishes the verify.cert.* family
        cert = certificate_for_experiment("faults", seed=0)
        emit_certificate_metrics(obs, cert, runtime_checked={"traffic-exact": 6})
        d = obs.metrics.as_dict()
        produced = set(d["counters"]) | set(d["gauges"]) | set(d["histograms"])
        assert produced, "a traced run must produce metrics"
        assert "verify.cert.obligations" in produced
        missing = produced - set(CATALOGUE)
        assert not missing, f"metrics not in the catalogue: {sorted(missing)}"

    def test_monitored_service_run_emits_catalogued_metrics_only(self):
        """A *monitored* service run — telemetry sampler ticking the
        virtual clock, service SLO instrumentation live — stays inside
        the catalogue too: the telemetry.* / service.queue.* / slo.*
        families are registered names, not ad-hoc strings."""
        from repro.cluster import Cluster
        from repro.obs import CATALOGUE
        from repro.obs.telemetry import Sampler, TelemetryAgent
        from repro.service import ReduceService

        m, n = 8, 400
        rng = np.random.default_rng(5)
        idx = {
            r: np.unique(np.concatenate([rng.choice(n, 40), np.arange(r, n, m)]))
            for r in range(m)
        }
        from repro.allreduce import ReduceSpec

        spec = ReduceSpec(in_indices=idx, out_indices=idx)
        cluster = Cluster(m, observe=True)
        obs = cluster.obs
        sampler = Sampler(
            cluster.engine, TelemetryAgent(obs, interval=0.0005)
        ).start()
        svc = ReduceService(cluster=cluster, degrees=[4, 2])
        stream = svc.open_stream("grads", spec)
        for i in range(3):
            svc.reduce(
                stream, {r: rng.normal(size=idx[r].size) for r in range(m)}
            )
        sampler.stop(flush=True)
        d = obs.metrics.as_dict()
        produced = set(d["counters"]) | set(d["gauges"]) | set(d["histograms"])
        assert "telemetry.samples" in produced
        assert "service.queue.depth" in produced
        assert "slo.reduce_latency" in produced and "slo.cache.hit_rate" in produced
        missing = produced - set(CATALOGUE)
        assert not missing, f"metrics not in the catalogue: {sorted(missing)}"


class TestExporterEdgeCases:
    def test_empty_observer_exports_clean(self):
        """No spans, no messages: the export still carries the driver's
        process-name metadata and validates — an empty *trace file*
        (no events at all) is what the validator flags."""
        obs = Observer(clock=FakeClock(), name="empty")
        doc = chrome_trace(obs)
        json.dumps(doc)
        assert validate_chrome_trace(doc) == []
        assert all(e["ph"] == "M" for e in doc["traceEvents"])
        errors = validate_chrome_trace({"traceEvents": []})
        assert any("empty" in e for e in errors)

    def test_single_span_trace_validates(self):
        clock = FakeClock()
        obs = Observer(clock=clock, name="one")
        with obs.span("solo", node=0, phase="config", layer=1):
            clock.t = 1.0
        doc = chrome_trace(obs)
        assert validate_chrome_trace(doc) == []
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 1 and xs[0]["name"] == "solo"

    def test_dead_worker_snapshot_merge_still_exports(self):
        """A degraded run absorbs snapshots only from surviving workers;
        the merged trace must stay valid with one process row missing."""
        clock = FakeClock()
        parent = Observer(clock=clock, name="degraded")
        parent.name_pid(0, "driver")
        for rank in (0, 1, 3):  # worker 2 died: no snapshot arrives
            w = Observer(clock=clock)
            with w.span("work", node=rank, phase="combined_down", layer=1):
                clock.t += 1.0
            w.counter("net.bytes").inc(64, phase="combined_down", layer=1)
            parent.absorb(w.snapshot(), pid=rank + 1, name=f"worker {rank}")
        doc = chrome_trace(parent)
        assert validate_chrome_trace(doc) == []
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert pids == {1, 2, 4}  # no row for the dead worker, no bogus rows
        assert parent.metrics.counter("net.bytes").total() == 3 * 64

    @pytest.mark.parametrize(
        "events, fragment",
        [
            (
                [{"ph": "E", "name": "a", "pid": 0, "tid": 1, "ts": 1.0}],
                "no open 'B'",
            ),
            (
                [
                    {"ph": "B", "name": "a", "pid": 0, "tid": 1, "ts": 0.0},
                    {"ph": "B", "name": "b", "pid": 0, "tid": 1, "ts": 1.0},
                    {"ph": "E", "name": "a", "pid": 0, "tid": 1, "ts": 2.0},
                ],
                "out-of-order",
            ),
            (
                [{"ph": "B", "name": "a", "pid": 0, "tid": 1, "ts": 0.0}],
                "never closed",
            ),
            (
                [
                    {"ph": "B", "name": "a", "pid": 0, "tid": 1, "ts": 5.0},
                    {"ph": "E", "name": "a", "pid": 0, "tid": 1, "ts": 2.0},
                ],
                "starts later",
            ),
        ],
    )
    def test_validator_rejects_bad_be_nesting(self, events, fragment):
        errors = validate_chrome_trace({"traceEvents": events})
        assert any(fragment in e for e in errors), errors

    def test_balanced_be_pairs_accepted(self):
        events = [
            {"ph": "B", "name": "a", "pid": 0, "tid": 1, "ts": 0.0},
            {"ph": "B", "name": "b", "pid": 0, "tid": 1, "ts": 1.0},
            {"ph": "E", "name": "b", "pid": 0, "tid": 1, "ts": 2.0},
            {"ph": "E", "name": "a", "pid": 0, "tid": 1, "ts": 3.0},
            # a different lane nests independently
            {"ph": "B", "name": "a", "pid": 0, "tid": 2, "ts": 0.5},
            {"ph": "E", "pid": 0, "tid": 2, "ts": 0.9, "name": "a"},
        ]
        assert validate_chrome_trace({"traceEvents": events}) == []
