"""The live telemetry plane (docs/observability.md "Live telemetry"):
agent delta sampling, deterministic simulator series, the time-series
aggregator and its canonical JSON document, the crash flight recorder's
postmortem cross-linked with the coverage audit, counter events in the
Chrome-trace export, and the multi-frame wire receiver."""

import json
import socket

import numpy as np
import pytest

from repro.obs import Observer, chrome_trace, validate_chrome_trace
from repro.obs.runner import run_traced
from repro.obs.telemetry import (
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


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_obs():
    clock = FakeClock()
    return Observer(clock=clock, name="telemetry-test"), clock


class TestTelemetryAgent:
    def test_counter_samples_are_deltas_not_totals(self):
        obs, clock = make_obs()
        agent = TelemetryAgent(obs, node=3, interval=0.1)
        obs.counter("net.bytes").inc(100, phase="config", layer=1)
        s1 = agent.sample()
        key = (("layer", 1), ("phase", "config"))
        assert s1.counters["net.bytes"][key] == 100
        obs.counter("net.bytes").inc(40, phase="config", layer=1)
        clock.t = 0.1
        s2 = agent.sample()
        assert s2.counters["net.bytes"][key] == 40  # movement, not total
        assert (s1.node, s2.node) == (3, 3)
        assert (s1.seq, s2.seq) == (0, 1)
        assert (s1.t, s2.t) == (0.0, 0.1)

    def test_unmoved_series_are_omitted(self):
        obs, clock = make_obs()
        agent = TelemetryAgent(obs, interval=0.1)
        obs.counter("net.messages").inc(phase="config", layer=1)
        agent.sample()
        s2 = agent.sample()
        # nothing moved between ticks: no counter entry at all
        assert "net.messages" not in s2.counters

    def test_gauges_report_current_value_every_tick(self):
        obs, _ = make_obs()
        agent = TelemetryAgent(obs, interval=0.1)
        obs.gauge("service.queue.depth").set(4)
        s1 = agent.sample()
        s2 = agent.sample()  # unchanged gauge still present
        key = ()
        assert s1.gauges["service.queue.depth"][key] == 4
        assert s2.gauges["service.queue.depth"][key] == 4

    def test_histogram_summary_covers_only_fresh_observations(self):
        obs, _ = make_obs()
        agent = TelemetryAgent(obs, interval=0.1)
        h = obs.histogram("net.latency")
        h.observe(1.0, phase="reduce_down")
        h.observe(3.0, phase="reduce_down")
        s1 = agent.sample()
        key = (("phase", "reduce_down"),)
        assert s1.histograms["net.latency"][key]["count"] == 2
        assert s1.histograms["net.latency"][key]["mean"] == pytest.approx(2.0)
        h.observe(10.0, phase="reduce_down")
        s2 = agent.sample()
        # only the one fresh observation, not the cumulative three
        assert s2.histograms["net.latency"][key]["count"] == 1
        assert s2.histograms["net.latency"][key]["mean"] == pytest.approx(10.0)

    def test_sample_never_counts_itself(self):
        obs, _ = make_obs()
        agent = TelemetryAgent(obs, node=7, interval=0.1)
        s1 = agent.sample()
        assert "telemetry.samples" not in s1.counters
        s2 = agent.sample()
        # the second tick sees exactly the first tick's tally
        assert s2.counters["telemetry.samples"][(("node", 7),)] == 1

    def test_samples_ride_the_observer_and_the_sink(self):
        obs, _ = make_obs()
        shipped = []
        agent = TelemetryAgent(obs, interval=0.1, sink=shipped.append)
        s = agent.sample()
        assert obs.telemetry == [s]
        assert shipped == [s]

    def test_interval_must_be_positive(self):
        obs, _ = make_obs()
        with pytest.raises(ValueError):
            TelemetryAgent(obs, interval=0.0)
        assert DEFAULT_INTERVAL > 0

    def test_samples_pickle_across_process_boundaries(self):
        import pickle

        obs, _ = make_obs()
        agent = TelemetryAgent(obs, node=2, interval=0.1)
        obs.counter("net.bytes").inc(9, phase="config", layer=1)
        s = agent.sample()
        back = pickle.loads(pickle.dumps(s))
        assert back == s


class TestSimSampler:
    def test_virtual_clock_ticks_produce_timestamped_series(self):
        from repro.cluster import Cluster

        cluster = Cluster(4, observe=True)
        obs = cluster.obs
        sampler = Sampler(
            cluster.engine, TelemetryAgent(obs, interval=0.5)
        ).start()
        # 10 bytes through the fabric, the simulator's one byte ledger
        # (its net.* series are read-only views of the fabric's cells).
        cluster.fabric.send(0, 1, None, 10, phase="config", layer=1)
        cluster.engine.run(until=2.0)
        sampler.stop(flush=True)
        times = [s.t for s in obs.telemetry]
        # four scheduled ticks inside [0, 2] plus the stop flush
        assert times[:4] == [0.5, 1.0, 1.5, 2.0]

    def test_stopped_sampler_leaves_engine_unperturbed(self):
        from repro.cluster import Cluster

        cluster = Cluster(4, observe=True)
        obs = cluster.obs
        sampler = Sampler(cluster.engine, TelemetryAgent(obs, interval=0.5))
        sampler.start()
        sampler.stop(flush=False)
        cluster.engine.run(until=5.0)
        assert obs.telemetry == []  # the inert callback never resamples


class SnapshotsByNode(Observer):
    """A driver observer that also keeps each worker's snapshot apart."""

    def __init__(self):
        super().__init__(name="driver")
        self.snaps = {}

    def absorb(self, snap, *, pid=0, name=""):
        self.snaps[pid - 1] = snap  # worker rank r is trace pid r + 1
        super().absorb(snap, pid=pid, name=name)


class TestRealNodeTelemetry:
    @pytest.mark.parametrize("backend", ["LocalKylix", "TcpKylix"])
    def test_streamed_deltas_sum_to_the_snapshot(self, backend):
        """Samples taken every 2 ms on a node's pump lose nothing: per
        node, the counter deltas of its samples add up to the counters
        its snapshot carries home, series by series."""
        import repro.net
        from repro.allreduce import ReduceSpec

        rng = np.random.default_rng(21)
        idx = {r: np.unique(rng.choice(400, 150)) for r in range(4)}
        idx[0] = np.arange(400)  # every key has an owner
        spec = ReduceSpec(in_indices=idx, out_indices=idx)
        vals = {r: rng.normal(size=idx[r].size) for r in range(4)}
        obs = SnapshotsByNode()
        net = getattr(repro.net, backend)([2, 2], observe=obs, telemetry_interval=0.002)
        net.allreduce_rounds(spec, [vals] * 30)
        assert sorted(obs.snaps) == [0, 1, 2, 3]
        for rank, snap in obs.snaps.items():
            summed = {}
            for sample in snap["telemetry"]:
                assert sample.node == rank
                for name, moved in sample.counters.items():
                    for key, delta in moved.items():
                        summed[name, key] = summed.get((name, key), 0) + delta
            held = {
                (name, key): value
                for name, values in snap["metrics"]["counters"].items()
                for key, value in values.items()
            }
            # The last sample tallies itself after its own diff.
            held["telemetry.samples", (("node", rank),)] -= 1
            assert len(snap["telemetry"]) > 1
            assert summed == pytest.approx({k: v for k, v in held.items() if v})


class TestSimDeterminism:
    def test_same_seed_runs_produce_byte_identical_documents(self):
        docs = []
        for _ in range(2):
            obs, info = run_traced(
                "quickstart", backend="sim", seed=3, telemetry_interval=0.0005
            )
            assert info["exact"]
            agg = TimeSeriesAggregator()
            assert agg.ingest_observer(obs) > 1
            docs.append(json.dumps(agg.to_json(), sort_keys=True))
        assert docs[0] == docs[1]

    def test_different_seeds_differ(self):
        docs = []
        for seed in (0, 1):
            obs, _ = run_traced(
                "quickstart", backend="sim", seed=seed, telemetry_interval=0.0005
            )
            agg = TimeSeriesAggregator()
            agg.ingest_observer(obs)
            docs.append(json.dumps(agg.to_json(), sort_keys=True))
        assert docs[0] != docs[1]


def _sample(node, t, seq, counters=None, gauges=None, histograms=None):
    return TelemetrySample(
        node=node,
        t=t,
        seq=seq,
        counters=counters or {},
        gauges=gauges or {},
        histograms=histograms or {},
    )


class TestAggregator:
    def test_counter_rollups_total_latest_rate(self):
        agg = TimeSeriesAggregator()
        key = (("phase", "config"),)
        agg.ingest(_sample(0, 1.0, 0, counters={"net.bytes": {key: 100.0}}))
        agg.ingest(_sample(0, 2.0, 1, counters={"net.bytes": {key: 50.0}}))
        agg.ingest(_sample(1, 1.0, 0, counters={"net.bytes": {key: 7.0}}))
        assert agg.total(0, "net.bytes", phase="config") == 150.0
        assert agg.latest(0, "net.bytes", phase="config") == 50.0
        assert agg.rate(0, "net.bytes", phase="config") == [(2.0, 50.0)]
        assert agg.total(1, "net.bytes", phase="config") == 7.0
        assert agg.samples == 3 and agg.nodes == {0, 1}
        assert agg.span() == (1.0, 2.0)

    def test_percentile_trend(self):
        agg = TimeSeriesAggregator()
        key = (("stream", "grads"),)
        for i, (p50, p99) in enumerate([(1.0, 2.0), (3.0, 9.0)]):
            agg.ingest(
                _sample(
                    -1,
                    float(i),
                    i,
                    histograms={
                        "slo.reduce_latency": {
                            key: {"count": 4, "p50": p50, "p99": p99}
                        }
                    },
                )
            )
        assert agg.percentiles(-1, "slo.reduce_latency", stream="grads") == [
            (0.0, 1.0, 2.0),
            (1.0, 3.0, 9.0),
        ]

    def test_json_round_trip(self):
        agg = TimeSeriesAggregator()
        key = (("layer", 1), ("phase", "config"))
        agg.ingest(_sample(2, 0.5, 0, counters={"net.bytes": {key: 11.0}}))
        agg.ingest(
            _sample(
                2,
                1.0,
                1,
                gauges={"service.queue.depth": {(): 3.0}},
                histograms={"net.latency": {(): {"count": 1, "p50": 0.2}}},
            )
        )
        doc = agg.to_json()
        assert doc["schema"] == TELEMETRY_SCHEMA
        json.dumps(doc)  # serialisable
        back = TimeSeriesAggregator.from_json(doc)
        assert back.to_json() == doc
        assert back.total(2, "net.bytes", phase="config", layer=1) == 11.0
        assert back.latest(2, "service.queue.depth") == 3.0

    def test_from_json_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            TimeSeriesAggregator.from_json({"schema": "not-telemetry"})

    def test_render_mentions_every_shape(self):
        agg = TimeSeriesAggregator()
        key = (("phase", "config"),)
        for i in range(5):
            agg.ingest(
                _sample(
                    0,
                    float(i),
                    i,
                    counters={"net.bytes": {key: float(10 * (i + 1))}},
                    gauges={"service.queue.depth": {(): float(i)}},
                    histograms={"net.latency": {(): {"count": 1, "p99": 0.1 * i}}},
                )
            )
        text = agg.render(max_rows=4)
        assert "net.bytes[phase=config]" in text
        assert "service.queue.depth" in text
        assert "net.latency" in text
        assert "5 sample(s)" in text


class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_drops(self):
        rec = FlightRecorder(capacity=3, node=5)
        for i in range(10):
            rec.record("mark", float(i), i=i)
        assert len(rec) == 3
        assert rec.recorded == 10 and rec.dropped == 7
        assert [e["i"] for e in rec.events()] == [7, 8, 9]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_attach_captures_span_closes(self):
        obs, clock = make_obs()
        rec = FlightRecorder(capacity=8).attach(obs)
        tok = obs.begin("reduce_down L1", node=2, phase="reduce_down", layer=1)
        clock.t = 1.5
        obs.end(tok)
        (ev,) = rec.events()
        assert ev["kind"] == "span"
        assert (ev["node"], ev["phase"], ev["layer"]) == (2, "reduce_down", 1)
        assert ev["t"] == 1.5 and ev["start"] == 0.0

    def test_postmortem_coverage_matches_the_report(self):
        from repro.faults import CoverageReport, LossRecord

        report = CoverageReport(
            total_ranks=8,
            in_sizes={r: 10 for r in range(8)},
            lost_indices={2: np.array([4, 9]), 5: np.array([1])},
            dead_members=(1,),
            losses=(LossRecord(rank=2, member=1, phase="reduce_down", layer=1),),
        )
        rec = FlightRecorder(capacity=4, node=-1)
        rec.record("error", 2.0, message="peer 1 failed")
        try:
            raise RuntimeError("node 1 went away")
        except RuntimeError as exc:
            doc = rec.postmortem(
                error=exc, report=report, context={"backend": "tcp"}
            )
        assert doc["schema"] == POSTMORTEM_SCHEMA
        assert doc["error"]["type"] == "RuntimeError"
        # the cross-link: the postmortem's lost ranges ARE the report's
        assert doc["coverage"]["lost"] == {"2": [4, 9], "5": [1]}
        assert doc["coverage"]["dead_members"] == [1]
        assert doc["coverage"]["losses"] == [
            {"rank": 2, "member": 1, "phase": "reduce_down", "layer": 1}
        ]
        assert doc["context"] == {"backend": "tcp"}
        json.dumps(doc)  # the document is a valid JSON payload

    def test_dump_writes_json(self, tmp_path):
        rec = FlightRecorder(capacity=2, node=3)
        rec.record("mark", 1.0)
        path = tmp_path / "postmortem.json"
        doc = rec.dump(str(path))
        assert json.loads(path.read_text()) == doc
        assert doc["node"] == 3 and doc["error"] is None

    def test_postmortem_doc_error_slot_attrs(self):
        class FakePeerError(Exception):
            slot = 4
            phase = "down"
            layer = 2

        doc = postmortem_doc([], error=FakePeerError("gone"))
        assert doc["error"] == {
            "type": "FakePeerError",
            "message": "gone",
            "slot": 4,
            "phase": "down",
            "layer": 2,
        }


class TestChromeTraceCounterEvents:
    def test_sampled_run_exports_counter_events(self):
        obs, info = run_traced(
            "quickstart", backend="sim", seed=0, telemetry_interval=0.0005
        )
        assert info["exact"]
        doc = chrome_trace(obs, meta={"experiment": "quickstart"})
        assert validate_chrome_trace(doc) == []
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters, "telemetry samples must render as counter events"
        names = {e["name"] for e in counters}
        assert "net.bytes" in names

    def test_counter_events_validate(self):
        obs, _ = make_obs()
        agent = TelemetryAgent(obs, interval=0.1)
        obs.counter("net.bytes").inc(5, phase="config", layer=1)
        agent.sample()
        assert validate_chrome_trace(chrome_trace(obs)) == []


class TestFrameStream:
    def test_many_frames_packed_into_one_chunk(self):
        from repro.net.framing import FrameStream, encode_frame
        from repro.net.session import decode_ctl, encode_ctl

        a, b = socket.socketpair()
        try:
            # three frames in a single send: one TCP chunk, three messages
            a.sendall(
                encode_frame(encode_ctl(("telemetry", 0)))
                + encode_frame(encode_ctl(("telemetry", 1)))
                + encode_frame(encode_ctl(("result", 2)))
            )
            a.close()
            stream = FrameStream(b)
            got = []
            while True:
                ok, msg = stream.recv(timeout=5.0)
                if not ok:
                    break
                got.append(decode_ctl(msg))
            assert got == [("telemetry", 0), ("telemetry", 1), ("result", 2)]
        finally:
            b.close()

    def test_clean_eof_reports_false(self):
        from repro.net.framing import FrameStream

        a, b = socket.socketpair()
        try:
            a.close()
            assert FrameStream(b).recv(timeout=5.0) == (False, None)
        finally:
            b.close()

    def test_midframe_eof_raises_truncation(self):
        from repro.net.framing import FrameStream, FrameTruncatedError, encode_frame
        from repro.net.session import encode_ctl

        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame(encode_ctl(("x",)))[:-2])  # die mid-body
            a.close()
            with pytest.raises(FrameTruncatedError):
                FrameStream(b).recv(timeout=5.0)
        finally:
            b.close()
