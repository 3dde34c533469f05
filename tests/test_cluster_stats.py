"""Direct coverage for :class:`TrafficStats` per-(phase, layer)
accounting and :class:`TraceRecorder` summary statistics."""

import numpy as np
import pytest

from repro.cluster.stats import PhaseBreakdown, TrafficStats
from repro.cluster.trace import TraceRecord, TraceRecorder
from repro.obs import MessageEvent


class TestTrafficStats:
    def make(self):
        s = TrafficStats()
        s.record(0, 1, 100, phase="config", layer=1)
        s.record(1, 0, 50, phase="config", layer=1)
        s.record(2, 2, 30, phase="config", layer=1)  # self-message
        s.record(0, 2, 200, phase="config", layer=2)
        s.record(0, 1, 10, phase="reduce_down", layer=1)
        return s

    def test_network_and_self_split(self):
        cell = self.make().cell("config", 1)
        assert cell.messages == 2 and cell.bytes == 150
        assert cell.self_messages == 1 and cell.self_bytes == 30
        assert cell.total_bytes == 180 and cell.network_bytes == 150

    def test_missing_cell_is_empty(self):
        assert self.make().cell("gather_up", 9).messages == 0
        assert PhaseBreakdown().total_bytes == 0

    def test_phases_and_layers(self):
        s = self.make()
        assert s.phases == ["config", "reduce_down"]
        assert s.layers("config") == [1, 2]
        assert s.layers("gather_up") == []

    def test_bytes_by_layer_include_self(self):
        s = self.make()
        assert s.bytes_by_layer("config") == {1: 180, 2: 200}
        assert s.bytes_by_layer("config", include_self=False) == {1: 150, 2: 200}

    def test_totals(self):
        s = self.make()
        assert s.total_bytes() == 390
        assert s.total_bytes(include_self=False) == 360
        assert s.total_messages() == 5
        assert s.total_messages(include_self=False) == 4
        assert s.phase_bytes("config") == 380

    def test_merged_sums_phases_per_layer(self):
        s = self.make()
        assert s.merged("config", "reduce_down") == {1: 190, 2: 200}

    def test_reset(self):
        s = self.make()
        s.reset()
        assert s.total_messages() == 0 and s.phases == []


class TestTraceRecorderStats:
    def make(self):
        rec = TraceRecorder()
        # 10 uniform 1 ms messages and one 10 ms straggler, all config L1
        for i in range(10):
            rec.record(
                TraceRecord(
                    src=i % 4, dst=(i + 1) % 4, nbytes=100,
                    sent_at=0.0, delivered_at=0.001, phase="config", layer=1,
                )
            )
        rec.record(
            TraceRecord(
                src=0, dst=1, nbytes=500,
                sent_at=0.0, delivered_at=0.010, phase="reduce_down", layer=1,
            )
        )
        return rec

    def test_latencies_filter_by_phase(self):
        rec = self.make()
        assert len(rec) == 11
        assert rec.latencies("config") == pytest.approx([0.001] * 10)
        assert rec.latencies().max() == pytest.approx(0.010)

    def test_straggler_ratio(self):
        rec = self.make()
        # overall: median 1 ms, p99 pulled toward the 10 ms tail
        assert rec.straggler_ratio() > 5.0
        assert rec.straggler_ratio("config") == pytest.approx(1.0)
        assert np.isnan(TraceRecorder().straggler_ratio())

    def test_bytes_by_node_directions(self):
        rec = self.make()
        out = rec.bytes_by_node(direction="out")
        inn = rec.bytes_by_node(direction="in")
        assert sum(out.values()) == sum(inn.values()) == 10 * 100 + 500
        assert out[0] == 3 * 100 + 500  # node 0 sends msgs 0,4,8 + straggler
        with pytest.raises(ValueError):
            rec.bytes_by_node(direction="sideways")

    def test_load_imbalance(self):
        rec = self.make()
        vols = list(rec.bytes_by_node().values())
        assert rec.load_imbalance() == pytest.approx(max(vols) / np.mean(vols))
        assert np.isnan(TraceRecorder().load_imbalance())

    def test_phase_spans_and_timeline(self):
        rec = self.make()
        spans = rec.phase_spans()
        assert spans["config"] == (0.0, 0.001)
        assert spans["reduce_down"] == (0.0, 0.010)
        text = rec.timeline(width=40)
        assert "config" in text and "#" in text
        assert TraceRecorder().timeline() == "(no messages traced)"

    def test_consume_accepts_observer_events(self):
        rec = TraceRecorder()
        rec.consume(
            MessageEvent(0, 1, 64, phase="config", layer=1, sent_at=1.0, delivered_at=1.5)
        )
        (row,) = rec.records
        assert row.latency == pytest.approx(0.5)
        rec.clear()
        assert len(rec) == 0
