"""Direct coverage for :class:`TrafficStats` per-(phase, layer)
accounting."""

from repro.cluster.stats import PhaseBreakdown, TrafficStats


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
