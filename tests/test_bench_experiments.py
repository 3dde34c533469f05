"""Unit tests for the experiment tables on miniature workloads.

The full-size drivers are exercised by ``benchmarks/``; here each
figure's row values, its ``row()`` / ``column()`` lookups and its table
rendering are pinned down cheaply.
"""

import numpy as np
import pytest

from repro.bench import Table, format_seconds, run_fig2, run_fig5, run_fig6, run_fig7, run_fig8
from repro.bench.experiments import scaling_table
from repro.data import twitter_like

PG = "PowerGraph-like (measured, scaled data)"
KYLIX = "Kylix (measured, scaled data)"
KYLIX_PAPER = "Kylix (extrapolated to paper scale)"
HADOOP = "Hadoop/Pegasus (cost model, paper scale)"


@pytest.fixture(scope="module")
def tiny():
    return twitter_like(m=8, n_vertices=4_000)


class TestTable:
    def test_row_needs_exactly_one_match(self):
        t = Table(
            "t", [("k", "k", str)], [{"k": "a", "n": 1}, {"k": "b", "n": 2}, {"k": "b", "n": 3}]
        )
        assert t.row(k="a")["n"] == 1
        assert t.row(k="b", n=3)["n"] == 3
        with pytest.raises(LookupError):
            t.row(k="z")
        with pytest.raises(LookupError):
            t.row(k="b")
        assert t.column("n") == [1, 2, 3]

    def test_table_prints_columns_bars_and_note(self):
        t = Table(
            "T",
            [("name", "name", str), ("s", "time", format_seconds)],
            [{"name": "x", "s": 2.0, "hidden": 7}, {"name": "y", "s": 1.0, "hidden": 8}],
            bars=("name", "s", format_seconds),
            note="  -> a note",
        )
        text = t.table()
        assert "time" in text and "2.00 s" in text and "hidden" not in text
        assert text.count("█") > 0 and text.endswith("\n  -> a note")


class TestFig2Result:
    def test_utilization_interpolates(self):
        r = run_fig2(sizes=[1e5, 1e6, 1e7])

        def util(size):
            return float(np.interp(size, r.column("packet_bytes"), r.column("utilization")))

        u_mid = util(3e6)
        assert util(1e5) < u_mid < util(1e7)

    def test_table_renders(self):
        r = run_fig2(sizes=[1e5, 1e6])
        assert "Fig 2" in r.table() and "GB/s" in r.table()


class TestFig5Result:
    def test_volumes_list_layout(self, tiny):
        r = run_fig5(tiny, [4, 2])
        vols = r.column("volume")
        assert len(vols) == 3
        assert vols[-1] == r.row(layer="bottom")["volume"]
        assert r.column("layer") == ["layer 1", "layer 2", "bottom"]
        assert "Prop 4.1" in r.table()


class TestFig6Result:
    @pytest.fixture(scope="class")
    def fig6(self, tiny):
        return run_fig6(tiny, [4, 2], reduce_iters=1)

    def test_by_name(self, fig6):
        assert set(fig6.column("topology")) == {
            "direct", "optimal butterfly", "binary butterfly"
        }
        assert fig6.row(topology="optimal butterfly")["degrees"] == (4, 2)
        with pytest.raises(LookupError):
            fig6.row(topology="no-such-topology")
        assert "direct/optimal" in fig6.table()

    def test_topology_timing_total(self, fig6):
        for row in fig6.rows:
            assert row["total_s"] == row["config_s"] + row["reduce_s"]


class TestFig7Result:
    def test_time_at(self, tiny):
        r = run_fig7(tiny, [4, 2], threads=(1, 4))
        assert r.row(threads=1)["reduce_s"] > 0 and r.row(threads=4)["reduce_s"] > 0
        with pytest.raises(LookupError):
            r.row(threads=99)


class TestTable1Result:
    def test_by_label(self):
        r = Table(
            "Table I",
            [("label", "configuration", str)],
            [
                {"label": "a", "dead_nodes": 0, "config_s": 1.0, "reduce_s": 2.0},
                {"label": "b", "dead_nodes": 2, "config_s": 3.0, "reduce_s": 4.0},
            ],
        )
        assert r.row(label="b", dead_nodes=2)["reduce_s"] == 4.0
        with pytest.raises(LookupError):
            r.row(label="a", dead_nodes=5)


class TestFig8Result:
    def test_ratios(self, tiny):
        r = run_fig8(tiny, [4, 2], iterations=1)
        t = {row["system"]: row["s_per_iter"] for row in r.rows}
        assert r.row(system=PG)["vs_kylix"] == pytest.approx(t[PG] / t[KYLIX])
        assert r.row(system=HADOOP)["vs_kylix"] == pytest.approx(t[HADOOP] / t[KYLIX_PAPER])
        scale = r.row(system=KYLIX_PAPER)["scale_factor"]
        assert t[KYLIX_PAPER] == pytest.approx(t[KYLIX] * scale)
        assert r.row(system=KYLIX)["scale_factor"] == 1.0
        assert "PowerGraph" in r.table()


class TestFig9Result:
    def test_speedup_and_shares(self):
        r = scaling_table("d", [(4, (4,), 8.0, 2.0), (8, (8,), 4.0, 1.0)])
        assert r.row(nodes=8)["speedup"] == pytest.approx(2.0)
        assert r.row(nodes=4)["comm_share"] == pytest.approx(0.2)
        assert r.row(nodes=4)["total_s"] == 10.0
        assert "speedup" in r.table()

    def test_zero_total_share(self):
        r = scaling_table("d", [(1, (1,), 0.0, 0.0)])
        assert r.row(nodes=1)["comm_share"] == 0.0
        assert r.row(nodes=1)["speedup"] == 0.0
