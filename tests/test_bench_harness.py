"""Tests for the benchmark harness: calibration, reporting, small drivers.

Heavy experiment drivers are exercised end-to-end by ``benchmarks/``;
here we test the harness machinery itself on miniature datasets.
"""

import numpy as np
import pytest

from repro.bench import (
    PAPER,
    banner,
    format_bars,
    dataset_per_node_bytes,
    format_bytes,
    format_seconds,
    format_table,
    make_cluster,
    run_design_workflow,
    run_fig2,
    run_fig4,
    run_fig5,
    scaled_params,
)
from repro.data import twitter_like
from repro.netmodel import EC2_LIKE


@pytest.fixture(scope="module")
def tiny_dataset():
    return twitter_like(m=8, n_vertices=5_000)


class TestReporting:
    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.00 KB"
        assert format_bytes(5 * 1024**2) == "5.00 MB"
        assert format_bytes(3 * 1024**3) == "3.00 GB"

    def test_format_seconds(self):
        assert format_seconds(120) == "120 s"
        assert format_seconds(1.5) == "1.50 s"
        assert format_seconds(0.002) == "2.00 ms"
        assert format_seconds(5e-6) == "5.0 µs"

    def test_format_table_aligns(self):
        t = format_table(["a", "bb"], [(1, 2.5), (30, 4.0)])
        lines = t.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_banner(self):
        b = banner("Title")
        assert "Title" in b and "=" in b

    def test_format_bars_scales_to_max(self):
        art = format_bars(["a", "bb"], [10.0, 5.0], width=10)
        lines = art.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_format_bars_edge_cases(self):
        assert format_bars([], []) == "(no data)"
        assert "0" in format_bars(["z"], [0.0])
        with pytest.raises(ValueError):
            format_bars(["a"], [1.0, 2.0])


class TestCalibration:
    def test_paper_constants_present(self):
        assert PAPER["twitter"]["optimal_degrees"] == (8, 4, 2)
        assert PAPER["yahoo"]["optimal_degrees"] == (16, 4)
        assert PAPER["min_efficient_packet_bytes"] == 5e6

    def test_scaled_params_preserve_operating_point(self, tiny_dataset):
        """Data-to-half-throughput-packet ratio must match paper scale."""
        p = scaled_params(tiny_dataset)
        ratio_scaled = dataset_per_node_bytes(tiny_dataset) / p.half_throughput_packet
        ratio_paper = PAPER["per_node_data_bytes"] / EC2_LIKE.half_throughput_packet
        assert ratio_scaled == pytest.approx(ratio_paper, rel=1e-6)

    def test_scaled_params_keep_bandwidth(self, tiny_dataset):
        assert scaled_params(tiny_dataset).bandwidth == EC2_LIKE.bandwidth

    def test_make_cluster_shape(self, tiny_dataset):
        c = make_cluster(tiny_dataset)
        assert c.num_nodes == tiny_dataset.m
        c2 = make_cluster(tiny_dataset, m=4)
        assert c2.num_nodes == 4


class TestSmallDrivers:
    def test_fig2_runs_on_custom_sizes(self):
        r = run_fig2(sizes=[1e5, 1e6, 1e7])
        assert len(r.rows) == 3
        utils = r.column("utilization")
        assert utils[0] < utils[-1]

    def test_fig4_normalization_point(self):
        r = run_fig4(alphas=(1.0,), points=7)
        series = r.column("alpha=1.0")
        at_one = float(np.interp(0.0, np.log10(r.column("lambda_norm")), series))
        assert at_one == pytest.approx(0.9, abs=0.01)

    def test_fig5_small_dataset(self, tiny_dataset):
        r = run_fig5(tiny_dataset, [4, 2])
        vols = r.column("volume")
        assert len(vols) == 3  # two layers + bottom
        assert all(v > 0 for v in vols)
        assert vols[0] > vols[-1]

    def test_design_workflow_runs(self):
        r = run_design_workflow()
        assert set(r.column("dataset")) == {"twitter", "yahoo"}
        assert "x" in r.table()
