"""The trace analyzer: critical-path extraction, straggler and
queue-wait reports, and the per-layer volume goblet — including the
acceptance pins (goblet == TrafficStats exactly on the simulator; the
straggler report names the deliberately delayed node on both backends)."""

import json

import numpy as np
import pytest

from repro.allreduce import KylixAllreduce, ReduceSpec
from repro.cluster import Cluster
from repro.netmodel import NetworkParams
from repro.obs import Observer, analyze, chrome_trace, metrics_json
from repro.obs.analyze import (
    REDUCTION_PHASES,
    SKEW_THRESHOLD,
    TraceAnalysis,
    render_analysis,
)
from repro.obs.runner import STRAGGLER_NODE, run_traced


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def synthetic_observer():
    """Two nodes, two sequential steps; node 1 is slower in both."""
    clock = FakeClock()
    obs = Observer(clock=clock, name="synthetic")
    tokens = {}
    for node in (0, 1):
        clock.t = 0.0
        tokens[node] = obs.begin("rd L1", node=node, phase="reduce_down", layer=1)
    clock.t = 1.0
    obs.end(tokens[0])
    clock.t = 2.0
    obs.end(tokens[1])
    for node in (0, 1):
        tokens[node] = obs.begin("gu L1", node=node, phase="gather_up", layer=1)
    clock.t = 2.5
    obs.end(tokens[0])
    clock.t = 4.0
    obs.end(tokens[1])
    return obs


class TestCriticalPath:
    def test_frontier_walk_attributes_every_step(self):
        cp = analyze(synthetic_observer()).critical_path()
        assert cp.t0 == 0.0 and cp.t_end == 4.0 and cp.total == 4.0
        assert [(.0 + s.layer, s.phase) for s in cp.steps] == [
            (1, "reduce_down"),
            (1, "gather_up"),
        ]
        # step 1 pushes the frontier to 2.0, step 2 from 2.0 to 4.0
        assert [s.advance for s in cp.steps] == [2.0, 2.0]
        assert cp.attributed == pytest.approx(cp.total)
        assert all(s.slowest_node == 1 for s in cp.steps)

    def test_by_phase_and_by_layer_sum_to_attributed(self):
        cp = analyze(synthetic_observer()).critical_path()
        assert sum(cp.by_phase().values()) == pytest.approx(cp.attributed)
        assert sum(cp.by_layer().values()) == pytest.approx(cp.attributed)

    def test_traced_run_is_fully_attributed(self):
        obs, _ = run_traced("quickstart", backend="sim", seed=0)
        cp = analyze(obs).critical_path()
        assert cp.total > 0
        # protocol steps explain (nearly) the whole simulated run
        assert cp.attributed == pytest.approx(cp.total, rel=0.05)
        phases = {s.phase for s in cp.steps}
        assert {"config", "reduce_down", "gather_up"} <= phases


class TestGoblet:
    @pytest.fixture(scope="class")
    def traced(self):
        return run_traced("demo", backend="sim", seed=0)

    def test_goblet_matches_traffic_stats_exactly(self, traced):
        obs, info = traced
        stats = info["stats"]
        goblet = analyze(obs).goblet_report()
        assert goblet.layers == stats.merged("reduce_down", "gather_up")
        assert goblet.total_bytes == stats.total_bytes()
        assert goblet.total_messages == stats.total_messages()

    def test_goblet_matches_fig5_harness(self, traced):
        """Same identity ``run_fig5`` plots: down + up bytes per layer."""
        obs, info = traced
        stats = info["stats"]
        down = stats.bytes_by_layer("reduce_down")
        up = stats.bytes_by_layer("gather_up")
        goblet = analyze(obs).goblet_report()
        for layer, vol in goblet.layers.items():
            assert vol == down.get(layer, 0) + up.get(layer, 0)

    def test_goblet_shape_is_the_paper_goblet(self, traced):
        obs, _ = traced
        assert analyze(obs).goblet_report().strictly_decreasing

    def test_reduction_phases_cover_both_protocol_variants(self):
        assert set(REDUCTION_PHASES) == {"reduce_down", "combined_down", "gather_up"}


class TestStraggler:
    def test_sim_backend_names_the_delayed_node(self):
        obs, info = run_traced("straggler", backend="sim", seed=0)
        assert info["exact"]
        rep = analyze(obs).straggler_report()
        assert rep.straggler == STRAGGLER_NODE
        assert rep.reason == "link"
        others = [v["median"] for s, v in rep.link_latency.items() if s != STRAGGLER_NODE]
        assert rep.link_latency[STRAGGLER_NODE]["median"] > SKEW_THRESHOLD * max(others)

    def test_local_backend_names_the_delayed_node(self):
        obs, info = run_traced("straggler", backend="local", seed=0)
        assert info["exact"]
        rep = analyze(obs).straggler_report()
        assert rep.straggler == STRAGGLER_NODE
        assert rep.reason == "link"

    def test_balanced_run_reports_no_straggler(self):
        obs, _ = run_traced("quickstart", backend="sim", seed=0)
        rep = analyze(obs).straggler_report()
        assert rep.straggler is None and rep.reason == "balanced"

    def test_link_latency_tail_grows_with_jitter(self):
        """Commodity-cloud jitter shows as a delivery-latency tail: the
        slowest delivery over the median source's median latency grows
        with the network's lognormal sigma."""
        m, n = 8, 200
        rng = np.random.default_rng(1)
        idx = {
            r: np.unique(np.concatenate([rng.choice(n, 30), np.arange(r, n, m)]))
            for r in range(m)
        }
        spec = ReduceSpec(idx, idx)
        vals = {r: np.ones(idx[r].size) for r in range(m)}
        tails = {}
        for sigma in (0.0, 1.5):
            params = NetworkParams(base_latency=1e-4, latency_sigma=sigma, service_sigma=sigma)
            cluster = Cluster(m, params=params, seed=5, observe=True)
            KylixAllreduce(cluster, [4, 2]).allreduce(spec, vals)
            lat = analyze(cluster.obs).straggler_report().link_latency
            tails[sigma] = max(d["max"] for d in lat.values()) / np.median(
                [d["median"] for d in lat.values()]
            )
        assert tails[0.0] < tails[1.5]


class TestQueueWaitReport:
    def test_per_node_rollup(self):
        obs, _ = run_traced("straggler", backend="sim", seed=0)
        qw = analyze(obs).queue_wait_report()
        assert set(qw.per_node) == set(range(8))
        for node, agg in qw.per_node.items():
            assert agg["count"] > 0 and agg["max"] >= agg["mean"] >= 0.0
        # someone had to wait on the straggler's fan-in group
        assert max(agg["max"] for agg in qw.per_node.values()) > 0.01


class TestLoaders:
    @pytest.fixture(scope="class")
    def traced(self):
        return run_traced("quickstart", backend="sim", seed=0)

    def test_chrome_trace_round_trip(self, traced):
        obs, _ = traced
        doc = json.loads(json.dumps(chrome_trace(obs)))  # through real JSON
        direct = analyze(obs)
        loaded = analyze(doc)
        assert isinstance(loaded, TraceAnalysis)
        assert loaded.goblet_report().layers == direct.goblet_report().layers
        # µs round trip costs a little float precision, nothing more
        assert loaded.critical_path().total == pytest.approx(
            direct.critical_path().total, rel=1e-6
        )
        assert len(loaded.spans) == len(direct.spans)
        assert len(loaded.messages) == len(direct.messages)

    def test_metrics_json_round_trip(self, traced):
        obs, _ = traced
        doc = json.loads(json.dumps(metrics_json(obs)))
        loaded = analyze(doc)
        assert loaded.goblet_report().layers == analyze(obs).goblet_report().layers
        # histogram summaries survive (raw spans/messages do not)
        assert loaded.queue_wait_report().per_node
        assert loaded.spans == [] and loaded.messages == []

    def test_analyze_rejects_unknown_shapes(self):
        with pytest.raises(TypeError):
            analyze(42)
        with pytest.raises(ValueError):
            analyze({"traceEvents": "not a list"})


class TestRenderers:
    def test_render_analysis_is_one_string_with_all_sections(self):
        obs, _ = run_traced("straggler", backend="sim", seed=0)
        out = render_analysis(obs)
        assert isinstance(out, str)
        for fragment in (
            "critical path",
            "straggler: node 5 (link)",
            "queue wait",
            "goblet",
            "merge kernels",
        ):
            assert fragment in out

    def test_render_handles_metrics_only_input(self):
        obs, _ = run_traced("quickstart", backend="sim", seed=0)
        out = render_analysis(json.loads(json.dumps(metrics_json(obs))))
        assert "goblet" in out and "critical path" not in out
