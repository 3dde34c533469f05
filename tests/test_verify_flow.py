"""The symbolic plan certifier: proofs discharge on clean plans, seeded
corruptions are rejected by name, and the exact traffic predictions gate
live simulated runs cell for cell.

``CORRUPTIONS`` is the one corruption table of the plan checker: every
row is rejected by :func:`analyze_flow` on ``build_plans`` output and by
``verify_plans()`` on a live configure (:func:`assert_rejected`)."""

import json

import numpy as np
import pytest

from repro import Cluster, KylixAllreduce
from repro.__main__ import main as cli_main
from repro.allreduce.base import ReduceSpec
from repro.allreduce.topology import ButterflyTopology
from repro.design import EmpiricalDensityCurve, objective_volume
from repro.faults import FaultPlan, lost_outside_bound
from repro.verify import build_plans, synthetic_spec
from repro.verify.flow import (
    OBLIGATIONS,
    Certificate,
    CertificationError,
    analyze_flow,
    certificate_for_experiment,
    certify,
    check_traffic,
    density_spec,
    emit_certificate_metrics,
    mutant_plans,
    plan_fingerprint,
    worst_case_loss,
)


def make_case(m=8, degrees=(4, 2), n=256, seed=3):
    topo = ButterflyTopology(list(degrees), m)
    spec = synthetic_spec(m, n=n, seed=seed)
    return topo, spec, build_plans(topo, spec)


def dense_spec(m, n):
    idx = {r: np.arange(n, dtype=np.int64) for r in range(m)}
    return ReduceSpec(in_indices=idx, out_indices=idx)


# ---------------------------------------------------------------------------
# The corruption table: row name -> (corrupt(plans), the obligation that
# rejects it first).
# Plan arrays are read-only, so a row edits a copy and installs it.
# ---------------------------------------------------------------------------
CORRUPTIONS = {}


def corruption(obligation):
    def register(corrupt):
        CORRUPTIONS[corrupt.__name__] = (corrupt, obligation)
        return corrupt

    return register


def _edit(owner, name, edit, index=None):
    """Replace ``owner.name`` (or its ``index``-th entry) by an edited copy."""
    if index is None:
        arr = getattr(owner, name).copy()
        edit(arr)
        setattr(owner, name, arr)
    else:
        arr = getattr(owner, name)[index].copy()
        edit(arr)
        getattr(owner, name)[index] = arr


def _swap(seq, a=0, b=1):
    seq[a], seq[b] = seq[b], seq[a]


def _covered_slot(plan):
    return int(np.flatnonzero(plan.bottom_hit)[0])


@corruption("flow-slice-tiling")
def slice_drops_a_key(plans):
    lp = plans[3].layers[0]
    s = lp.out_slices[0]
    lp.out_slices[0] = slice(s.start, max(s.stop - 1, s.start))


@corruption("flow-slice-tiling")
def slice_not_unit_stride(plans):
    s = plans[3].layers[0].out_slices[0]
    plans[3].layers[0].out_slices[0] = slice(s.start, s.stop, 2)


@corruption("flow-down-union")
def map_duplicate_position(plans):
    _edit(plans[2].layers[0], "in_recv_maps", lambda m: m.__setitem__(1, m[0]), 0)


@corruption("flow-down-union")
def map_out_of_bounds(plans):
    lp = plans[5].layers[1]
    _edit(lp, "out_recv_maps", lambda m: m.__setitem__(-1, lp.out_union_size + 3), 0)


@corruption("flow-down-union")
def union_position_nobody_sends(plans):
    plans[1].layers[0].in_union_size += 1


@corruption("flow-down-union")
def map_shorter_than_part(plans):
    lp = plans[7].layers[0]
    lp.in_recv_maps[0] = lp.in_recv_maps[0][:-1]


@corruption("flow-down-union")
def map_entries_swapped(plans):
    _edit(plans[2].layers[0], "in_recv_maps", _swap, 0)


@corruption("flow-down-union")
def equal_size_maps_swapped(plans):
    for rank in sorted(plans):
        for lp in plans[rank].layers:
            for maps in (lp.out_recv_maps, lp.in_recv_maps):
                for a in range(len(maps)):
                    for b in range(a + 1, len(maps)):
                        if maps[a].size == maps[b].size and not np.array_equal(
                            maps[a], maps[b]
                        ):
                            _swap(maps, a, b)
                            return
    raise AssertionError("fixture needs two equal-size receive maps")


@corruption("flow-structure")
def pos_of_swapped(plans):
    lp = plans[4].layers[0]
    a, b = lp.group[0], lp.group[1]
    lp.pos_of[a], lp.pos_of[b] = lp.pos_of[b], lp.pos_of[a]


@corruption("flow-structure")
def group_members_swapped(plans):
    _swap(plans[4].layers[0].group)


@corruption("flow-structure")
def wrong_position(plans):
    lp = plans[4].layers[0]
    lp.pos = (lp.pos + 1) % len(lp.group)


@corruption("flow-structure")
def layer_missing(plans):
    plans[0].layers.pop()


@corruption("flow-up-reassembly")
def in_prev_size_bumped(plans):
    plans[6].layers[1].in_prev_size += 2


@corruption("flow-up-coverage")
def bottom_pos_out_of_bounds(plans):
    size = plans[0].bottom_out_keys.size
    _edit(plans[0], "bottom_pos", lambda a: a.__setitem__(0, size + 10))


@corruption("flow-up-coverage")
def bottom_pos_shifted(plans):
    _edit(plans[0], "bottom_pos", lambda a: a.__setitem__(0, a[0] + 1))


@corruption("flow-up-coverage")
def bottom_pos_missing(plans):
    plans[0].bottom_pos = None


@corruption("flow-up-coverage")
def covered_bottom_hit_flipped(plans):
    _edit(plans[0], "bottom_hit", lambda a: a.__setitem__(_covered_slot(plans[0]), False))


@corruption("flow-up-coverage")
def covered_bottom_pos_moved(plans):
    i, size = _covered_slot(plans[0]), plans[0].bottom_out_keys.size
    _edit(plans[0], "bottom_pos", lambda a: a.__setitem__(i, (a[i] + 1) % size))


def assert_rejected(*rows):
    """Each named row is rejected first by its obligation, through both
    entry points."""
    m, degrees = 8, [4, 2]
    spec = synthetic_spec(m, n=256, seed=3)
    topo = ButterflyTopology(degrees, m)
    for row in rows:
        corrupt, obligation = CORRUPTIONS[row]
        plans = build_plans(topo, spec)
        corrupt(plans)
        violations = analyze_flow(topo, plans, spec).violations
        assert violations and violations[0].invariant == obligation, (row, violations)
        net = KylixAllreduce(Cluster(m), degrees)
        net.configure(spec)
        corrupt(net.plans)
        with pytest.raises(CertificationError) as exc:
            net.verify_plans()
        assert exc.value.invariant == obligation, (row, exc.value.violations)


class TestStaticProofs:
    @pytest.mark.parametrize(
        "m,degrees",
        [(4, [4]), (4, [2, 2]), (8, [8]), (8, [4, 2]), (8, [2, 2, 2]),
         (6, [3, 2]), (12, [3, 2, 2])],
    )
    def test_clean_stacks_certify(self, m, degrees):
        topo, spec, plans = make_case(m, degrees)
        cert = certify(topo, spec, plans=plans)
        assert cert.num_nodes == m and cert.degrees == list(degrees)
        # every static obligation was actually exercised
        for name in OBLIGATIONS:
            if name.startswith("flow-"):
                assert cert.obligations[name] > 0, name

    def test_mutant_rejected_with_named_obligation(self):
        topo, spec, plans = make_case()
        with pytest.raises(CertificationError) as exc:
            certify(topo, spec, plans=mutant_plans(plans))
        assert exc.value.invariant == "flow-down-partition"
        fired = {v.invariant for v in exc.value.violations}
        assert "flow-down-union" in fired  # receivers notice too

    def test_corrupted_recv_map_rejected(self):
        assert_rejected("map_entries_swapped", "equal_size_maps_swapped")

    def test_corrupted_bottom_projection_rejected(self):
        assert_rejected(
            "bottom_pos_shifted",
            "bottom_pos_missing",
            "covered_bottom_hit_flipped",
            "covered_bottom_pos_moved",
        )

    def test_missing_layer_is_structure_violation(self):
        topo, spec, plans = make_case()
        plans[5].layers.pop()
        fired = {v.invariant for v in analyze_flow(topo, plans, spec).violations}
        assert fired == {"flow-structure"}

    def test_fingerprint_is_deterministic_and_sensitive(self):
        topo, spec, plans = make_case()
        again = build_plans(topo, spec)
        assert plan_fingerprint(topo, plans) == plan_fingerprint(topo, again)
        other = build_plans(topo, synthetic_spec(8, n=256, seed=4))
        assert plan_fingerprint(topo, plans) != plan_fingerprint(topo, other)

    def test_certificate_json_round_trip(self):
        topo, spec, plans = make_case()
        cert = certify(topo, spec, plans=plans)
        back = Certificate.from_json(json.loads(cert.dumps()))
        assert back.fingerprint == cert.fingerprint
        assert back.traffic == cert.traffic
        assert back.total_bytes == cert.total_bytes

    def test_certificate_rejects_unknown_schema(self):
        topo, spec, plans = make_case()
        doc = certify(topo, spec, plans=plans).to_json()
        doc["schema"] = 99
        with pytest.raises(ValueError):
            Certificate.from_json(doc)


class TestTrafficGate:
    @pytest.mark.parametrize("experiment", ["quickstart", "demo", "faults", "soak"])
    def test_experiment_traffic_matches_certificate_exactly(self, experiment):
        from repro.obs.runner import run_traced

        cert = certificate_for_experiment(experiment, seed=0)
        _, info = run_traced(experiment, backend="sim", seed=0)
        assert check_traffic(cert, info["stats"]) == []
        # and the prediction really is the observed volume once resends
        # are subtracted
        stats = info["stats"]
        resent = sum(
            c.resent_bytes for c in (stats.cell(p, l)
                                     for p in stats.phases
                                     for l in stats.layers(p))
        )
        assert cert.total_bytes == stats.total_bytes() - resent

    @pytest.mark.parametrize("degrees", [[4], [2, 2]])
    def test_degenerate_stacks_gate_exactly(self, degrees):
        m, n = 4, 200
        spec = synthetic_spec(m, n=n, seed=9)
        topo = ButterflyTopology(degrees, m)
        cert = certify(topo, spec)
        cluster = Cluster(m, observe=True)
        net = KylixAllreduce(cluster, degrees)
        net.configure(spec)
        rng = np.random.default_rng(0)
        net.reduce({r: rng.normal(size=spec.out_indices[r].size) for r in range(m)})
        assert check_traffic(cert, cluster.stats) == []

    def test_resends_are_tracked_and_subtracted(self):
        from repro.obs.runner import run_traced

        _, info = run_traced("faults", backend="sim", seed=0)
        stats = info["stats"]
        resent = sum(
            stats.cell(p, l).resent_messages
            for p in stats.phases
            for l in stats.layers(p)
        )
        assert resent > 0  # the drop plan really exercised the NACK path
        cert = certificate_for_experiment("faults", seed=0)
        assert check_traffic(cert, stats) == []

    def test_divergent_stats_are_flagged(self):
        topo, spec, plans = make_case()
        cert = certify(topo, spec, plans=plans)
        cluster = Cluster(8, observe=True)
        net = KylixAllreduce(cluster, [4, 2])
        net.configure(spec)
        rng = np.random.default_rng(0)
        net.reduce({r: rng.normal(size=spec.out_indices[r].size) for r in range(8)})
        cluster.stats.cell_ref("reduce_down", 1).add(100)
        violations = check_traffic(cert, cluster.stats)
        assert violations and violations[0].invariant == "traffic-exact"


class TestVolumeModel:
    def test_dense_workload_matches_analytic_model_exactly(self):
        m, n, degrees = 8, 1024, [4, 2]
        spec = dense_spec(m, n)
        topo = ButterflyTopology(degrees, m)
        curve = EmpiricalDensityCurve.from_partitions(spec.out_indices, n)
        cert = certify(topo, spec, curve=curve)
        from repro.design import predict_layers

        rows = predict_layers(curve, degrees, m, bytes_per_element=8.0)
        for i in range(1, len(degrees) + 1):
            cell = cert.cell("reduce_down", i)
            exact = cell["bytes"] + cell["self_bytes"]
            analytic = rows[i - 1].total_volume_elements * 8.0
            assert exact == pytest.approx(analytic)

    def test_objective_ranking_agrees_with_certificates(self):
        m, n = 8, 1024
        spec = dense_spec(m, n)
        curve = EmpiricalDensityCurve.from_partitions(spec.out_indices, n)
        stacks = [[8], [4, 2], [2, 2, 2]]

        def cert_down_bytes(degrees):
            cert = certify(ButterflyTopology(degrees, m), spec)
            return sum(
                cert.cell("reduce_down", i)["bytes"]
                + cert.cell("reduce_down", i)["self_bytes"]
                for i in range(1, len(degrees) + 1)
            )

        by_model = sorted(stacks, key=lambda d: objective_volume(curve, d, m))
        by_cert = sorted(stacks, key=cert_down_bytes)
        assert by_model == by_cert
        assert by_model[0] == [8]  # dense data: all-to-all minimizes volume

    def test_model_rows_attached_to_certificate(self):
        m, n = 8, 512
        spec = density_spec(m, n=n, density=0.3, seed=1)
        curve = EmpiricalDensityCurve.from_partitions(spec.out_indices, n)
        cert = certify(ButterflyTopology([4, 2], m), spec, curve=curve)
        assert len(cert.model) == 2
        assert {row["layer"] for row in cert.model} == {1, 2}
        for row in cert.model:
            assert 0.5 < row["ratio"] < 2.0  # model tracks the exact count


class TestFaultBounds:
    def run_degraded(self, spec, degrees, faults, m=8, seed=0):
        cluster = Cluster(m, seed=seed, failures=faults, observe=True)
        net = KylixAllreduce(cluster, degrees, degrade=True)
        net.configure(spec)
        rng = np.random.default_rng(1)
        net.reduce({r: rng.normal(size=spec.out_indices[r].size) for r in range(m)})
        return net.last_report

    @pytest.mark.parametrize(
        "phase,layer", [("config", 1), ("down", 1), ("down", 2), ("up", 1), ("up", 2)]
    )
    def test_runtime_loss_within_static_bound(self, phase, layer):
        faults = FaultPlan(seed=0).kill_at_step(2, phase, layer)
        spec = density_spec(8, n=512, density=0.2, seed=5)
        cert = certify(ButterflyTopology([4, 2], 8), spec, faults=faults)
        assert cert.fault_bound  # a crash schedule produces a bound
        report = self.run_degraded(spec, [4, 2], faults)
        assert lost_outside_bound(report.lost_indices, cert.bound_for) == {}

    def test_timed_death_within_static_bound(self):
        faults = FaultPlan(seed=0).kill(3, at=0.0)
        spec = density_spec(8, n=512, density=0.2, seed=5)
        cert = certify(ButterflyTopology([4, 2], 8), spec, faults=faults)
        report = self.run_degraded(spec, [4, 2], faults)
        assert lost_outside_bound(report.lost_indices, cert.bound_for) == {}

    def test_dead_requester_loses_whole_in_set(self):
        faults = FaultPlan(seed=0).kill_at_step(2, "config", 1)
        spec = density_spec(8, n=512, density=0.2, seed=5)
        topo = ButterflyTopology([4, 2], 8)
        bound = worst_case_loss(topo, spec, None, faults)
        np.testing.assert_array_equal(
            bound[2], np.unique(spec.in_indices[2])
        )

    def test_loss_outside_bound_is_flagged(self):
        faults = FaultPlan(seed=0).kill_at_step(2, "up", 2)
        spec = density_spec(8, n=512, density=0.2, seed=5)
        cert = certify(ButterflyTopology([4, 2], 8), spec, faults=faults)

        class FakeReport:
            # an index no chain through the dead node could have carried
            lost_indices = {1: np.asarray([int(x) for x in spec.in_indices[1][:1]])}

        bound1 = cert.bound_for(1)
        fake = FakeReport()
        outside = np.setdiff1d(np.asarray(spec.in_indices[1]), bound1)
        assert outside.size, "fixture needs an index outside the bound"
        fake.lost_indices = {1: outside[:3]}
        outside_bound = lost_outside_bound(fake.lost_indices, cert.bound_for)
        np.testing.assert_array_equal(outside_bound[1], outside[:3])

    def test_message_fault_plans_carry_no_bound(self):
        from repro.faults import LinkFault

        faults = FaultPlan(seed=0).with_rule(LinkFault(drop=0.05))
        topo, spec, plans = make_case()
        cert = certify(topo, spec, plans=plans, faults=faults)
        assert cert.fault_bound is None


class TestMetricsEmission:
    def test_cert_metrics_are_catalogued_and_counted(self):
        from repro.obs import Observer
        from repro.obs.metrics import CATALOGUE

        topo, spec, plans = make_case()
        cert = certify(topo, spec, plans=plans)
        obs = Observer(name="test")
        emit_certificate_metrics(
            obs, cert, violations=(), runtime_checked={"traffic-exact": 6}
        )
        flat = obs.metrics.snapshot()
        names = set(flat["counters"]) | set(flat["gauges"])
        assert names <= set(CATALOGUE)
        checked = flat["counters"]["verify.cert.obligations"]
        discharged = flat["counters"]["verify.cert.discharged"]
        assert checked == discharged  # nothing failed
        total = sum(cert.obligations.values()) + 6
        assert sum(checked.values()) == total
        assert flat["gauges"]["verify.cert.fingerprint"]

    def test_violations_reduce_discharged_count(self):
        from repro.obs import Observer
        from repro.verify.invariants import Violation

        topo, spec, plans = make_case()
        cert = certify(topo, spec, plans=plans)
        obs = Observer(name="test")
        emit_certificate_metrics(
            obs,
            cert,
            violations=[Violation("traffic-exact", "seeded", layer=1)],
            runtime_checked={"traffic-exact": 6},
        )
        flat = obs.metrics.snapshot()

        def for_obligation(series, name):
            return sum(
                v for k, v in series.items() if ("obligation", name) in k
            )

        counters = flat["counters"]
        assert for_obligation(counters["verify.cert.obligations"], "traffic-exact") == 6
        assert for_obligation(counters["verify.cert.discharged"], "traffic-exact") == 5


class TestCertifyCLI:
    def test_certify_synthetic_passes(self, capsys):
        assert cli_main(["certify", "--nodes", "8", "--degrees", "4,2"]) == 0
        out = capsys.readouterr().out
        assert "all static obligations discharged" in out
        assert "matches the certificate exactly" in out

    def test_certify_experiment_passes(self, capsys):
        assert cli_main(["certify", "--experiment", "quickstart"]) == 0
        out = capsys.readouterr().out
        assert "matches the certificate exactly" in out

    def test_certify_mutant_exits_one_named(self, capsys, tmp_path):
        out_file = tmp_path / "cert.json"
        assert cli_main(
            ["certify", "--nodes", "8", "--degrees", "4,2", "--mutant",
             "--out", str(out_file)]
        ) == 1
        out = capsys.readouterr().out
        assert "CERTIFICATION FAILED" in out
        assert "flow-down-partition" in out
        doc = json.loads(out_file.read_text())
        assert doc["certified"] is False
        assert doc["obligation"] == "flow-down-partition"

    def test_certify_writes_certificate_json(self, capsys, tmp_path):
        out_file = tmp_path / "cert.json"
        assert cli_main(
            ["certify", "--nodes", "4", "--degrees", "2,2", "--density", "0.3",
             "--out", str(out_file)]
        ) == 0
        capsys.readouterr()
        doc = json.loads(out_file.read_text())
        assert doc["certified"] is True and doc["runtime"]["ok"] is True
        cert = Certificate.from_json(doc)
        assert cert.total_bytes == doc["totals"]["bytes"]

    def test_certify_with_crash_schedule(self, capsys):
        assert cli_main(
            ["certify", "--nodes", "8", "--degrees", "4,2", "--density", "0.2",
             "--faults", "kill:2:down:1"]
        ) == 0
        out = capsys.readouterr().out
        assert "worst-case coverage loss" in out
        assert "coverage within static bound" in out

    def test_certify_static_only_skips_runtime(self, capsys):
        assert cli_main(
            ["certify", "--nodes", "4", "--degrees", "2,2", "--static-only"]
        ) == 0
        assert "runtime gate: skipped" in capsys.readouterr().out

    def test_certify_rejects_bad_arguments(self):
        with pytest.raises(SystemExit):
            cli_main(["certify", "--degrees", "4,x"])
        with pytest.raises(SystemExit):
            cli_main(["certify", "--faults", "kill:2:sideways:1"])
        with pytest.raises(SystemExit):
            cli_main(["certify", "--density", "1.5"])
        with pytest.raises(SystemExit):
            cli_main(["certify", "--experiment", "quickstart", "--mutant"])


class TestStatsResentTracking:
    def test_add_resent_keeps_base_counters(self):
        from repro.cluster.stats import PhaseBreakdown

        cell = PhaseBreakdown()
        cell.add(100)
        cell.add(50)
        cell.add_resent(50)
        assert cell.messages == 2 and cell.bytes == 150
        assert cell.resent_messages == 1 and cell.resent_bytes == 50
        assert cell.total_bytes == 150  # unchanged semantics


class TestPerfIntegration:
    """A named experiment's measured traffic against its certificate."""

    @staticmethod
    def traffic(experiment):
        from repro.obs.analyze import TraceAnalysis
        from repro.obs.runner import run_traced

        obs, info = run_traced(experiment, backend="sim", seed=0)
        cert = certificate_for_experiment(experiment, seed=0)
        certified = not check_traffic(cert, info["stats"])
        total = TraceAnalysis.from_observer(obs).goblet_report().total_bytes
        return certified, int(cert.total_bytes), int(total)

    def test_measure_carries_predicted_bytes_and_certified(self):
        certified, predicted, total = self.traffic("quickstart")
        assert certified
        assert predicted == total

    def test_faults_predicted_bytes_excludes_resends(self):
        certified, predicted, total = self.traffic("faults")
        assert certified
        assert predicted < total
