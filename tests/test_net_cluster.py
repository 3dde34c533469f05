"""The standalone cluster: node server, launcher, manifest, driver.

Most tests run :func:`serve_node` on in-process threads (the server is
pure socket code, so a thread is a faithful stand-in for a node process
as long as no failure mode calls ``os._exit``); one end-to-end test
exercises the real subprocess launcher and teardown ladder.
"""

import io
import json
import os
import re
import threading
import time

import numpy as np
import pytest

from repro.net.cluster import (
    DEFAULT_LOG_DIR,
    FAILURE_MODES,
    VICTIM_RANK,
    attach_cluster,
    drive_cluster,
    launch_cluster,
    load_manifest,
    serve_node,
    stop_cluster,
    _send_shutdown,
)

READY_RE = re.compile(r"KYLIX-NODE READY rank=(\d+) host=(\S+) port=(\d+) pid=(\d+)")


def start_node_threads(n, *, once=False):
    """Spawn ``n`` serve_node threads; return (threads, manifest dict)."""
    streams = [io.StringIO() for _ in range(n)]
    threads = [
        threading.Thread(
            target=serve_node,
            args=(r,),
            kwargs={"port": 0, "once": once, "ready_stream": streams[r]},
            daemon=True,
        )
        for r in range(n)
    ]
    for t in threads:
        t.start()
    nodes = {}
    deadline = time.monotonic() + 10.0
    for r in range(n):
        while time.monotonic() < deadline:
            match = READY_RE.search(streams[r].getvalue())
            if match:
                break
            time.sleep(0.01)
        assert match, f"node {r} never announced READY"
        nodes[f"node{r}"] = {
            "rank": int(match.group(1)),
            "host": match.group(2),
            "port": int(match.group(3)),
            "pid": int(match.group(4)),
            "log": None,
        }
    manifest = {
        "cluster": {"size": n, "host": "127.0.0.1", "workdir": os.getcwd()},
        "nodes": nodes,
    }
    return threads, manifest


def _export_src_path(monkeypatch):
    """Launched node subprocesses must find the repro package."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    monkeypatch.setenv(
        "PYTHONPATH", src + os.pathsep + os.environ.get("PYTHONPATH", "")
    )


def shutdown_node_threads(threads, manifest):
    for node in manifest["nodes"].values():
        _send_shutdown(node["host"], node["port"])
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads)


class TestNodeServer:
    def test_drive_quickstart_exact_on_thread_nodes(self):
        threads, manifest = start_node_threads(8, once=True)
        try:
            outcome = drive_cluster(
                manifest,
                workload="quickstart",
                rounds=2,
                concurrency=2,  # both rounds in one session wave
                failure_mode="none",
                seed=0,
            )
        finally:
            for t in threads:
                t.join(timeout=30.0)
        assert outcome["errors"] == []
        assert outcome["dead_ranks"] == []
        assert outcome["rounds_run"] == 2 and outcome["waves"] == 1
        assert outcome["checked_rounds"] == 16  # 8 ranks x 2 rounds
        assert outcome["exact_rounds"] == 16
        assert outcome["report"] is None
        assert outcome["ok"] and outcome["failures"] == []

    def test_result_precedes_linger_on_long_lived_nodes(self):
        """A node sends its result first and lingers only until the
        driver's done frame.  Four one-round sessions on long-lived
        nodes used to cost four fixed 0.5 s lingers *before* each result
        (>= 2 s of dead time); the handshake leaves only the work."""
        threads, manifest = start_node_threads(8, once=False)
        try:
            outcome = drive_cluster(
                manifest, workload="quickstart", rounds=4, concurrency=1, seed=0
            )
        finally:
            shutdown_node_threads(threads, manifest)
        # Every rank's error, not the first: which rank failed first and
        # why is what tells a real death from its cascade.
        assert outcome["errors"] == [] and outcome["dead_ranks"] == [], "\n".join(
            outcome["errors"]
        )
        assert outcome["waves"] == 4
        assert outcome["checked_rounds"] == outcome["exact_rounds"] == 32
        assert outcome["elapsed"] < 4 * 0.5

    def test_partition_mode_degrades_within_static_bound(self, tmp_path, monkeypatch):
        """The silent partition (drop=1.0 both ways, connections up) on
        real node processes: survivors finish exactly on their kept
        positions, every lost index sits inside the kill-equivalent
        worst-case-loss bound, and nobody dies.  Real processes, not
        threads: the 0.15 s partition deadlines are meaningless when
        eight transports share one GIL."""
        monkeypatch.chdir(tmp_path)
        _export_src_path(monkeypatch)
        manifest = launch_cluster(8, manifest_path="procs.json")
        try:
            outcome = drive_cluster(
                manifest,
                workload="quickstart",
                rounds=1,
                failure_mode="partition",
                seed=0,
            )
            assert outcome["bound_ok"], outcome["bound_violations"]
            assert outcome["report"] is not None
            assert VICTIM_RANK in outcome["report"].dead_members
            assert outcome["dead_ranks"] == []  # partitioned, not dead
            assert outcome["checked_rounds"] == outcome["exact_rounds"]
            assert outcome["ok"], outcome["failures"]
        finally:
            stop_cluster("procs.json")

    def test_attach_cluster_probes_and_writes_manifest(self, tmp_path):
        threads, manifest = start_node_threads(2)
        path = str(tmp_path / "procs.json")
        try:
            endpoints = [
                f"{n['host']}:{n['port']}" for n in manifest["nodes"].values()
            ]
            attached = attach_cluster(endpoints, manifest_path=path)
            assert attached["cluster"]["size"] == 2
            assert sorted(n["rank"] for n in attached["nodes"].values()) == [0, 1]
            assert all(n["pid"] == os.getpid() for n in attached["nodes"].values())
            assert load_manifest(path)["cluster"]["size"] == 2
        finally:
            shutdown_node_threads(threads, manifest)

    def test_attach_rejects_partial_rank_cover(self, tmp_path):
        threads, manifest = start_node_threads(3)
        path = str(tmp_path / "procs.json")
        try:
            node1 = manifest["nodes"]["node1"]
            node2 = manifest["nodes"]["node2"]
            with pytest.raises(RuntimeError, match="do not"):
                attach_cluster(
                    [
                        f"{node1['host']}:{node1['port']}",
                        f"{node2['host']}:{node2['port']}",
                    ],
                    manifest_path=path,
                )
        finally:
            shutdown_node_threads(threads, manifest)

    def test_attach_rejects_a_rank_announced_twice(self, tmp_path):
        threads, manifest = start_node_threads(2)
        path = str(tmp_path / "procs.json")
        try:
            node0, node1 = manifest["nodes"]["node0"], manifest["nodes"]["node1"]
            endpoints = [f"{n['host']}:{n['port']}" for n in (node0, node1, node1)]
            with pytest.raises(RuntimeError, match="rank 1"):
                attach_cluster(endpoints, manifest_path=path)
            assert not os.path.exists(path)
        finally:
            shutdown_node_threads(threads, manifest)


class TestManifest:
    def test_load_manifest_validates_rank_cover(self, tmp_path):
        path = tmp_path / "procs.json"
        path.write_text(
            json.dumps(
                {
                    "cluster": {"size": 2, "host": "127.0.0.1", "workdir": "."},
                    "nodes": {
                        "node0": {"rank": 0, "host": "127.0.0.1", "port": 1, "pid": 1},
                        "node2": {"rank": 2, "host": "127.0.0.1", "port": 2, "pid": 2},
                    },
                }
            )
        )
        with pytest.raises(ValueError, match="do not cover"):
            load_manifest(str(path))


class TestDriverValidation:
    def fake_manifest(self, size):
        return {
            "cluster": {"size": size, "host": "127.0.0.1", "workdir": "."},
            "nodes": {
                f"node{r}": {"rank": r, "host": "127.0.0.1", "port": 1, "pid": 1}
                for r in range(size)
            },
        }

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            drive_cluster(self.fake_manifest(8), workload="nope")

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="needs 8 nodes"):
            drive_cluster(self.fake_manifest(4), workload="quickstart")

    def test_unknown_failure_mode_rejected(self):
        with pytest.raises(ValueError, match="failure mode"):
            drive_cluster(
                self.fake_manifest(8), workload="quickstart", failure_mode="meteor"
            )

    def test_failure_mode_catalogue_pinned(self):
        assert FAILURE_MODES == ("none", "crash", "slow-node", "partition")

    @pytest.mark.parametrize(
        "wave,options,gate",
        [
            ({}, {}, None),
            ({"exact_rounds": 7}, {}, "differs from the dense reference"),
            ({"errors": ["rank 3: boom"]}, {}, "a rank failed or died"),
            ({"dead": [3]}, {}, "a rank failed or died"),
            ({"checked_rounds": 0, "exact_rounds": 0}, {}, "no results came back"),
            ({"cache": {"hits": 0, "misses": 1}}, {"rounds": 2, "concurrency": 2},
             "config-cache gate"),
            ({}, {"telemetry_interval": 0.05}, "telemetry gate"),
        ],
    )
    def test_the_verdict_names_each_failed_gate(
        self, tmp_path, monkeypatch, wave, options, gate
    ):
        """``drive_cluster`` is the one judge of a driven run: ``ok`` and
        the gates that failed come from the waves, the CLI only prints."""
        import repro.obs.runner as runner
        from repro.obs import Observer

        def one_wave(workload, **kwargs):
            info = {"errors": [], "dead": [], "exact_rounds": 8, "checked_rounds": 8,
                    "cache": {"hits": 1, "misses": 1}, "report": None}
            return Observer(name="wave"), {**info, **wave}

        monkeypatch.chdir(tmp_path)  # a failed wave leaves a postmortem
        monkeypatch.setattr(runner, "run_traced", one_wave)
        outcome = drive_cluster(self.fake_manifest(8), **options)
        assert outcome["ok"] is (gate is None)
        assert len(outcome["failures"]) == (gate is not None)
        assert all(gate in f for f in outcome["failures"])


class TestLauncher:
    def test_launch_and_stop_real_processes(self, tmp_path, monkeypatch):
        """End-to-end launcher mechanics on 2 real node processes: READY
        parsing into the manifest, per-node logs, shutdown handshake,
        manifest removal, and zero surviving pids."""
        monkeypatch.chdir(tmp_path)
        _export_src_path(monkeypatch)
        manifest = launch_cluster(2, manifest_path="procs.json")
        pids = [n["pid"] for n in manifest["nodes"].values()]
        try:
            assert os.path.exists("procs.json")
            assert manifest["cluster"]["size"] == 2
            for node in manifest["nodes"].values():
                assert os.path.exists(node["log"])
                assert "READY" in open(node["log"]).read()
            assert load_manifest("procs.json")["cluster"]["size"] == 2
        finally:
            stopped = stop_cluster("procs.json")
        assert stopped == 2
        assert not os.path.exists("procs.json")
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not any(_alive(p) for p in pids):
                break
            time.sleep(0.05)
        assert not any(_alive(p) for p in pids)
        assert os.path.isdir(DEFAULT_LOG_DIR)  # logs survive for post-mortems


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True
