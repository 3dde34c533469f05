"""The concurrency analyzer and the runtime lock-order sanitizer.

Three layers of evidence:

* fixture tests that each static capability (lock-order cycles through
  call edges, guarded-attribute races, pragmas, conservative call
  resolution) fires exactly when it should;
* the mutant self-test — the seeded AB/BA inversion must be found and
  both acquisition paths named (prove the prover);
* the shipped package analyzes clean, and a sanitizer-enabled
  tcp-loopback run witnesses zero lock-order violations — the
  acceptance criteria of the ``races`` subsystem.
"""

import textwrap
import threading

import numpy as np
import pytest

import repro.verify.watchlock as watchlock_mod
from repro.verify.threads import (
    analyze_package,
    analyze_source,
    mutant_source,
)
from repro.verify.watchlock import (
    LockOrderViolation,
    LockWatchdog,
    WatchedLock,
    watched_lock,
)


def analyze(source, **kwargs):
    return analyze_source(textwrap.dedent(source), "fixture.py", **kwargs)


@pytest.fixture
def fresh_watchdog(monkeypatch):
    """Reset the process-global watchdog around a test."""
    monkeypatch.setattr(watchlock_mod, "_GLOBAL", None)
    yield
    watchlock_mod._GLOBAL = None


class TestLockOrderCycles:
    def test_inversion_across_call_edges_is_found(self):
        report = analyze(
            """
            import threading

            class S:
                def __init__(self):
                    self.l1 = threading.Lock()
                    self.l2 = threading.Lock()
                    self.x = 0

                def outer(self):
                    with self.l1:
                        self.inner()

                def inner(self):
                    with self.l2:
                        self.x += 1

                def other(self):
                    with self.l2:
                        with self.l1:
                            self.x -= 1

                def run(self):
                    t = threading.Thread(target=self.outer)
                    t.start()
                    self.other()
                    t.join(timeout=1.0)
            """
        )
        assert len(report.cycles) == 1
        finding = report.cycles[0]
        assert finding.kind == "lock-order-cycle"
        assert "fixture.S.l1" in finding.message and "fixture.S.l2" in finding.message
        # The witness for the l1 -> l2 edge crosses the outer -> inner call.
        joined = "\n".join(finding.sites)
        assert "outer" in joined and "inner" in joined and "other" in joined
        assert {(e.src, e.dst) for e in report.edges} == {
            ("fixture.S.l1", "fixture.S.l2"),
            ("fixture.S.l2", "fixture.S.l1"),
        }

    def test_consistent_order_is_clean(self):
        report = analyze(
            """
            import threading

            class S:
                def __init__(self):
                    self.l1 = threading.Lock()
                    self.l2 = threading.Lock()

                def a(self):
                    with self.l1:
                        with self.l2:
                            pass

                def b(self):
                    with self.l1:
                        with self.l2:
                            pass
            """
        )
        assert report.cycles == []
        assert {(e.src, e.dst) for e in report.edges} == {
            ("fixture.S.l1", "fixture.S.l2")
        }

    def test_reacquiring_a_plain_lock_is_a_self_deadlock(self):
        report = analyze(
            """
            import threading

            class S:
                def __init__(self):
                    self.mu = threading.Lock()

                def outer(self):
                    with self.mu:
                        self.inner()

                def inner(self):
                    with self.mu:
                        pass
            """
        )
        assert any("self-deadlock" in c.message for c in report.cycles)

    def test_rlock_reacquire_is_fine(self):
        report = analyze(
            """
            import threading

            class S:
                def __init__(self):
                    self.mu = threading.RLock()

                def outer(self):
                    with self.mu:
                        self.inner()

                def inner(self):
                    with self.mu:
                        pass
            """
        )
        assert report.cycles == []

    def test_unknown_receiver_is_never_resolved_by_name(self):
        # sock.close() must not match A.close just because the names
        # agree — that false edge is what conservatism buys.
        report = analyze(
            """
            import threading

            class A:
                def __init__(self):
                    self.lock = threading.Lock()

                def close(self):
                    with self.lock:
                        pass

            class B:
                def __init__(self):
                    self.mu = threading.Lock()

                def stop(self, sock):
                    with self.mu:
                        sock.close()
            """
        )
        assert report.edges == []
        assert report.findings == []


class TestGuardedAttributeRaces:
    RACY = """
        import threading

        class C:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                with self._lock:
                    self.count += 1

            def sloppy(self):
                self.count = 5{pragma}

            def run(self):
                t = threading.Thread(target=self.bump)
                t.start()
                self.sloppy()
                t.join(timeout=1.0)
        """

    def test_unguarded_write_is_flagged(self):
        report = analyze(self.RACY.format(pragma=""))
        assert len(report.races) == 1
        finding = report.races[0]
        assert finding.kind == "unguarded-access"
        assert "fixture.C.count" in finding.message
        assert "fixture.C._lock" in finding.message
        assert any("sloppy" in s for s in finding.sites)

    def test_pragma_suppresses_the_vetted_site(self):
        report = analyze(self.RACY.format(pragma="  # conc: ok(test fixture)"))
        assert report.races == []
        assert report.suppressed >= 1

    def test_allowlist_suppresses_the_attribute(self):
        report = analyze(self.RACY.format(pragma=""), allow=["C.count"])
        assert report.races == []

    def test_init_writes_do_not_need_the_lock(self):
        report = analyze(
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def run(self):
                    t = threading.Thread(target=self.bump)
                    t.start()
                    t.join(timeout=1.0)
            """
        )
        assert report.races == []

    def test_single_context_attribute_is_not_shared(self):
        # Guarded writes but only one execution context: no finding.
        report = analyze(
            """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def peek(self):
                    return self.count
            """
        )
        assert report.races == []

    def test_dict_element_typing_resolves_the_receiver(self):
        # A per-peer link table: a Dict[int, Link] attribute types the loop
        # variable, so the unlocked write in the pump is attributed to
        # Link.sock and flagged against Link.lock.
        report = analyze(
            """
            import threading
            from typing import Dict

            class Link:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.sock = None

            class T:
                def __init__(self):
                    self._links: Dict[int, Link] = {}

                def pump(self):
                    for link in self._links.values():
                        link.sock = 1

                def writer(self, link: Link):
                    with link.lock:
                        link.sock = 2

                def run(self):
                    t = threading.Thread(target=self.pump)
                    t.start()
                    self.writer(Link())
                    t.join(timeout=1.0)
            """
        )
        assert len(report.races) == 1
        assert "fixture.Link.sock" in report.races[0].message
        assert any("pump" in s for s in report.races[0].sites)


class TestMutantSelfTest:
    def test_mutant_is_found_and_names_both_paths(self):
        report = analyze_source(mutant_source(), "mutant.py")
        assert report.findings, "the seeded inversion must be found"
        assert len(report.cycles) == 1
        finding = report.cycles[0]
        joined = "\n".join(finding.sites)
        # Both acquisition paths, by name.
        assert "Inverted.flip" in joined
        assert "Inverted.flop" in joined
        assert "mutant.Inverted.a" in finding.message
        assert "mutant.Inverted.b" in finding.message

    def test_mutant_report_roundtrips_as_json(self):
        doc = analyze_source(mutant_source(), "mutant.py").to_json()
        assert doc["schema"] == "kylix-races-v1"
        assert doc["ok"] is False
        assert doc["cycles"]


class TestPackageClean:
    def test_shipped_package_has_no_findings(self):
        # Pins every real fix this subsystem motivated that still has a
        # lock: the service stats locking, the cache stats snapshot.
        report = analyze_package()
        assert report.findings == [], "\n".join(
            f"{f.kind}: {f.message} {f.sites}" for f in report.findings
        )

    def test_package_lock_graph_is_nesting_free(self):
        # No lock is ever acquired while another is held — the strongest
        # possible deadlock story, worth pinning so a future nested
        # acquisition shows up as a reviewed diff here.
        assert analyze_package().static_edges() == set()

    def test_known_thread_roots_are_discovered(self):
        roots = {r.func for r in analyze_package().roots}
        # A tcp node runs on its one pump: no thread root in net.tcp.
        assert not any(r.startswith("net.tcp.") for r in roots)
        assert "service.service.ReduceService._worker_loop" in roots
        assert "obs.telemetry.WallClockSampler._loop" in roots
        # The escaping-closure rule catches the telemetry sink that runs
        # on the sampler thread.
        assert "net.session.run_node.ship" in roots

    def test_known_locks_are_catalogued(self):
        locks = set(analyze_package().locks)
        assert not any(lock.startswith("net.tcp.") for lock in locks)
        assert "service.service.ReduceService._lock" in locks
        assert "service.cache.ConfigCache._lock" in locks
        assert "net.session.run_node.send_lock" in locks
        # A map of locks, one per key, is catalogued as one lock family.
        report = analyze(
            """
            import threading

            class Links:
                def __init__(self, peers):
                    self.locks = {m: threading.Lock() for m in peers}

                def send(self, m):
                    with self.locks[m]:
                        pass
            """
        )
        assert report.locks == ["fixture.Links.locks[]"]


class TestWatchedLock:
    def test_genuine_inversion_is_witnessed(self):
        wd = LockWatchdog()
        a = WatchedLock("A", wd)
        b = WatchedLock("B", wd)

        def ab():
            with a:
                with b:
                    pass

        t = threading.Thread(target=ab, name="ab-thread")
        t.start()
        t.join(timeout=5.0)
        assert not t.is_alive()
        with b:
            with a:
                pass
        assert len(wd.violations) == 1
        v = wd.violations[0]
        assert v["earlier"] == "B" and v["later"] == "A"
        assert "ab-thread" in v["reverse_threads"]
        report = wd.report()
        assert report["ok"] is False
        assert {(e["src"], e["dst"]) for e in report["edges"]} == {
            ("A", "B"),
            ("B", "A"),
        }

    def test_strict_mode_raises_at_the_acquisition_site(self):
        wd = LockWatchdog(strict=True)
        a = WatchedLock("A", wd)
        b = WatchedLock("B", wd)

        def ab():
            with a:
                with b:
                    pass

        t = threading.Thread(target=ab)
        t.start()
        t.join(timeout=5.0)
        with pytest.raises(LockOrderViolation):
            with b:
                with a:
                    pass

    def test_hold_times_are_recorded(self):
        wd = LockWatchdog()
        a = WatchedLock("A", wd)
        with a:
            pass
        with a:
            pass
        assert wd.holds["A"]["count"] == 2.0
        assert wd.holds["A"]["max_s"] >= 0.0

    def test_consistent_order_is_not_a_violation(self):
        wd = LockWatchdog(strict=True)
        a = WatchedLock("A", wd)
        b = WatchedLock("B", wd)
        for _ in range(3):
            with a:
                with b:
                    pass
        assert wd.violations == []
        assert wd.report()["ok"] is True

    def test_validate_against_static_graph(self):
        wd = LockWatchdog()
        a = WatchedLock("A", wd)
        b = WatchedLock("B", wd)
        with a:
            with b:
                pass
        assert wd.validate_against({("A", "B")}) == []
        assert wd.validate_against(set()) == [("A", "B")]


class TestWatchedLockFactory:
    def test_disabled_returns_a_plain_lock(self, monkeypatch, fresh_watchdog):
        monkeypatch.delenv("REPRO_LOCK_SANITIZER", raising=False)
        lock = watched_lock("service.cache.ConfigCache._lock")
        assert not isinstance(lock, WatchedLock)
        with lock:
            pass

    def test_enabled_returns_a_watched_lock(self, monkeypatch, fresh_watchdog):
        monkeypatch.setenv("REPRO_LOCK_SANITIZER", "1")
        lock = watched_lock("service.cache.ConfigCache._lock")
        assert isinstance(lock, WatchedLock)
        assert lock.name == "service.cache.ConfigCache._lock"
        with lock:
            pass
        assert watchlock_mod.global_watchdog().holds["service.cache.ConfigCache._lock"]["count"] == 1.0

    def test_strict_env_value_arms_strict_mode(self, monkeypatch, fresh_watchdog):
        monkeypatch.setenv("REPRO_LOCK_SANITIZER", "strict")
        watched_lock("x")
        assert watchlock_mod.global_watchdog().strict is True


class TestWitnessRun:
    def test_tcp_loopback_witnesses_zero_violations(self, monkeypatch, fresh_watchdog):
        """The acceptance criterion: a sanitizer-enabled tcp-loopback
        reduce completes with no witnessed lock-order violations, and
        every runtime edge was predicted by the static graph."""
        monkeypatch.setenv("REPRO_LOCK_SANITIZER", "1")
        from repro.allreduce import ReduceSpec, dense_reduce
        from repro.net import TcpKylix

        m, n = 4, 120
        rng = np.random.default_rng(7)
        in_idx = {r: rng.choice(n, size=n // 6, replace=False) for r in range(m)}
        out_idx = {
            r: np.concatenate([rng.choice(n, size=8), np.arange(r, n, m)]).astype(
                np.int64
            )
            for r in range(m)
        }
        spec = ReduceSpec(in_idx, out_idx)
        vals = {r: rng.normal(size=out_idx[r].size) for r in range(m)}
        result = TcpKylix([2, 2]).allreduce(spec, vals)
        expect = dense_reduce(spec, vals)
        for r in spec.ranks:
            np.testing.assert_allclose(result[r], expect[r], atol=1e-9)
        wd = watchlock_mod.global_watchdog()
        assert wd.violations == []
        # Runtime edges must be a subset of the static prediction — and
        # the package's static graph is nesting-free, so the witness run
        # must be too.
        assert wd.validate_against(analyze_package().static_edges()) == []
