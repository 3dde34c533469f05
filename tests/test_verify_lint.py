"""The custom AST lint: every rule fires on a seeded fixture, and the
shipped package itself lints clean."""

import textwrap

import pytest

from repro.__main__ import main as cli_main
from repro.verify import all_rules, lint_file, lint_paths
from repro.verify.lint import package_root
from repro.verify.rules import (
    ExplicitDtypeRule,
    ModuleExportsRule,
    NoBareAssertRule,
    NoBroadExceptRule,
    NoMutableDefaultArgRule,
    NoPrintRule,
    NoUnboundedQueueRule,
    NoUnseededRngRule,
    NoWallClockRule,
    SocketTimeoutRule,
    SpanBalanceRule,
)


def write_fixture(tmp_path, source, name="fixture.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


def rules_fired(findings):
    return {f.rule for f in findings}


class TestRuleFixtures:
    def test_no_bare_assert_fires(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []

            def guard(x):
                assert x > 0, "stripped under -O"
            """,
        )
        findings = lint_file(path, [NoBareAssertRule()], relpath="allreduce/fixture.py")
        assert rules_fired(findings) == {"no-bare-assert"}
        assert findings[0].line == 5

    def test_no_wall_clock_fires_in_scope(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []
            import time

            def now():
                return time.perf_counter()
            """,
        )
        findings = lint_file(path, [NoWallClockRule()], relpath="simul/fixture.py")
        assert rules_fired(findings) == {"no-wall-clock"}

    def test_no_wall_clock_out_of_scope_is_clean(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []
            import time

            def now():
                return time.perf_counter()
            """,
        )
        # bench/ may read the host clock (it times real kernels)
        assert lint_file(path, [NoWallClockRule()], relpath="bench/fixture.py") == []

    def test_no_unseeded_rng_fires_on_default_rng(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []
            import numpy as np

            def draw():
                return np.random.default_rng().normal()
            """,
        )
        findings = lint_file(path, [NoUnseededRngRule()], relpath="allreduce/fixture.py")
        assert rules_fired(findings) == {"no-unseeded-rng"}

    def test_no_unseeded_rng_fires_on_global_state(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []
            import random
            import numpy as np

            def draw():
                np.random.shuffle([1, 2])
                return random.random()
            """,
        )
        findings = lint_file(path, [NoUnseededRngRule()], relpath="simul/fixture.py")
        assert len(findings) == 2

    def test_seeded_rng_is_clean(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []
            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                gen = np.random.Generator(np.random.PCG64(seed))
                return rng.normal() + gen.normal()
            """,
        )
        assert lint_file(path, [NoUnseededRngRule()], relpath="simul/fixture.py") == []

    def test_explicit_dtype_fires(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []
            import numpy as np

            def accumulator(n):
                return np.zeros(n), np.full(n, 0)
            """,
        )
        findings = lint_file(path, [ExplicitDtypeRule()], relpath="sparse/fixture.py")
        assert len(findings) == 2
        assert rules_fired(findings) == {"explicit-dtype"}

    def test_explicit_dtype_accepts_positional_and_keyword(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []
            import numpy as np

            def accumulator(n, dt):
                return np.zeros(n, bool), np.full(n, 0, dt), np.empty(n, dtype=dt)
            """,
        )
        assert lint_file(path, [ExplicitDtypeRule()], relpath="sparse/fixture.py") == []

    def test_module_exports_fires(self, tmp_path):
        path = write_fixture(tmp_path, "def api():\n    return 1\n")
        findings = lint_file(path, [ModuleExportsRule()], relpath="data/fixture.py")
        assert rules_fired(findings) == {"module-exports"}

    def test_no_print_fires_in_library_code(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []

            def report(x):
                print("progress:", x)
            """,
        )
        findings = lint_file(path, [NoPrintRule()], relpath="cluster/fixture.py")
        assert rules_fired(findings) == {"no-print"}
        assert findings[0].line == 5

    def test_no_print_exempts_cli_faces(self, tmp_path):
        source = """
            __all__ = []

            def main():
                print("table output")
            """
        path = write_fixture(tmp_path, source)
        assert lint_file(path, [NoPrintRule()], relpath="__main__.py") == []
        # The CLI is the one face: a bench module prints nothing.
        findings = lint_file(path, [NoPrintRule()], relpath="bench/experiments.py")
        assert rules_fired(findings) == {"no-print"}

    def test_suppression_comment_skips_finding(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []

            def guard(x):
                assert x > 0  # intentional: test helper -- lint: ok
            """,
        )
        assert lint_file(path, [NoBareAssertRule()], relpath="allreduce/fixture.py") == []

    def test_no_broad_except_fires_on_swallow(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []

            def swallow(op):
                try:
                    op()
                except Exception:
                    pass
            """,
        )
        findings = lint_file(path, [NoBroadExceptRule()], relpath="cluster/fixture.py")
        assert rules_fired(findings) == {"no-broad-except"}
        assert findings[0].line == 7

    def test_no_broad_except_fires_on_bare_except(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []

            def swallow(op):
                try:
                    op()
                except:
                    return None
            """,
        )
        findings = lint_file(path, [NoBroadExceptRule()], relpath="cluster/fixture.py")
        assert rules_fired(findings) == {"no-broad-except"}

    def test_no_broad_except_allows_reraise_log_and_use(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []

            def translate(op, log, sink):
                try:
                    op()
                except Exception as exc:
                    raise RuntimeError("typed") from exc
                try:
                    op()
                except Exception:
                    log.warning("op failed")
                try:
                    op()
                except Exception as exc:
                    sink.append(exc)
                try:
                    op()
                except ValueError:
                    pass
            """,
        )
        assert lint_file(path, [NoBroadExceptRule()], relpath="cluster/fixture.py") == []

    def test_no_broad_except_exempts_cli_faces(self, tmp_path):
        source = """
            __all__ = []

            def entry(op):
                try:
                    op()
                except Exception:
                    return 1
            """
        path = write_fixture(tmp_path, source)
        assert lint_file(path, [NoBroadExceptRule()], relpath="__main__.py") == []
        findings = lint_file(path, [NoBroadExceptRule()], relpath="obs/fixture.py")
        assert rules_fired(findings) == {"no-broad-except"}

    def test_no_broad_except_suppressed_with_lint_ok(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []

            def best_effort(op):
                try:
                    op()
                except Exception:  # best-effort cleanup -- lint: ok
                    pass
            """,
        )
        assert lint_file(path, [NoBroadExceptRule()], relpath="cluster/fixture.py") == []

    def test_no_mutable_default_fires_on_literals(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []

            def collect(x, acc=[], index={}, seen=set(), tags=list()):
                acc.append(x)
                return acc, index, seen, tags
            """,
        )
        findings = lint_file(
            path, [NoMutableDefaultArgRule()], relpath="cluster/fixture.py"
        )
        assert rules_fired(findings) == {"no-mutable-default-arg"}
        assert len(findings) == 4

    def test_no_mutable_default_fires_on_kwonly_defaults(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []

            def collect(x, *, acc={}):
                return acc
            """,
        )
        findings = lint_file(
            path, [NoMutableDefaultArgRule()], relpath="obs/fixture.py"
        )
        assert rules_fired(findings) == {"no-mutable-default-arg"}

    def test_immutable_defaults_are_clean(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []

            def collect(x, acc=None, shape=(), name="x", k=0, flag=False):
                return acc if acc is not None else [x]
            """,
        )
        assert lint_file(
            path, [NoMutableDefaultArgRule()], relpath="cluster/fixture.py"
        ) == []

    def test_span_balance_fires_on_unended_token(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []

            def work(obs):
                token = obs.begin("step", node=0)
                return token is None
            """,
        )
        findings = lint_file(path, [SpanBalanceRule()], relpath="obs/fixture.py")
        assert rules_fired(findings) == {"span-balance"}
        assert "token" in findings[0].message

    def test_span_balance_fires_on_discarded_begin(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []

            def work(obs):
                obs.begin("step", node=0)
            """,
        )
        findings = lint_file(path, [SpanBalanceRule()], relpath="obs/fixture.py")
        assert rules_fired(findings) == {"span-balance"}

    def test_span_balance_accepts_matched_pair_and_ctx_manager(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []

            def balanced(obs, clock):
                token = obs.begin("step", node=0)
                try:
                    clock.tick()
                finally:
                    obs.end(token)

            def managed(obs, clock):
                with obs.span("step", node=0):
                    clock.tick()
            """,
        )
        assert lint_file(path, [SpanBalanceRule()], relpath="obs/fixture.py") == []

    def test_span_balance_exempts_cli_faces(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []

            def main(obs):
                obs.begin("step", node=0)
            """,
        )
        assert lint_file(path, [SpanBalanceRule()], relpath="__main__.py") == []

    def test_socket_timeout_fires_on_bare_socket(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []
            import socket

            def listen(port):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                s.bind(("127.0.0.1", port))
                return s
            """,
        )
        findings = lint_file(path, [SocketTimeoutRule()], relpath="net/fixture.py")
        assert rules_fired(findings) == {"socket-timeout"}

    def test_socket_timeout_fires_on_untimed_create_connection(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []
            import socket

            def dial(addr):
                return socket.create_connection(addr)
            """,
        )
        findings = lint_file(path, [SocketTimeoutRule()], relpath="net/fixture.py")
        assert rules_fired(findings) == {"socket-timeout"}

    def test_socket_timeout_accepts_timed_sockets(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []
            import socket

            def listen(port):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                s.settimeout(0.1)
                s.bind(("127.0.0.1", port))
                return s

            def dial(addr):
                return socket.create_connection(addr, timeout=1.0)
            """,
        )
        assert lint_file(path, [SocketTimeoutRule()], relpath="net/fixture.py") == []

    def test_socket_timeout_scoped_to_net(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []
            import socket

            def dial(addr):
                return socket.create_connection(addr)
            """,
        )
        assert lint_file(path, [SocketTimeoutRule()], relpath="obs/fixture.py") == []

    def test_no_unbounded_queue_fires_on_unbounded_ctors(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []
            import collections
            import queue

            def build():
                a = queue.Queue()
                b = queue.Queue(maxsize=0)
                c = collections.deque()
                return a, b, c
            """,
        )
        findings = lint_file(
            path, [NoUnboundedQueueRule()], relpath="service/fixture.py"
        )
        assert rules_fired(findings) == {"no-unbounded-queue"}
        assert len(findings) == 3

    def test_no_unbounded_queue_accepts_bounded_ctors(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []
            import collections
            import queue

            def build(depth):
                a = queue.Queue(maxsize=depth)
                b = queue.LifoQueue(8)
                c = collections.deque(maxlen=16)
                return a, b, c
            """,
        )
        assert (
            lint_file(path, [NoUnboundedQueueRule()], relpath="service/fixture.py")
            == []
        )

    def test_no_unbounded_queue_scoped_to_service(self, tmp_path):
        path = write_fixture(
            tmp_path,
            """
            __all__ = []
            import queue

            def build():
                return queue.Queue()
            """,
        )
        assert (
            lint_file(path, [NoUnboundedQueueRule()], relpath="obs/fixture.py") == []
        )

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        path = write_fixture(tmp_path, "def broken(:\n")
        findings = lint_file(path)
        assert rules_fired(findings) == {"syntax"}


class TestPackageClean:
    def test_shipped_package_lints_clean(self):
        findings = lint_paths([package_root()])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_every_rule_has_name_and_description(self):
        for rule in all_rules():
            assert rule.name and rule.description

    def test_rule_registry_is_complete(self):
        names = {r.name for r in all_rules()}
        assert names == {
            "no-bare-assert",
            "no-broad-except",
            "no-wall-clock",
            "no-unseeded-rng",
            "explicit-dtype",
            "module-exports",
            "explicit-timeout",
            "no-mutable-default-arg",
            "no-print",
            "no-unbounded-queue",
            "socket-timeout",
            "span-balance",
        }


class TestLintCLI:
    def test_lint_clean_package_exits_zero(self, capsys):
        assert cli_main(["lint"]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_lint_finds_violations_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "allreduce"
        bad.mkdir()
        (bad / "broken.py").write_text("def f(x):\n    assert x\n")
        assert cli_main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "no-bare-assert" in out and "module-exports" in out
