"""Tests for the ``python -m repro`` CLI and the run_all regenerator."""

import pytest

from repro.__main__ import COMMANDS, main as cli_main
from repro.bench.run_all import main as run_all_main


class TestCLI:
    def test_help_renders_the_commands_table(self, capsys):
        assert cli_main([]) == 0
        out = capsys.readouterr().out
        for cmd, (_, desc) in COMMANDS.items():
            assert cmd in out and desc in out
        assert cli_main(["--help"]) == 0

    def test_info(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Kylix" in out and "8, 4, 2" in out

    def test_demo_runs_and_is_exact(self, capsys):
        assert cli_main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "exact: yes" in out
        assert "Kylix shape" in out

    def test_unknown_command_names_itself_and_shows_the_table(self, capsys):
        assert cli_main(["nope"]) == 2
        out = capsys.readouterr().out
        assert "unknown command 'nope'" in out
        for cmd in COMMANDS:
            assert cmd in out

    def test_trace_writes_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert cli_main(
            ["trace", "quickstart", "--backend", "sim",
             "--out", str(out), "--metrics", str(metrics)]
        ) == 0
        printed = capsys.readouterr().out
        assert "exact vs dense reference: yes" in printed
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        phases = {ev.get("args", {}).get("phase") for ev in doc["traceEvents"]}
        assert {"config", "reduce_down", "gather_up"} <= phases
        flat = json.loads(metrics.read_text())
        assert flat["metrics"]["counters"]["net.bytes"]

    def test_trace_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["trace", "quickstart", "--backend", "mpi"])

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["trace", "quickstart", "--kill", "99:down:1"], "node 99"),
            (["trace", "quickstart", "--backend", "local", "--kill", "1:config:1"], "node 1"),
            (["trace", "quickstart", "--kill", "1:sideways:1"], "sideways"),
            (["certify", "--nodes", "8", "--faults", "kill:99:down:1"], "node 99"),
            (["certify", "--nodes", "8", "--faults", "kill:2:down"], "kill:2:down"),
        ],
    )
    def test_kill_specs_share_one_parser_and_a_node_range(self, capsys, tmp_path, argv, named):
        """``trace --kill`` and ``certify --faults`` parse one spec: a bad
        one, a node outside the cluster, or a kill the backend never runs
        is a usage error naming what is wrong, not a traceback."""
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + (["--out", str(tmp_path / "t.json")] if argv[0] == "trace" else []))
        assert exc.value.code == 2
        assert named in capsys.readouterr().err

    def test_trace_config_kill_on_sim_is_exact_within_the_bound(self, capsys, tmp_path):
        argv = ["trace", "quickstart", "--kill", "1:config:1", "--out", str(tmp_path / "t.json")]
        assert cli_main(argv) == 0
        printed = capsys.readouterr().out
        assert "exact vs dense reference: yes" in printed
        assert "coverage within the static worst-case bound" in printed

    def test_experiments_dispatch(self, capsys):
        assert cli_main(["experiments", "design"]) == 0
        out = capsys.readouterr().out
        assert "8x4x2" in out

    def test_analyze_reads_a_trace_file(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert cli_main(
            ["trace", "straggler", "--backend", "sim", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert cli_main(["analyze", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "critical path" in printed and "straggler: node 5 (link)" in printed
        assert "goblet" in printed

    def test_analyze_unreadable_input(self, capsys, tmp_path):
        assert cli_main(["analyze", str(tmp_path / "nope.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert cli_main(["analyze", str(bad)]) == 2
        notrace = tmp_path / "notrace.json"
        notrace.write_text('{"hello": 1}')
        assert cli_main(["analyze", str(notrace)]) == 2

    def test_explore_acceptance_config_is_exhaustive(self, capsys):
        assert cli_main(
            ["explore", "--nodes", "4", "--degrees", "2,2", "--bound", "10000"]
        ) == 0
        out = capsys.readouterr().out
        assert "exhaustive" in out
        assert "satisfy every checked property" in out

    def test_explore_mutant_exits_one_with_artifacts(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        ce = tmp_path / "counterexample.json"
        trace = tmp_path / "ce-trace.json"
        assert cli_main(
            ["explore", "--mutant", "--out", str(ce), "--trace-out", str(trace)]
        ) == 1
        out = capsys.readouterr().out
        assert "VIOLATION [deadlock]" in out
        doc = json.loads(ce.read_text())
        assert doc["violation"]["kind"] == "deadlock"
        assert validate_chrome_trace(json.loads(trace.read_text())) == []

    def test_explore_rejects_bad_nodes(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["explore", "--nodes", "1"])

    def test_serve_sheds_load_past_the_queue_bound(self, capsys):
        argv = ["serve", "--nodes", "4", "--degrees", "2,2", "--n", "200",
                "--reduces", "6", "--queue-depth", "2"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "6 submitted, 2 rejected" in out and "exact: yes" in out

    def test_perf_is_an_unknown_command(self, capsys):
        # The simulator's figures are golden tests; perfbench times the code.
        assert cli_main(["perf", "quickstart"]) == 2
        assert "unknown command 'perf'" in capsys.readouterr().out

    def test_monitor_once_writes_telemetry_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "telemetry.json"
        assert cli_main(
            ["monitor", "quickstart", "--once", "--out", str(out)]
        ) == 0
        printed = capsys.readouterr().out
        assert "telemetry —" in printed  # the dashboard header
        doc = json.loads(out.read_text())
        assert doc["schema"] == "kylix-telemetry-v1"
        assert doc["samples"] > 1
        assert any(s["metric"] == "net.bytes" for s in doc["series"])

    def test_monitor_same_seed_documents_identical(self, capsys, tmp_path):
        """The CI determinism gate in miniature: two same-seed sim runs
        write byte-identical telemetry documents."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert cli_main(
                ["monitor", "quickstart", "--seed", "7", "--once",
                 "--out", str(path)]
            ) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_monitor_rejects_bad_interval(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["monitor", "--interval", "0"])

    def test_monitor_rejects_missing_manifest(self, capsys):
        assert cli_main(["monitor", "--attach", "/nonexistent.json"]) == 2
        assert "cannot load" in capsys.readouterr().out


class TestDocsPins:
    """The CLI table in docs/observability.md mirrors repro.__main__.COMMANDS
    (the module docstring promises the test suite keeps them in sync)."""

    def test_docs_commands_table_matches_cli(self):
        import re
        from pathlib import Path

        docs = Path(__file__).resolve().parents[1] / "docs" / "observability.md"
        text = docs.read_text()
        table_rows = re.findall(r"^\| `([a-z-]+)` \|", text, flags=re.MULTILINE)
        assert table_rows, "the COMMANDS table went missing from the docs"
        assert set(table_rows) == set(COMMANDS)
        # the table preserves the CLI's own ordering
        assert table_rows == list(COMMANDS)

    def test_readme_cross_links_certification(self):
        from pathlib import Path

        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text()
        assert "certify" in text
        assert "docs/verify.md" in text


class TestRunAll:
    def test_unknown_experiment_rejected(self, capsys):
        assert run_all_main(["not-a-figure"]) == 2

    def test_fast_experiments(self, capsys):
        assert run_all_main(["fig2", "fig4", "design"]) == 0
        out = capsys.readouterr().out
        assert "Fig 2" in out and "Fig 4" in out and "design workflow" in out

    def test_json_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "out.json"
        assert run_all_main(["--json", str(path), "fig2", "design"]) == 0
        data = json.loads(path.read_text())
        assert set(data) == {"fig2", "design"}
        assert len(data["fig2"][0]["rows"]) > 5
        picks = {r["dataset"]: r["workflow_degrees"] for r in data["design"][0]["rows"]}
        assert picks["twitter"] == [8, 4, 2]

    def test_json_missing_path(self, capsys):
        assert run_all_main(["--json"]) == 2
