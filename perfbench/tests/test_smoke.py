"""Smoke test of the benchmark itself (not part of the repo's tier-1 suite).

Run from the root of a checkout::

    python -m pytest perfbench/tests -q

Every workload runs with ``--quick`` (op counts divided by ten, sizes intact)
in both passes; what it prints must be exactly what ``BENCHMARK.json`` names.
"""

import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.compare import verdict  # noqa: E402
from perfbench.run import run_workload  # noqa: E402
from perfbench.workloads import WORKLOADS, generate, input_sha256  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "-m", "perfbench", "run", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_registry():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why and len(w["why"]) <= 200
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in BENCH["end_to_end"] + BENCH["per_layer"])
    assert "setup_s" in {m["name"] for m in BENCH["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--quick", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    if trace:
        doc = json.loads((ROOT / "perfbench" / "out" / f"{workload}.trace.json").read_text())
        assert {"name", "start", "end", "parent", "op"} <= set(doc["spans"][0])


@pytest.mark.parametrize("workload", ("local4_small", "tcp4_small"))
def test_forked_workloads_leave_no_child_and_no_fd_behind(workload):
    run_workload(workload, quick=True)  # first run imports and warms whatever caches fds
    fds = len(os.listdir("/proc/self/fd"))
    result = run_workload(workload, quick=True)
    assert result["correct"]
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


def test_same_seed_same_inputs():
    shape = WORKLOADS["local4_small"].shape
    assert input_sha256(generate(3, shape)) == input_sha256(generate(3, shape))
    assert input_sha256(generate(3, shape)) != input_sha256(generate(4, shape))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    proc = _run(tmp_path, "--workload", "sim64_small", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert verdict(base, base, "lower", 0.10)[0] == "same"
    assert verdict(base, [x * 1.2 for x in base], "lower", 0.10)[0] == "worse"
    assert verdict(base, [x * 0.8 for x in base], "lower", 0.10)[0] == "better"
    assert verdict(base, [x * 0.8 for x in base], "higher", 0.10)[0] == "worse"
    assert verdict(base, [8.0, 12.0, 9.0, 11.0, 10.0], "lower", 0.10)[0] == "unresolved"
