"""The quickstart measurement: its shape, its determinism, and that the
current code passes the committed gate.

The measurement is ``test_experiment_golden.run_experiment`` (trace,
goblet, critical path, merge seconds, plan certificate) and the
committed gate is that file's ``GOLDEN`` literals.
"""

import pytest

from test_experiment_golden import GOLDEN, SEED, run_experiment

METRIC_SECONDS = ("sim_seconds", "critical_path_seconds", "merge_seconds")


@pytest.fixture(scope="module")
def record():
    return run_experiment("quickstart")


class TestMeasure:
    def test_record_shape(self, record):
        assert SEED == 0
        assert record["exact"] is True
        # Every metric the measurement records has a golden pin.
        assert set(record) == set(GOLDEN["quickstart"])
        assert record["total_bytes"] > 0 and record["total_messages"] > 0
        assert float(record["merge_seconds"]) > 0
        assert float(record["critical_path_seconds"]) > 0
        assert set(record["layer_bytes"]) == {"L1", "L2"}

    def test_sim_metrics_are_deterministic(self, record):
        again = run_experiment("quickstart")
        for name in METRIC_SECONDS + ("total_bytes", "total_messages", "layer_bytes"):
            assert record[name] == again[name], name


class TestCommittedBaseline:
    def test_current_code_passes_the_committed_gate(self, record):
        assert record == GOLDEN["quickstart"]
