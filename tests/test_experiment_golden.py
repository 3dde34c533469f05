"""Golden values of the named experiments: the numbers the paper's
evaluation is made of, pinned at seed 0.

On the simulator a second is a model output and a count a function of
the seed, so what the evaluation reports — a run's simulated configure +
reduce time and critical path (Fig 6), its merge time, the bytes per
layer (Fig 5's goblet) — is a golden value, not a measurement.
``GOLDEN`` holds them for the ``quickstart``, ``demo`` and ``faults``
experiments of :mod:`repro.obs.runner` and for the service stream of
:func:`repro.service.run_service_benchmark` (64 nodes, 100 same-pattern
reduces).  Counts are compared exactly and simulated seconds by
``repr``, the way ``test_sim_golden.py`` pins the clock.  Each protocol
row also pins the plan certificate's predicted bytes and that the
observed traffic equals the certificate cell for cell (``certified``);
every row pins that the result equals the dense reference (``exact``).

Whether a change made the code *faster* is a wall-clock question:
``python3 -m perfbench`` answers it.

``python tests/test_experiment_golden.py`` prints the current values.
"""

import json
import os

import pytest

from repro.obs.analyze import TraceAnalysis
from repro.obs.runner import run_traced
from repro.service import run_service_benchmark
from repro.verify.flow import certificate_for_experiment, check_traffic

SEED = 0
EXPERIMENTS = ("quickstart", "demo", "faults")


def run_experiment(name):
    obs, info = run_traced(name, backend="sim", seed=SEED)
    analysis = TraceAnalysis.from_observer(obs)
    goblet = analysis.goblet_report()
    cert = certificate_for_experiment(name, seed=SEED)
    return {
        "sim_seconds": repr(float(info["config_seconds"] + info["reduce_seconds"])),
        "critical_path_seconds": repr(analysis.critical_path().total),
        "merge_seconds": repr(analysis.merge_seconds()),
        "total_bytes": int(goblet.total_bytes),
        "total_messages": int(goblet.total_messages),
        "layer_bytes": {f"L{k}": int(v) for k, v in sorted(goblet.layers.items())},
        "predicted_bytes": int(cert.total_bytes),
        "exact": bool(info["exact"]),
        "certified": not check_traffic(cert, info["stats"]),
    }


def run_service():
    rec = run_service_benchmark(seed=SEED)
    return {
        "service_sim_seconds": repr(rec["service_sim_seconds"]),
        "sim_seconds_per_reduce": repr(rec["sim_seconds_per_reduce"]),
        "cache_misses": rec["cache_misses"],
        "exact": rec["exact"],
    }


GOLDEN = {'demo': {'certified': True,
                   'critical_path_seconds': '0.007918614800000001',
                   'exact': True,
                   'layer_bytes': {'L1': 111984, 'L2': 97024, 'L3': 81384},
                   'merge_seconds': '0.0009831599999999877',
                   'predicted_bytes': 580784,
                   'sim_seconds': '0.007918614800000001',
                   'total_bytes': 580784,
                   'total_messages': 384},
          'faults': {'certified': True,
                     'critical_path_seconds': '0.035451310400000005',
                     'exact': True,
                     'layer_bytes': {'L1': 20456, 'L2': 14504},
                     'merge_seconds': '0.00011547999999997566',
                     'predicted_bytes': 64992,
                     'sim_seconds': '0.035451310400000005',
                     'total_bytes': 68352,
                     'total_messages': 152},
          'quickstart': {'certified': True,
                         'critical_path_seconds': '0.005240960799999999',
                         'exact': True,
                         'layer_bytes': {'L1': 17992, 'L2': 14504},
                         'merge_seconds': '0.00011547999999999864',
                         'predicted_bytes': 64992,
                         'sim_seconds': '0.005240960799999999',
                         'total_bytes': 64992,
                         'total_messages': 144},
          'service': {'cache_misses': 1,
                      'exact': True,
                      'service_sim_seconds': '0.2666329236000027',
                      'sim_seconds_per_reduce': '0.0026663292360000266'}}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_golden(name):
    got = run_experiment(name)
    want = GOLDEN[name]
    assert "predicted_bytes" in want  # every protocol row pins its certificate
    assert got["exact"] and got["certified"]
    assert got["sim_seconds"] == want["sim_seconds"]  # repr: every bit
    assert got == want


def test_service_golden():
    got = run_service()  # ~9 s of wall time on a 2-core host
    assert got["exact"]
    assert got == GOLDEN["service"]


def test_hotpath_history_documents_before_after():
    """``BENCH_kylix.json`` is the simulator's hot-path changelog."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCH_kylix.json")) as fh:
        doc = json.load(fh)
    assert list(doc) == ["hotpath_history"]
    entry = doc["hotpath_history"][0]
    assert entry["before_seconds"] > entry["after_seconds"] > 0
    assert "FilterStore" in entry["change"]


if __name__ == "__main__":
    import pprint

    current = {name: run_experiment(name) for name in EXPERIMENTS}
    current["service"] = run_service()
    pprint.pprint(current, width=100)
