"""perfbench: the wall-clock, layer-by-layer benchmark of the Kylix reproduction.

``python -m perfbench run`` measures seven workloads end to end (tracing off)
or layer by layer (``--trace 1``); ``python -m perfbench compare A B`` turns
two directories of results into per-metric verdicts.  The benchmark drives the
program only through its public API and generates its own inputs; see
``perfbench/README.md`` for the metric glossary and the layer → metric →
workload table.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    The program under test is always the one in the same checkout, never an
    installed copy; without it the benchmark has nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path[:1]:
        sys.path.insert(0, str(SRC))
