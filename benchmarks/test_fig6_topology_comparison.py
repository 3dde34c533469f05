"""Fig 6: config/reduce time — direct vs optimal vs binary butterfly.

Paper claims reproduced here:
* the optimal (heterogeneous) butterfly is the fastest topology on both
  graphs, for configuration and for reduction;
* direct all-to-all is ~3-5x slower on the Twitter graph (its packets sit
  below the minimum efficient size and pay the incast/overhead tax);
* the binary butterfly is also slower (more layers: more latency and more
  replicated routing work).
"""

from conftest import emit

from repro.bench import run_fig6


def test_fig6_twitter(benchmark, twitter64):
    result = benchmark.pedantic(
        run_fig6, args=(twitter64, [8, 4, 2]), rounds=1, iterations=1
    )
    emit(result.table())
    opt = result.row(topology="optimal butterfly")
    direct = result.row(topology="direct")
    binary = result.row(topology="binary butterfly")

    # Optimal butterfly wins overall and on each phase.
    assert opt["total_s"] < direct["total_s"]
    assert opt["total_s"] < binary["total_s"]
    assert opt["reduce_s"] < direct["reduce_s"]
    assert opt["config_s"] < direct["config_s"]

    # Paper: 3-5x vs direct on Twitter; accept the 2.5-6 band.
    ratio = direct["total_s"] / opt["total_s"]
    assert 2.5 < ratio < 6.0, f"direct/optimal = {ratio:.2f}, expected ~3-5x"

    # Binary pays for its extra layers.
    assert binary["total_s"] / opt["total_s"] > 1.3


def test_fig6_yahoo(benchmark, yahoo64):
    result = benchmark.pedantic(run_fig6, args=(yahoo64, [16, 4]), rounds=1, iterations=1)
    emit(result.table())
    opt = result.row(topology="optimal butterfly")
    direct = result.row(topology="direct")
    binary = result.row(topology="binary butterfly")
    assert opt["total_s"] < direct["total_s"]
    assert opt["total_s"] < binary["total_s"]
    ratio = direct["total_s"] / opt["total_s"]
    assert 1.5 < ratio < 6.0, f"direct/optimal = {ratio:.2f}"
