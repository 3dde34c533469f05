"""Fig 5: total communication volume per layer — the "Kylix" shape.

Paper claims reproduced here:
* total communication volume decreases from layer to layer;
* the Twitter graph (dense partitions, near-100% collision rate) shrinks
  much faster at lower layers than the sparser Yahoo graph;
* total across all layers is a small constant times the top layer
  ("close to optimal");
* measured volumes match the Proposition 4.1 analytic prediction.
"""

from conftest import emit

from repro.bench import run_fig5


def _check_common(result):
    vols = result.column("volume")
    # Strictly decreasing volume down the layers (the goblet shape).
    assert all(a > b for a, b in zip(vols, vols[1:])), vols
    # Total across layers is a small constant times the top layer.
    assert sum(vols[:-1]) < 3.0 * vols[0]
    # Prop 4.1 agreement within 10% per layer.
    for measured, predicted in zip(vols, result.column("predicted")):
        assert abs(measured - predicted) / predicted < 0.10


def test_fig5_twitter(benchmark, twitter64):
    result = benchmark.pedantic(
        run_fig5, args=(twitter64, [8, 4, 2]), rounds=1, iterations=1
    )
    emit(result.table())
    _check_common(result)


def test_fig5_yahoo(benchmark, yahoo64):
    result = benchmark.pedantic(run_fig5, args=(yahoo64, [16, 4]), rounds=1, iterations=1)
    emit(result.table())
    _check_common(result)


def test_fig5_twitter_shrinks_faster_than_yahoo(benchmark, twitter64, yahoo64):
    """Dense partitions collide more, so volume collapses faster (§VII-A)."""
    tw = benchmark.pedantic(run_fig5, args=(twitter64, [8, 4, 2]), rounds=1, iterations=1)
    ya = run_fig5(yahoo64, [16, 4])
    tw_vols, ya_vols = tw.column("volume"), ya.column("volume")
    # Ratio of second layer to first: Twitter shrinks harder.
    assert tw_vols[1] / tw_vols[0] < ya_vols[1] / ya_vols[0]
