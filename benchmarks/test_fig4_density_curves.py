"""Fig 4: vector density vs normalized scaling factor λ/λ₀.₉.

Paper claims reproduced here:
* density rises monotonically with the scaling factor and saturates at 1;
* "the shape of the curve has only a modest dependence on α" over the
  real-world range α ∈ [0.5, 2];
* at the normalisation point λ = λ₀.₉ every curve passes through 0.9.
"""

import numpy as np
from conftest import emit

from repro.bench import run_fig4

ALPHAS = (0.5, 1.0, 1.5, 2.0)


def test_fig4_density_curves(benchmark):
    result = benchmark.pedantic(
        run_fig4, kwargs={"alphas": ALPHAS, "points": 13},
        rounds=1, iterations=1,
    )
    emit(result.table())

    for a in ALPHAS:
        series = np.array(result.column(f"alpha={a}"))
        # monotone, bounded
        assert np.all(np.diff(series) >= -1e-12)
        assert series[0] < 0.05 and series[-1] <= 1.0
        # passes through 0.9 at the normalization point (λ/λ0.9 = 1)
        at_one = float(
            np.interp(0.0, np.log10(result.column("lambda_norm")), series)
        )
        assert abs(at_one - 0.9) < 0.02

    # Modest α dependence: curves stay within a band of each other.
    stack = np.array([result.column(f"alpha={a}") for a in ALPHAS])
    spread = (stack.max(axis=0) - stack.min(axis=0)).max()
    assert spread < 0.45, f"α-dependence too strong ({spread:.2f})"
