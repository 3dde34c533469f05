"""Fig 2: effective throughput vs packet size on the EC2-like fabric.

Paper claims reproduced here:
* there is a minimum efficient packet size ~5 MB on the 10 Gb/s fabric;
* 0.4 MB packets (direct allreduce's Twitter packet at 64 nodes) achieve
  only ~30% of peak bandwidth;
* the fabric's *measured* behaviour matches the analytic curve.
"""

import numpy as np
from conftest import emit

from repro.bench import run_fig2
from repro.netmodel import EC2_LIKE


def test_fig2_packet_throughput(benchmark):
    result = benchmark.pedantic(run_fig2, rounds=1, iterations=1)
    emit(result.table())
    utils = result.column("utilization")

    def utilization_at(size):
        return float(np.interp(size, result.column("packet_bytes"), utils))

    # ~30% utilization at the paper's 0.4MB anchor.
    u_small = utilization_at(0.4e6)
    assert 0.2 < u_small < 0.45, f"0.4MB packets at {u_small:.0%}, expected ~30%"

    # ~5MB packets approach saturation (>= 80% of peak).
    u_eff = utilization_at(5e6)
    assert u_eff > 0.8, f"5MB packets at {u_eff:.0%}, expected near-saturation"

    # The curve is monotone increasing in packet size.
    assert all(a <= b + 0.02 for a, b in zip(utils, utils[1:]))

    # Analytic model and fabric measurement agree within 30% everywhere.
    for row in result.rows:
        model_tput, measured = row["model_Bps"], row["measured_Bps"]
        assert abs(measured - model_tput) / model_tput < 0.30, (
            f"fabric deviates from model at {row['packet_bytes']:.0f}B"
        )

    # The closed-form minimum efficient packet is in the single-MB range.
    assert 1e6 < EC2_LIKE.min_efficient_packet(0.85) < 10e6
