"""§IV design workflow: optimal degrees from (n, α, D₀) at paper scale.

Paper claims reproduced here:
* Twitter (n=60M, D₀=0.21): optimal degrees 8 x 4 x 2 on 64 nodes —
  reproduced exactly at the paper's 5 MB packet floor;
* Yahoo (n=1.4B, D₀=0.035): optimal degrees 16 x 4 — our greedy needs a
  6.2 MB floor to match exactly (at 5 MB it returns the equally-shallow
  32 x 2); both reproduce the qualitative rule that sparser data takes a
  wider first layer and fewer layers;
* degrees decrease down the layers (§I).
"""

import numpy as np
from conftest import emit

from repro.bench import run_design_workflow


def test_design_workflow_reproduces_paper_degrees(benchmark):
    result = benchmark.pedantic(run_design_workflow, rounds=1, iterations=1)
    emit(result.table())
    assert result.row(dataset="twitter")["workflow_degrees"] == (8, 4, 2)
    assert result.row(dataset="yahoo")["workflow_degrees"] == (16, 4)

    for degs in result.column("workflow_degrees"):
        # multiply out to the cluster size
        assert int(np.prod(degs)) == 64
        # non-increasing down the stack
        assert all(a >= b for a, b in zip(degs, degs[1:]))
