"""Table I: the cost of fault tolerance (replication factor 2 + racing).

Paper claims reproduced here:
* replication increases configuration time by only ~25% and reduction
  time by ~60% versus the unreplicated 64-node network (potentially 2x
  the work, recovered partly by packet racing);
* runtime with failures is "apparently independent of the number of
  failures" (0-3 dead nodes tested);
* the replicated network still returns correct results with dead nodes
  (verified functionally in tests/test_allreduce_variants.py).
"""

from conftest import emit

from repro.bench import run_table1

UNREP64 = "8x4x2 unreplicated (64 nodes)"
UNREP32 = "8x4 unreplicated (32 nodes)"
REP = "8x4 replicated=2 (64 nodes)"


def test_table1_fault_tolerance(benchmark, twitter64, twitter32):
    result = benchmark.pedantic(
        run_table1, args=(twitter64, twitter32), rounds=1, iterations=1
    )
    emit(result.table())

    base64 = result.row(label=UNREP64, dead_nodes=0)
    base32 = result.row(label=UNREP32, dead_nodes=0)
    rep0 = result.row(label=REP, dead_nodes=0)

    # Config overhead modest (paper ~+25%).  Config volume depends on the
    # data partition, so the like-for-like comparison is against the
    # unreplicated network with the same degrees and partition (8x4/32);
    # accept up to +60% and require it clearly below the 2x worst case.
    cfg_over = rep0["config_s"] / base32["config_s"] - 1.0
    assert -0.10 < cfg_over < 0.60, f"config overhead {cfg_over:+.0%}"

    # Reduce overhead vs the optimal unreplicated 64-node network (the
    # paper's first column): ~+60%; accept +30%..+120% (below the 2x
    # worst case thanks to packet racing).
    red_over = rep0["reduce_s"] / base64["reduce_s"] - 1.0
    assert 0.20 < red_over < 1.20, f"reduce overhead {red_over:+.0%}"

    # Runtime flat in the number of dead nodes (within 20%).
    times = [result.row(label=REP, dead_nodes=d) for d in (0, 1, 2, 3)]
    totals = [c["config_s"] + c["reduce_s"] for c in times]
    assert max(totals) / min(totals) < 1.2, totals
