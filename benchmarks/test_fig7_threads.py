"""Fig 7: allreduce runtime vs sender/receiver thread count (8x4x2).

Paper claims reproduced here:
* "significant performance improvement can be observed by increasing
  from single thread up to 4 threads";
* "the benefit of adding thread level is marginal beyond 16 threads"
  (each machine has 16 hardware threads).
"""

from conftest import emit

from repro.bench import run_fig7


def test_fig7_thread_sweep(benchmark, twitter64):
    result = benchmark.pedantic(
        run_fig7,
        args=(twitter64, [8, 4, 2]),
        kwargs={"threads": (1, 2, 4, 8, 16, 32)},
        rounds=1,
        iterations=1,
    )
    emit(result.table())

    t1, t4, t16, t32 = (result.row(threads=t)["reduce_s"] for t in (1, 4, 16, 32))

    # Big win from 1 -> 4 threads.
    assert t4 < 0.75 * t1, f"1->4 threads only {t1 / t4:.2f}x"

    # Marginal past 16: within 15% of the 16-thread time either way.
    assert abs(t32 - t16) / t16 < 0.15

    # 16 threads comparable to or better than 4 (jitter tolerance 15%).
    assert t16 <= t4 * 1.15
