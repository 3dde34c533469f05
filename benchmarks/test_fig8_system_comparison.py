"""Fig 8: PageRank per-iteration runtime — Kylix vs PowerGraph vs Hadoop.

Paper claims reproduced here:
* Kylix runs PageRank 3-7x faster than PowerGraph on the same cluster
  (direct all-to-all messaging + slower GAS-engine kernels);
* Kylix is orders of magnitude (~500x, log-scale figure) faster than
  Hadoop/Pegasus, whose runtime the paper itself *estimates* from a
  published anchor — our cost model validates against the same anchor;
* Kylix's absolute per-iteration time, extrapolated back to paper scale,
  lands near the published 0.55 s (Twitter) / 2.5 s (Yahoo).
"""

from conftest import emit

from repro.baselines import HadoopCostModel
from repro.bench import PAPER, run_fig8

POWERGRAPH = "PowerGraph-like (measured, scaled data)"
KYLIX_PAPER = "Kylix (extrapolated to paper scale)"
HADOOP = "Hadoop/Pegasus (cost model, paper scale)"


def test_fig8_twitter(benchmark, twitter64):
    result = benchmark.pedantic(
        run_fig8,
        args=(twitter64, [8, 4, 2]),
        kwargs={"paper_edges": PAPER["twitter"]["n_edges"]},
        rounds=1,
        iterations=1,
    )
    emit(result.table())
    vs_powergraph = result.row(system=POWERGRAPH)["vs_kylix"]

    # Kylix beats the PowerGraph-like baseline by the paper's 3-7x.
    assert 2.5 < vs_powergraph < 8.0, f"{vs_powergraph:.1f}x"

    # Extrapolated Kylix lands within ~3x of the published 0.55 s/iter.
    paper_t = PAPER["twitter"]["pagerank_s_per_iter"]
    assert paper_t / 3 < result.row(system=KYLIX_PAPER)["s_per_iter"] < paper_t * 3

    # Hadoop is orders of magnitude behind (>= 100x; paper ~500x on a
    # log-scale axis).
    assert result.row(system=HADOOP)["vs_kylix"] > 100


def test_fig8_yahoo(benchmark, yahoo64):
    result = benchmark.pedantic(
        run_fig8, args=(yahoo64, [16, 4]),
        kwargs={"paper_edges": PAPER["yahoo"]["n_edges"]}, rounds=1, iterations=1,
    )
    emit(result.table())
    assert 1.5 < result.row(system=POWERGRAPH)["vs_kylix"] < 8.0
    assert result.row(system=HADOOP)["vs_kylix"] > 100


def test_hadoop_model_validates_against_pegasus_anchor(benchmark):
    """The paper estimates Pegasus by linear scaling from one published
    point; our cost model must reproduce that anchor."""
    model = benchmark.pedantic(HadoopCostModel, rounds=1, iterations=1)
    assert model.validates_against_pegasus(tolerance=0.25)
