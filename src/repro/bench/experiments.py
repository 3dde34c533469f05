"""Experiment drivers: one function per table/figure in the paper (§VII).

Each function runs the full workload on the simulated cluster and returns
one :class:`~repro.bench.reporting.Table` whose rows hold the raw numbers
and every derived ratio — the ``benchmarks/`` suite calls these, asserts
the paper's qualitative claims (who wins, by roughly what factor, where
volume shrinks) through ``row()`` / ``column()``, and prints ``table()``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..allreduce import KylixAllreduce, binary_degrees
from ..apps.pagerank import DistributedPageRank
from ..baselines import HadoopCostModel, PowerGraphPageRank
from ..cluster import Cluster
from ..data import Dataset, random_edge_partition
from ..design import PowerLawModel, invert_density, optimal_degrees
from ..faults import FaultPlan, LinkFault
from ..netmodel import EC2_LIKE, NetworkParams, throughput_curve
from . import calibration as cal
from .reporting import Table, format_bytes, format_seconds, format_stack

__all__ = [
    "run_fig2",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_table1",
    "run_fig8",
    "run_fig9",
    "scaling_table",
    "run_design_workflow",
    "FIGURES",
]


def _gbps(v: float) -> str:
    return f"{v / 1e9:.3f} GB/s"


def _times(v: float) -> str:
    # Ratios read off a log axis: whole numbers from 100x up.
    return f"{v:.0f}x" if v >= 100 else f"{v:.1f}x"


# ---------------------------------------------------------------------------
# Fig 2 — throughput vs packet size
# ---------------------------------------------------------------------------


def run_fig2(
    params: NetworkParams = EC2_LIKE, sizes: Optional[Sequence[float]] = None
) -> Table:
    """Analytic curve + fabric-measured throughput at each packet size."""
    if sizes is None:
        sizes = np.logspace(np.log10(8 << 10), np.log10(100 << 20), 17)
    model = {p.packet_bytes: p.throughput_bytes_per_s for p in throughput_curve(params, sizes)}
    rows = []
    for size in sizes:
        cluster = Cluster(2, params=params, threads=1)
        k = 4  # a few back-to-back packets

        def proto(node, size=size):
            if node.rank == 0:
                for i in range(k):
                    node.send(1, None, nbytes=int(size), tag=i)
            else:
                for i in range(k):
                    yield node.recv(tag=i)

        cluster.run(proto)
        measured = float(k * size / cluster.now)
        rows.append(
            {"packet_bytes": float(size), "model_Bps": float(model[size]),
             "measured_Bps": measured, "utilization": measured / params.bandwidth}
        )
    return Table(
        "Fig 2: throughput vs packet size (10Gb/s EC2-like fabric)",
        [
            ("packet_bytes", "packet", format_bytes),
            ("model_Bps", "model throughput", _gbps),
            ("measured_Bps", "measured throughput", _gbps),
            ("utilization", "utilization", "{:.1%}".format),
        ],
        rows,
    )


# ---------------------------------------------------------------------------
# Fig 4 — density vs normalized scaling factor
# ---------------------------------------------------------------------------


def run_fig4(
    alphas: Sequence[float] = (0.5, 1.0, 1.5, 2.0),
    n: int = 100_000,
    points: int = 13,
) -> Table:
    """Density curves normalised by λ₀.₉ (where f(λ₀.₉) = 0.9), as in Fig 4.

    One row per point of the λ/λ₀.₉ axis (``lambda_norm``), one
    ``alpha=<α>`` column per density curve.
    """
    from ..design import density

    norm = np.unique(np.append(np.logspace(-4, 1, points), 1.0))  # λ/λ_0.9
    rows = [{"lambda_norm": float(x)} for x in norm]
    for a in alphas:
        lam09 = invert_density(0.9, a, n)
        for row in rows:
            row[f"alpha={a}"] = float(density(row["lambda_norm"] * lam09, a, n))
    return Table(
        "Fig 4: vector density vs normalized scaling factor",
        [("lambda_norm", "lambda/lambda_0.9", "{:.4g}".format)]
        + [(f"alpha={a}", f"alpha={a}", "{:.4f}".format) for a in alphas],
        rows,
    )


# ---------------------------------------------------------------------------
# Fig 5 — total communication volume per layer (the Kylix shape)
# ---------------------------------------------------------------------------


def run_fig5(dataset: Dataset, degrees: Sequence[int]) -> Table:
    """Measure down+up reduce volume per layer, plus the bottom volume.

    Rows run from ``layer="layer 1"`` down and end with
    ``layer="bottom"``, the fully reduced data at the bottom node layer.
    """
    net, _, _ = cal.timed_reduces(dataset, degrees, 1)
    down = net.cluster.stats.bytes_by_layer("reduce_down")
    up = net.cluster.stats.bytes_by_layer("gather_up")
    bottom = sum(p.layers[-1].out_union_size for p in net.plans.values()) * 8
    # Prop 4.1 prediction, in the same units (8-byte values, down+up ≈ 2x
    # down volume at upper layers; we predict the down volume 2x'd).
    elems = dataset.model().layer_node_elements(list(degrees))
    rows = [
        {"layer": f"layer {layer}", "label": f"layer {layer} (d={d})",
         "volume": int(down[layer] + up.get(layer, 0)), "predicted": float(2 * e * dataset.m * 8)}
        for layer, d, e in zip(sorted(down), degrees, elems)
    ]
    rows.append(
        {"layer": "bottom", "label": "bottom (reduced)",
         "volume": int(bottom), "predicted": float(elems[-1] * dataset.m * 8)}
    )
    return Table(
        f"Fig 5: per-layer communication volume — {dataset.name} {format_stack(degrees)}",
        [
            ("label", "layer", str),
            ("volume", "measured volume", format_bytes),
            ("predicted", "Prop 4.1 predicted", format_bytes),
        ],
        rows,
        bars=("layer", "volume", format_bytes),
    )


# ---------------------------------------------------------------------------
# Fig 6 — config/reduce time per topology
# ---------------------------------------------------------------------------


def run_fig6(
    dataset: Dataset, optimal: Sequence[int], *, reduce_iters: int = 3
) -> Table:
    """Direct vs optimal butterfly vs binary butterfly on one dataset."""
    m = dataset.m
    stacks = [
        ("direct", [m]),
        ("optimal butterfly", list(optimal)),
        ("binary butterfly", binary_degrees(m)),
    ]
    rows = []
    for name, degrees in stacks:
        _, config_s, reduce_s = cal.timed_reduces(dataset, degrees, reduce_iters)
        rows.append(
            {"topology": name, "degrees": tuple(degrees), "config_s": config_s,
             "reduce_s": reduce_s, "total_s": config_s + reduce_s}
        )
    total = {row["topology"]: row["total_s"] for row in rows}
    opt = total["optimal butterfly"]
    return Table(
        f"Fig 6: allreduce time by topology — {dataset.name}",
        [
            ("topology", "topology", str),
            ("degrees", "degrees", format_stack),
            ("config_s", "config", format_seconds),
            ("reduce_s", "reduce", format_seconds),
            ("total_s", "total", format_seconds),
        ],
        rows,
        bars=("topology", "total_s", format_seconds),
        note=f"  -> direct/optimal = {total['direct'] / opt:.2f}x, "
        f"binary/optimal = {total['binary butterfly'] / opt:.2f}x",
    )


# ---------------------------------------------------------------------------
# Fig 7 — effect of multi-threading
# ---------------------------------------------------------------------------


def run_fig7(
    dataset: Dataset,
    degrees: Sequence[int],
    threads: Sequence[int] = (1, 2, 4, 8, 16, 32),
) -> Table:
    rows = [
        {"threads": int(t), "reduce_s": cal.timed_reduces(dataset, degrees, 3, threads=t)[2]}
        for t in threads
    ]
    return Table(
        f"Fig 7: allreduce runtime vs thread count — {dataset.name} {format_stack(degrees)}",
        [("threads", "threads", str), ("reduce_s", "allreduce time", format_seconds)],
        rows,
    )


# ---------------------------------------------------------------------------
# Table I — cost of fault tolerance
# ---------------------------------------------------------------------------


def run_table1(
    dataset64: Dataset,
    dataset32: Dataset,
    *,
    degrees64: Sequence[int] = (8, 4, 2),
    degrees32: Sequence[int] = (8, 4),
    failures: Sequence[int] = (0, 1, 2, 3),
    latency_sigma: float = 0.6,
    reduce_iters: int = 2,
    seeds: Sequence[int] = (0, 1, 2),
) -> Table:
    """Unreplicated 64/32-node vs replicated (s=2) with 0–3 dead nodes.

    Latency jitter is on (commodity-cloud conditions) so packet racing has
    variance to exploit, as in the paper's EC2 measurements; each column
    averages over ``seeds`` jitter streams (a configuration pass runs only
    once per network, so single-seed config times are noisy).  The
    paper's columns are rows here, one per ``label`` and ``dead_nodes``.
    """
    def healthy(seed):
        return None

    def deaths(dead):
        return lambda seed: FaultPlan({n: 0.0 for n in range(dead)})

    def stragglers(seed):
        return (
            FaultPlan(seed=seed)
            .with_rule(LinkFault(src=3, delay=2.0e-3))
            .with_rule(LinkFault(src=9, delay=2.0e-3))
        )

    # (label, dead nodes, dataset, degrees, physical nodes, replication,
    # seed -> fault plan).  The replicated columns run s=2 on 64 physical
    # nodes (32 logical), with dead nodes chosen in distinct replica
    # groups.  The last two are extended columns (beyond the paper's
    # grid): the fault classes the repro.faults layer adds.  A
    # step-targeted *mid-run* death — the node crashes right before its
    # first send of the value down-pass, so the retry/NACK machinery plus
    # packet racing must carry the round — and two persistent straggler
    # links (SparCML's favourite adversary).
    columns = [
        ("8x4x2 unreplicated (64 nodes)", 0, dataset64, degrees64, None, 1, healthy),
        ("8x4 unreplicated (32 nodes)", 0, dataset32, degrees32, None, 1, healthy),
        *(
            ("8x4 replicated=2 (64 nodes)", dead, dataset32, degrees32, 64, 2, deaths(dead))
            for dead in failures
        ),
        ("8x4 replicated=2, mid-run death", 1, dataset32, degrees32, 64, 2,
         lambda seed: FaultPlan().kill_at_step(1, "down", 1)),
        ("8x4 replicated=2, 2 straggler links", 0, dataset32, degrees32, 64, 2, stragglers),
    ]
    rows = []
    for label, dead, dataset, degrees, m, replication, plan in columns:
        timings = [
            cal.timed_reduces(
                dataset, degrees, reduce_iters, replication=replication, m=m,
                latency_sigma=latency_sigma, failures=plan(seed), seed=seed,
            )[1:]
            for seed in seeds
        ]
        cfg, red = (float(np.mean(t)) for t in zip(*timings))
        rows.append({"label": label, "dead_nodes": dead, "config_s": cfg, "reduce_s": red})
    return Table(
        "Table I: cost of fault tolerance (replication + packet racing)",
        [
            ("label", "configuration", str),
            ("dead_nodes", "dead", str),
            ("config_s", "config", format_seconds),
            ("reduce_s", "reduce", format_seconds),
        ],
        rows,
    )


# ---------------------------------------------------------------------------
# Fig 8 — PageRank: Kylix vs PowerGraph vs Hadoop
# ---------------------------------------------------------------------------


def run_fig8(
    dataset: Dataset,
    degrees: Sequence[int],
    *,
    iterations: int = 3,
    paper_edges: float = 1.5e9,
) -> Table:
    """Kylix vs PowerGraph on the simulator; Hadoop via the cost model.

    One row per ``system``: ``vs_kylix`` is its time over Kylix's at the
    same scale, ``scale_factor`` how many times the measured data its data
    is (Kylix's paper-scale row is its measured time times that factor).
    """
    cluster = cal.make_cluster(dataset)
    pr = DistributedPageRank(KylixAllreduce(cluster, list(degrees)), dataset.partitions)
    kylix = pr.run(iterations).mean_iteration

    cluster = cal.make_cluster(dataset)
    pg = PowerGraphPageRank(KylixAllreduce(cluster, [cluster.num_nodes]), dataset.partitions)
    powergraph = pg.run(iterations).mean_iteration

    # Extrapolate Kylix to paper scale: overheads were scaled with the
    # data, so measured time grows linearly with per-node bytes.
    scale = float(cal.PAPER["per_node_data_bytes"] / cal.dataset_per_node_bytes(dataset))
    kylix_paper = kylix * scale
    hadoop = HadoopCostModel().seconds_per_iteration(paper_edges, dataset.m)
    systems = [
        ("Kylix (measured, scaled data)", kylix, 1.0, 1.0),
        ("PowerGraph-like (measured, scaled data)", powergraph, powergraph / kylix, 1.0),
        ("Kylix (extrapolated to paper scale)", kylix_paper, 1.0, scale),
        ("Hadoop/Pegasus (cost model, paper scale)", hadoop, hadoop / kylix_paper, scale),
    ]
    return Table(
        f"Fig 8: PageRank runtime per iteration — {dataset.name}",
        [
            ("system", "system", str),
            ("s_per_iter", "s/iteration", format_seconds),
            ("vs_kylix", "vs Kylix", _times),
        ],
        [
            {"system": name, "s_per_iter": t, "vs_kylix": vs, "scale_factor": sf}
            for name, t, vs, sf in systems
        ],
    )


# ---------------------------------------------------------------------------
# Fig 9 — scaling: compute/comm breakdown and speedup vs cluster size
# ---------------------------------------------------------------------------


def run_fig9(
    dataset: Dataset,
    sizes: Sequence[int] = (4, 8, 16, 32, 64),
    *,
    iterations: int = 3,
) -> Table:
    """Per-size optimally-tuned Kylix PageRank with compute/comm breakdown.

    The *same* graph is re-partitioned for each cluster size (Fig 9 fixes
    the dataset and varies machines) and run on identical fabric
    parameters; only the butterfly degrees are re-tuned per size with the
    §IV workflow, exactly as the paper tunes each cluster size.
    """
    # One fixed fabric for every size, anchored at the reference dataset.
    params = cal.scaled_params(dataset)
    # The packet floor scales with the fabric overhead (same rule as
    # scaled_params): floor = min_efficient_packet of this fabric.
    floor = params.min_efficient_packet(0.85) * (cal.BYTES_PER_ELEMENT / 16.0)
    runs = []
    for m in sizes:
        parts = random_edge_partition(dataset.graph, m, seed=7)
        degrees = optimal_degrees(
            replace(dataset, partitions=parts).model(), m,
            min_packet_bytes=floor, bytes_per_element=cal.BYTES_PER_ELEMENT,
        )
        cluster = Cluster(
            m, params=params, threads=16, compute_rate=cal.KYLIX_COMPUTE_RATE, seed=13
        )
        res = DistributedPageRank(KylixAllreduce(cluster, degrees), parts).run(iterations)
        runs.append((m, degrees, res.mean_compute, res.mean_comm))
    return scaling_table(dataset.name, runs)


def scaling_table(
    dataset_name: str, runs: Sequence[Tuple[int, Sequence[int], float, float]]
) -> Table:
    """Fig 9's table from one ``(nodes, degrees, compute_s, comm_s)`` per size.

    ``speedup`` is against the first size; a size whose total is zero
    has ``comm_share`` and ``speedup`` 0.
    """
    rows = []
    for m, degrees, compute_s, comm_s in runs:
        total = compute_s + comm_s
        rows.append(
            {"nodes": int(m), "degrees": tuple(degrees), "compute_s": compute_s,
             "comm_s": comm_s, "total_s": total, "comm_share": comm_s / total if total else 0.0}
        )
    base = rows[0]
    for row in rows:
        row["speedup"] = base["total_s"] / row["total_s"] if row["total_s"] else 0.0
    return Table(
        f"Fig 9: PageRank scaling — {dataset_name} (speedup vs {base['nodes']} nodes)",
        [
            ("nodes", "nodes", str),
            ("degrees", "degrees", format_stack),
            ("compute_s", "compute", format_seconds),
            ("comm_s", "comm", format_seconds),
            ("total_s", "total", format_seconds),
            ("comm_share", "comm share", "{:.0%}".format),
            ("speedup", "speedup", "{:.1f}x".format),
        ],
        rows,
    )


# ---------------------------------------------------------------------------
# §IV workflow validation (optimal degrees at paper scale)
# ---------------------------------------------------------------------------


def run_design_workflow() -> Table:
    """Reproduce the paper's optimal degrees from (n, α, D₀) alone."""
    rows = []
    for name, floor in (("twitter", 5e6), ("yahoo", 6.2e6)):
        p = cal.PAPER[name]
        model = PowerLawModel.from_initial_density(
            p["partition_density"], 0.9, int(p["n_vertices"])
        )
        degs = optimal_degrees(
            model, 64, min_packet_bytes=floor, bytes_per_element=cal.BYTES_PER_ELEMENT
        )
        rows.append(
            {"dataset": name, "paper_degrees": tuple(p["optimal_degrees"]),
             "workflow_degrees": tuple(degs), "min_packet_bytes": floor}
        )
    return Table(
        "§IV design workflow at paper scale",
        [
            ("dataset", "dataset", str),
            ("paper_degrees", "paper degrees", format_stack),
            ("workflow_degrees", "workflow degrees", format_stack),
            ("min_packet_bytes", "packet floor", format_bytes),
        ],
        rows,
    )


# ---------------------------------------------------------------------------
# The evaluation: every figure ``python -m repro experiments`` regenerates
# ---------------------------------------------------------------------------

#: name -> the runs whose tables the figure prints, in order.  Datasets
#: are built (and cached) only when a figure runs.
FIGURES: Dict[str, Callable[[], List[Table]]] = {
    "fig2": lambda: [run_fig2()],
    "fig4": lambda: [run_fig4()],
    "fig5": lambda: [
        run_fig5(cal.bench_twitter(), [8, 4, 2]),
        run_fig5(cal.bench_yahoo(), [16, 4]),
    ],
    "fig6": lambda: [
        run_fig6(cal.bench_twitter(), [8, 4, 2]),
        run_fig6(cal.bench_yahoo(), [16, 4]),
    ],
    "fig7": lambda: [run_fig7(cal.bench_twitter(), [8, 4, 2])],
    "table1": lambda: [run_table1(cal.bench_twitter(), cal.bench_twitter(32))],
    "fig8": lambda: [
        run_fig8(cal.bench_twitter(), [8, 4, 2], paper_edges=cal.PAPER["twitter"]["n_edges"]),
        run_fig8(cal.bench_yahoo(), [16, 4], paper_edges=cal.PAPER["yahoo"]["n_edges"]),
    ],
    "fig9": lambda: [run_fig9(cal.bench_twitter()), run_fig9(cal.bench_yahoo())],
    "design": lambda: [run_design_workflow()],
}
