"""Benchmark harness: calibration, per-figure experiment drivers, reporting.

Every driver returns one :class:`Table` (rows of plain values, declared
columns, ``table()`` / ``row()`` / ``column()``).
"""

from .calibration import (
    BYTES_PER_ELEMENT,
    INCAST_FACTOR,
    KYLIX_COMPUTE_RATE,
    LATENCY_SIGMA,
    MIN_PACKET_BYTES,
    PAPER,
    RECV_BYTE_CPU,
    SERVICE_SIGMA,
    bench_twitter,
    bench_yahoo,
    dataset_per_node_bytes,
    make_cluster,
    scaled_params,
)
from .sweeps import all_degree_stacks, sweep_degree_stacks
from .experiments import (
    run_design_workflow,
    run_fig2,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_table1,
)
from .reporting import Table, banner, format_bars, format_bytes, format_seconds, format_table

__all__ = [
    "PAPER",
    "BYTES_PER_ELEMENT",
    "MIN_PACKET_BYTES",
    "KYLIX_COMPUTE_RATE",
    "SERVICE_SIGMA",
    "LATENCY_SIGMA",
    "INCAST_FACTOR",
    "RECV_BYTE_CPU",
    "bench_twitter",
    "bench_yahoo",
    "scaled_params",
    "make_cluster",
    "dataset_per_node_bytes",
    "run_fig2",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_table1",
    "run_fig8",
    "run_fig9",
    "run_design_workflow",
    "all_degree_stacks",
    "sweep_degree_stacks",
    "Table",
    "format_table",
    "format_bars",
    "format_bytes",
    "format_seconds",
    "banner",
]
