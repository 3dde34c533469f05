"""Homogeneous butterflies (§II-A.3) and degree-stack helpers.

A binary butterfly (``d_i = 2`` for every layer) minimises latency for
fixed-cost messages but maximises layer count; the paper shows the optimal
commodity-cluster configuration uses *fewer, wider* layers tuned so each
layer's packets stay at or above the minimum efficient size.  Either is
a :class:`~repro.allreduce.kylix.KylixAllreduce` degree stack:
``KylixAllreduce(cluster, binary_degrees(m))``.
"""

from __future__ import annotations

from math import prod

from ..verify.errors import ProtocolInvariantError

__all__ = ["binary_degrees", "uniform_degrees"]


def binary_degrees(num_nodes: int) -> list[int]:
    """``[2] * log2(m)``; requires a power-of-two cluster."""
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    degrees = []
    m = num_nodes
    while m > 1:
        if m % 2:
            raise ValueError(f"binary butterfly needs a power-of-two size, got {num_nodes}")
        degrees.append(2)
        m //= 2
    return degrees or [1]


def uniform_degrees(num_nodes: int, degree: int) -> list[int]:
    """``[d] * log_d(m)``; requires ``m`` to be a power of ``d``."""
    if degree < 2:
        raise ValueError("degree must be >= 2")
    degrees = []
    m = num_nodes
    while m > 1:
        if m % degree:
            raise ValueError(f"{num_nodes} is not a power of {degree}")
        degrees.append(degree)
        m //= degree
    out = degrees or [1]
    if prod(out) != num_nodes:
        raise ProtocolInvariantError(
            f"degree stack {out} does not factor cluster size {num_nodes}",
            invariant="degree-product",
        )
    return out
