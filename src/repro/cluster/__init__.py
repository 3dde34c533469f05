"""Simulated commodity cluster: nodes, fabric, traffic stats.

This package substitutes for the paper's 64-node EC2 testbed.  Protocols
exchange real NumPy payloads through :class:`Fabric` (so results are
exactly computed), while simulated time follows a calibrated LogGP-style
cost model (so timing *shapes* — packet-size effects, thread scaling,
topology comparisons — reproduce the paper's figures).
"""

from .cluster import Cluster
from .fabric import Fabric, Message
from .node import SimNode, payload_nbytes
from .stats import PhaseBreakdown, TrafficStats

__all__ = [
    "Cluster",
    "Fabric",
    "Message",
    "SimNode",
    "payload_nbytes",
    "TrafficStats",
    "PhaseBreakdown",
]
