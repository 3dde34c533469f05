"""``repro.faults`` — seeded fault injection and bounded recovery.

The paper's fault-tolerance claim (§V, Table I) is that replication plus
packet racing rides out dead nodes.  This package widens the test surface
from "nodes dead at t=0" to the failure modes commodity clusters actually
exhibit — mid-run crashes (with recovery), message drop, duplication,
stragglers, and reorder — and gives the protocols the machinery to meet
them: derived receive deadlines, bounded retransmission with backoff,
sequence-number dedupe, and degraded completion with an exact
:class:`CoverageReport` — decided once, for every medium, by the
:class:`ReceiveLadder`.

Everything is seeded and deterministic, and the same :class:`FaultPlan`
drives both the discrete-event simulator (`repro.cluster.Fabric`) and the
real multiprocessing backend (`repro.net.LocalKylix`), so a chaos
schedule reproduces bit-identically across backends and runs.
"""

from .errors import FaultPlanError, PeerFailedError
from .ladder import ReceiveLadder, RetainedKeys, SlotMap
from .plan import FaultDecision, FaultPlan, LinkFault, canonical_phase
from .policy import RetryPolicy, derive_timeout
from .report import CoverageReport, LossRecord, exact_outside_lost, lost_outside_bound

__all__ = [
    "FaultPlan",
    "LinkFault",
    "FaultDecision",
    "canonical_phase",
    "RetryPolicy",
    "derive_timeout",
    "ReceiveLadder",
    "SlotMap",
    "RetainedKeys",
    "CoverageReport",
    "LossRecord",
    "lost_outside_bound",
    "exact_outside_lost",
    "PeerFailedError",
    "FaultPlanError",
]
