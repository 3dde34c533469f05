"""Event records produced by the observability layer.

Two event kinds cover everything the repo measures:

* :class:`SpanEvent` — a named, nested, timed region of protocol or
  driver work, tagged with the node it ran on, the protocol phase and
  butterfly layer it belongs to, and arbitrary extra args.  Spans are
  what Perfetto renders as bars on a timeline.
* :class:`MessageEvent` — one point-to-point message as seen by a
  transport, tagged the same way: the observer's message timeline
  (:attr:`~repro.obs.observer.Observer.messages`), which the analyzer and
  the exporters read.  The simulator records one per delivery (the
  per-(phase, layer) traffic counters are its fabric's cells, not
  events); a real-process worker records what its transport delivers.

Timestamps are seconds on whatever clock the owning
:class:`~repro.obs.observer.Observer` reads — the simulator's virtual
clock or the host's monotonic clock — and are normalised to a common
zero only at export time, so the two backends share one schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["SpanEvent", "MessageEvent"]


@dataclass(frozen=True)
class SpanEvent:
    """One timed region: ``[start, end]`` seconds on the observer clock."""

    name: str
    start: float
    end: float
    node: int = -1  # rank the work ran on; -1 = the driver
    phase: str = ""  # protocol phase tag (config / reduce_down / ...)
    layer: int = -1  # butterfly layer, -1 when not layer-scoped
    pid: int = 0  # producing process (0 = driver/sim, workers get ranks)
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class MessageEvent:
    """One transport message; ``delivered_at`` is None until delivery."""

    src: int
    dst: int
    nbytes: int
    phase: str = ""
    layer: int = -1
    sent_at: float = 0.0
    delivered_at: Optional[float] = None
