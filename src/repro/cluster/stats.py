"""Traffic accounting for simulated clusters.

Figure 5 of the paper plots *total communication volume per layer* — the
"Kylix shape".  The fabric reports every message here, tagged with the
protocol phase (``config`` / ``reduce_down`` / ``allgather_up``) and the
butterfly layer it belongs to, so benchmarks can regenerate the per-layer
volume chart and the config/reduce time split without touching protocol
internals.

Self-messages (a node's packet "to its own") are counted separately —
the paper includes them in communication volume but they cost no network
time.

This is the simulator's one byte ledger: an observed cluster's ``net.*``
and ``faults.resent`` metric series are read off these cells
(:meth:`TrafficStats.series`), not counted a second time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["TrafficStats", "PhaseBreakdown"]


@dataclass
class PhaseBreakdown:
    """Aggregated traffic for one (phase, layer) cell."""

    messages: int = 0
    bytes: int = 0
    self_messages: int = 0
    self_bytes: int = 0
    # NACK retransmissions, *also* included in messages/bytes above.
    # Tracked separately so the plan certifier can subtract them and gate
    # the base traffic against its static prediction exactly.
    resent_messages: int = 0
    resent_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes + self.self_bytes

    @property
    def network_bytes(self) -> int:
        return self.bytes

    def add(self, nbytes: int, *, self_message: bool = False) -> None:
        """Accumulate one message directly into this cell — the hot-path
        form of :meth:`TrafficStats.record` for callers holding a
        :meth:`TrafficStats.cell_ref`."""
        if self_message:
            self.self_messages += 1
            self.self_bytes += int(nbytes)
        else:
            self.messages += 1
            self.bytes += int(nbytes)

    def add_resent(self, nbytes: int) -> None:
        """Tag the most recent :meth:`add` as a retransmission.  The
        message stays in ``messages``/``bytes`` (it really crossed the
        network); this sub-counter lets certificate gating subtract it."""
        self.resent_messages += 1
        self.resent_bytes += int(nbytes)


class TrafficStats:
    """Accumulates message counts/volumes keyed by (phase, layer)."""

    #: The observer series read off the cells: name -> (the cell field it
    #: reports, the message count that makes a cell part of the series).
    SERIES = {
        "net.bytes": ("bytes", "messages"),
        "net.messages": ("messages", "messages"),
        "net.self_bytes": ("self_bytes", "self_messages"),
        "net.self_messages": ("self_messages", "self_messages"),
    }

    def __init__(self) -> None:
        self._cells: dict = defaultdict(PhaseBreakdown)

    def cell_ref(self, phase: str, layer: int) -> PhaseBreakdown:
        """The live accumulator cell for ``(phase, layer)``, created on
        first touch, which a send adds to (valid until :meth:`reset`)."""
        return self._cells[(phase, layer)]

    def series(self, value: str, count: str) -> dict:
        """One cell field as a metrics counter's values (a :data:`SERIES`
        entry): ``{label key: value}`` (labels ``phase=, layer=``) over
        the cells whose ``count`` field is non-zero."""
        return {
            (("layer", layer), ("phase", phase)): getattr(cell, value)
            for (phase, layer), cell in self._cells.items()
            if getattr(cell, count)
        }

    def record(
        self,
        src: int,
        dst: int,
        nbytes: int,
        phase: str = "",
        layer: int = -1,
    ) -> None:
        self._cells[(phase, layer)].add(nbytes, self_message=src == dst)

    # -- queries -----------------------------------------------------------
    def cell(self, phase: str, layer: int) -> PhaseBreakdown:
        return self._cells.get((phase, layer), PhaseBreakdown())

    @property
    def phases(self) -> list[str]:
        return sorted({p for p, _ in self._cells})

    def layers(self, phase: str) -> list[int]:
        return sorted({l for p, l in self._cells if p == phase})

    def bytes_by_layer(self, phase: str, include_self: bool = True) -> dict[int, int]:
        """Per-layer communication volume for one phase (Fig 5 series)."""
        out: dict[int, int] = {}
        for (p, layer), cell in self._cells.items():
            if p != phase:
                continue
            out[layer] = out.get(layer, 0) + (
                cell.total_bytes if include_self else cell.bytes
            )
        return dict(sorted(out.items()))

    def total_bytes(self, include_self: bool = True) -> int:
        return sum(
            (c.total_bytes if include_self else c.bytes) for c in self._cells.values()
        )

    def total_messages(self, include_self: bool = True) -> int:
        return sum(
            (c.messages + c.self_messages if include_self else c.messages)
            for c in self._cells.values()
        )

    def phase_bytes(self, phase: str, include_self: bool = True) -> int:
        return sum(self.bytes_by_layer(phase, include_self).values())

    def merged(self, *phases: str) -> dict[int, int]:
        """Per-layer volumes summed over several phases.

        The Fig 5 chart sums the downward and upward reduction passes at
        each communication layer.
        """
        out: dict[int, int] = {}
        for phase in phases:
            for layer, b in self.bytes_by_layer(phase).items():
                out[layer] = out.get(layer, 0) + b
        return dict(sorted(out.items()))

    def reset(self) -> None:
        self._cells.clear()
