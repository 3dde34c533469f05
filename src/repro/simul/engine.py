"""The discrete-event engine: a time-ordered event queue and its run loop.

Determinism is a hard requirement for reproducible benchmarks, so ties in
simulated time are broken by a monotonically increasing sequence number —
two events scheduled for the same instant always fire in scheduling order,
regardless of hash seeds or heap internals.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from .events import PENDING, AnyOf, Event, SimulationError, Timeout
from .process import Process
from .scheduler import Scheduler

__all__ = ["Engine", "EmptySchedule"]


class EmptySchedule(Exception):
    """Raised by :meth:`Engine.step` when no events remain."""


class Engine:
    """A minimal deterministic discrete-event simulation engine.

    Typical use::

        eng = Engine()

        def worker(eng):
            yield eng.timeout(1.5)
            return "done"

        proc = eng.process(worker(eng))
        eng.run()
        # now eng.now == 1.5 and proc.value == "done"

    With ``record_trace=True`` every processed event is appended to
    :attr:`trace` as ``(time, seq, event-class-name)``.  Two runs of the
    same seeded experiment must produce identical traces — the
    determinism tests diff them to catch tie-break regressions.

    ``scheduler`` installs a :class:`~repro.simul.scheduler.Scheduler`
    strategy that picks which queued event fires next (used by the model
    checker to explore alternative interleavings).  Without one the
    engine keeps its original heap-pop path — strict ``(time, seq)``
    order — untouched.
    """

    def __init__(
        self,
        *,
        record_trace: bool = False,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        self._now: float = 0.0
        self._queue: list = []  # (time, seq, event)
        self._seq: int = 0
        self._active_proc: Optional[Process] = None
        self.trace: Optional[list] = [] if record_trace else None
        self.scheduler = scheduler

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_proc

    # -- scheduling ------------------------------------------------------
    def _push(self, event: Event, delay: float) -> None:
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))
        self._seq += 1

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at absolute simulated ``time`` (>= now)."""
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self._now})")
        ev = Timeout(self, time - self._now)
        ev.add_callback(lambda _: callback())
        return ev

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    # -- run loop --------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when drained."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if self.scheduler is not None:
            self._step_scheduled()
            return
        try:
            self._now, seq, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        if self.trace is not None:
            self.trace.append((self._now, seq, type(event).__name__))
        event._process()

    def _step_scheduled(self) -> None:
        """Scheduler-driven step: the strategy picks any queued event.

        The queue stays a valid heap (index 0 is the default choice);
        choosing a later-timestamped entry models its competitors
        arriving late, so the clock only ever stretches forward —
        ``now`` is the max of itself and the chosen event's timestamp,
        keeping simulated time monotone under arbitrary reordering.
        """
        if not self._queue:
            raise EmptySchedule()
        idx = self.scheduler.choose(self._queue)
        if not 0 <= idx < len(self._queue):
            raise SimulationError(f"scheduler chose invalid queue index {idx}")
        if idx == 0:
            time, seq, event = heapq.heappop(self._queue)
        else:
            time, seq, event = self._queue.pop(idx)
            heapq.heapify(self._queue)
        self._now = max(self._now, time)
        if self.trace is not None:
            self.trace.append((self._now, seq, type(event).__name__))
        event._process()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until simulated time ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue drains earlier, mirroring SimPy semantics.
        """
        if until is None:
            while self._queue:
                self.step()
            return
        if until < self._now:
            raise SimulationError(f"until={until} lies in the past (now={self._now})")
        while self._queue and self._queue[0][0] <= until:
            self.step()
        self._now = until

    def run_until_complete(self, *processes: Process) -> None:
        """Run until all given processes have finished (or the queue drains).

        Raises the stored exception if any process failed, so protocol bugs
        surface as test failures instead of silently-hung simulations.
        """
        # Stop as soon as every process is *triggered* (trailing events stay
        # queued).  Triggering is permanent, so each process has to be seen
        # triggered only once: retire them from the tail, and an event that
        # finishes nobody costs one attribute read instead of a scan.
        pending = list(processes)
        queue, step = self._queue, self.step
        while pending:
            if pending[-1]._state != PENDING:
                pending.pop()
            elif queue:
                step()
            else:
                break
        # A protocol error on one node usually strands its peers waiting for
        # messages that will never come; report the root cause, not the
        # resulting deadlock.
        for p in processes:
            if p.triggered and p.ok is False:
                raise p.value
        for p in processes:
            if not p.triggered:
                raise SimulationError(
                    "deadlock: event queue drained with processes still pending"
                )
