"""Event primitives for the discrete-event simulation kernel.

The kernel is a small, SimPy-flavoured engine: simulation activities are
Python generators that ``yield`` :class:`Event` objects and are resumed when
those events fire.  Only the features the Kylix protocols need are
implemented — timeouts, one-shot events, and ``any``/``all`` composition —
which keeps the hot path (one heap push/pop per event) tight.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Condition",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    ``cause`` carries arbitrary user data (e.g. the reason a replica
    listener was cancelled during packet racing).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states.
PENDING = 0  # not triggered yet
TRIGGERED = 1  # scheduled on the engine queue, callbacks not yet run
PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*.  Calling :meth:`succeed` or :meth:`fail` puts
    them on the engine's queue for the current timestep; the engine then
    runs the registered callbacks exactly once.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_state", "footprint")

    def __init__(self, engine: "Engine"):  # noqa: F821 - forward ref
        self.engine = engine
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._state = PENDING
        # Optional commutativity label for the model checker: events with
        # different footprints (or no footprint) commute and are never
        # reordered against each other during exploration.
        self.footprint: Any = None

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> Optional[bool]:
        """True if the event succeeded, False if it failed, None if pending."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == PENDING:
            raise SimulationError("value of a pending event is not available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        self.engine._push(self, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() expects an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        self.engine._push(self, 0.0)
        return self

    # -- engine hook -----------------------------------------------------
    def _process(self) -> None:
        """Run callbacks; called by the engine when the event is popped."""
        callbacks, self.callbacks = self.callbacks, None
        self._state = PROCESSED
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately to avoid lost wakeups.
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} state={self._state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Born triggered: Event's fields written once, not initialised to
        # pending by super().__init__ and then overwritten (one Timeout
        # per message and per compute charge).
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = TRIGGERED
        self.footprint = None
        self.delay = delay
        engine._push(self, delay)


class Condition(Event):
    """Base for events composed of several child events.

    ``evaluate`` decides when the condition is met.  The condition's value
    is a dict mapping each *triggered* child event to its value, in trigger
    order — enough to implement first-response-wins packet racing.
    """

    __slots__ = ("_events", "_count", "_results")

    def __init__(self, engine: "Engine", events: Iterable[Event]):  # noqa: F821
        super().__init__(engine)
        self._events = tuple(events)
        self._count = 0
        self._results: dict = {}
        if not self._events:
            self.succeed(self._results)
            return
        for ev in self._events:
            if ev.engine is not engine:
                raise SimulationError("cannot mix events from different engines")
            ev.add_callback(self._check)

    def evaluate(self, count: int, total: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self._state != PENDING:
            return
        self._count += 1
        if event._ok:
            self._results[event] = event._value
            if self.evaluate(self._count, len(self._events)):
                self.succeed(dict(self._results))
        else:
            self.fail(event._value)


class AnyOf(Condition):
    """Fires when the first child event fires."""

    __slots__ = ()

    def evaluate(self, count: int, total: int) -> bool:
        return count >= 1


class AllOf(Condition):
    """Fires when every child event has fired."""

    __slots__ = ()

    def evaluate(self, count: int, total: int) -> bool:
        return count >= total
