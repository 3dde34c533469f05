"""Deterministic discrete-event simulation kernel.

This is the foundation every simulated-cluster experiment runs on: a
time-ordered event queue (:class:`Engine`), generator-backed processes
(:class:`Process`), composable events (:class:`AnyOf` / :class:`AllOf`),
and waitable FIFO stores used as node mailboxes.
"""

from .engine import EmptySchedule, Engine
from .events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)
from .process import Process
from .scheduler import FifoScheduler, JitterScheduler, ReplayScheduler, Scheduler
from .store import FilterStore, GroupGet, Store, StoreGet
from .waiting import WaitTimeout, wait_with_timeout

__all__ = [
    "WaitTimeout",
    "wait_with_timeout",
    "Engine",
    "EmptySchedule",
    "Event",
    "Timeout",
    "Condition",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "Process",
    "Store",
    "FilterStore",
    "StoreGet",
    "GroupGet",
    "Scheduler",
    "FifoScheduler",
    "JitterScheduler",
    "ReplayScheduler",
]
