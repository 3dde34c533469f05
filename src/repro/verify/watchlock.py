"""Runtime lock-order sanitizer: ``WatchedLock`` and its watchdog.

The static pass in :mod:`repro.verify.threads` extracts the lock-acquisition
graph from the AST; this module is the runtime half.  When the
``REPRO_LOCK_SANITIZER`` environment variable is set, every lock the net and
service backends create through :func:`watched_lock` is wrapped so the
watchdog records, per thread, which locks were held when each lock was
acquired.  A reverse edge — lock B acquired while A is held on one thread,
and A acquired while B is held on another — is a witnessed lock-order
violation, the runtime shadow of the static analyzer's cycle finding.

``REPRO_LOCK_SANITIZER=strict`` raises :class:`LockOrderViolation` at the
acquisition site instead of just recording it, which is what the stress
tests use to pin the failure.  ``REPRO_LOCK_SANITIZER_OUT=<path>`` dumps the
witnessed graph as JSON at interpreter exit so CI can archive witness runs.

This module imports only the stdlib so the net backends can depend on it
without creating an import cycle through ``repro.verify``.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "LockOrderViolation",
    "LockWatchdog",
    "WatchedLock",
    "watched_lock",
    "global_watchdog",
    "sanitizer_enabled",
]

_ENV = "REPRO_LOCK_SANITIZER"
_ENV_OUT = "REPRO_LOCK_SANITIZER_OUT"


class LockOrderViolation(RuntimeError):
    """Raised in strict mode when a reverse lock-order edge is witnessed."""


class LockWatchdog:
    """Records per-thread lock acquisition order and hold times.

    Thread-safe: all shared state is guarded by an internal plain lock
    (never a WatchedLock — the watchdog must not watch itself).
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self._mu = threading.Lock()
        self._held = threading.local()
        # (earlier, later) -> {"count": int, "threads": set[str]}
        self.edges: Dict[Tuple[str, str], Dict[str, object]] = {}
        self.violations: List[Dict[str, object]] = []
        self.holds: Dict[str, Dict[str, float]] = {}

    def _stack(self) -> List[Tuple[str, float]]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def on_acquire(self, name: str) -> None:
        stack = self._stack()
        tname = threading.current_thread().name
        now = time.monotonic()
        with self._mu:
            for held_name, _t0 in stack:
                if held_name == name:
                    continue
                key = (held_name, name)
                entry = self.edges.get(key)
                if entry is None:
                    entry = {"count": 0, "threads": set()}
                    self.edges[key] = entry
                entry["count"] = int(entry["count"]) + 1  # type: ignore[call-overload]
                entry["threads"].add(tname)  # type: ignore[union-attr]
                reverse = (name, held_name)
                if reverse in self.edges:
                    violation = {
                        "earlier": held_name,
                        "later": name,
                        "thread": tname,
                        "reverse_threads": sorted(self.edges[reverse]["threads"]),  # type: ignore[arg-type]
                    }
                    self.violations.append(violation)
                    if self.strict:
                        raise LockOrderViolation(
                            f"lock-order inversion: {name} acquired while holding "
                            f"{held_name} on thread {tname}, but the reverse order "
                            f"was witnessed on {violation['reverse_threads']}"
                        )
        stack.append((name, now))

    def on_release(self, name: str) -> None:
        stack = self._stack()
        now = time.monotonic()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][0] == name:
                _n, t0 = stack.pop(i)
                held_for = now - t0
                with self._mu:
                    st = self.holds.setdefault(
                        name, {"count": 0.0, "total_s": 0.0, "max_s": 0.0}
                    )
                    st["count"] += 1.0
                    st["total_s"] += held_for
                    if held_for > st["max_s"]:
                        st["max_s"] = held_for
                return

    def observed_edges(self) -> Set[Tuple[str, str]]:
        with self._mu:
            return set(self.edges)

    def validate_against(self, static_edges: Set[Tuple[str, str]]) -> List[Tuple[str, str]]:
        """Edges witnessed at runtime that the static graph did not predict."""
        return sorted(self.observed_edges() - set(static_edges))

    def report(self) -> dict:
        with self._mu:
            return {
                "schema": "kylix-lock-witness-v1",
                "edges": [
                    {
                        "src": src,
                        "dst": dst,
                        "count": entry["count"],
                        "threads": sorted(entry["threads"]),  # type: ignore[arg-type]
                    }
                    for (src, dst), entry in sorted(self.edges.items())
                ],
                "violations": list(self.violations),
                "holds": {
                    name: dict(st) for name, st in sorted(self.holds.items())
                },
                "ok": not self.violations,
            }


class WatchedLock:
    """A ``threading.Lock``/``RLock`` wrapper that reports to a watchdog."""

    def __init__(self, name: str, watchdog: LockWatchdog, reentrant: bool = False) -> None:
        self.name = name
        self._watchdog = watchdog
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._watchdog.on_acquire(self.name)
        return ok

    def release(self) -> None:
        self._inner.release()
        self._watchdog.on_release(self.name)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "WatchedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


_GLOBAL: Optional[LockWatchdog] = None
_GLOBAL_MU = threading.Lock()


def sanitizer_enabled() -> bool:
    value = os.environ.get(_ENV, "")
    return value not in ("", "0")


def global_watchdog() -> LockWatchdog:
    """The process-wide watchdog used by :func:`watched_lock`."""
    global _GLOBAL
    with _GLOBAL_MU:
        if _GLOBAL is None:
            strict = os.environ.get(_ENV, "") == "strict"
            _GLOBAL = LockWatchdog(strict=strict)
            out = os.environ.get(_ENV_OUT)
            if out:
                atexit.register(_dump_report, _GLOBAL, out)
        return _GLOBAL


def _dump_report(watchdog: LockWatchdog, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(watchdog.report(), fh, indent=2, sort_keys=True)


def watched_lock(name: str, reentrant: bool = False):
    """A lock for the thread backends: plain by default, watched when enabled.

    The ``name`` should match the static analyzer's lock identity (e.g.
    ``service.cache.ConfigCache._lock``) so runtime witness edges line up
    with the static graph in :func:`LockWatchdog.validate_against`.
    """
    if not sanitizer_enabled():
        return threading.RLock() if reentrant else threading.Lock()
    return WatchedLock(name, global_watchdog(), reentrant=reentrant)
