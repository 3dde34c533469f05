"""Waitable FIFO stores — the mailbox primitive under the message fabric.

:class:`Store` is an unbounded FIFO with event-returning ``get``.
:class:`FilterStore` extends it with predicate-matching gets, which the
cluster fabric uses to receive "the next message with tag T from node J"
while leaving unrelated traffic queued.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .events import PENDING, Event

__all__ = ["Store", "FilterStore", "StoreGet", "GroupGet"]


class StoreGet(Event):
    """A pending get. Supports cancellation so that an interrupted waiter
    (e.g. a replica listener whose race was lost) never consumes an item.

    ``store``, ``desc``, and ``race_footprint`` exist for the model
    checker's deadlock analysis: a drained-queue state is explained by
    walking each stuck process's awaited event back to the store it is
    parked on and the human-readable description of what it was waiting
    for.  Only those reports read the text, so a get carries ``what`` —
    ``(format, *args)`` — and ``desc`` formats it on read.
    ``race_footprint`` labels the mailbox slot this get contends on so a
    retry timer racing it can be tagged with the same footprint.
    """

    __slots__ = ("cancelled", "store", "filt", "what", "race_footprint")

    def __init__(self, store: "Store", filt: Optional[Callable[[Any], bool]] = None):
        # Event's fields inline: one get per receive is the hot path.
        self.engine = store.engine
        self.callbacks = []
        self._value = None
        self._ok = None
        self._state = PENDING
        self.footprint = None
        self.cancelled = False
        self.store = store
        self.filt = filt
        self.what: Optional[tuple] = None
        self.race_footprint: Any = None

    @property
    def desc(self) -> Optional[str]:
        """What this get waits for, or None when nobody said."""
        return None if self.what is None else self.what[0] % self.what[1:]

    def cancel(self) -> None:
        self.cancelled = True

    def _wants(self, item: Any) -> bool:
        return self.filt is None or self.filt(item)

    def _offer(self, item: Any) -> bool:
        """Take ``item`` if this get wants it; True when it was consumed."""
        if self._wants(item):
            self.succeed(item)
            return True
        return False


class GroupGet(StoreGet):
    """One get for a whole group: ``count`` items, one per slot.

    ``slot_of(item)`` names the slot (``0 <= slot < count``) an item
    belongs to, or None for an item this get does not want.  Every wanted
    item is consumed on arrival; the first per slot is kept, later copies
    for a filled slot (losing replicas of a raced packet) are dropped —
    what a loop of single gets that skips duplicates does, with one
    wake-up when the last slot fills instead of one per item.  Fires with
    the kept items as a list indexed by slot; ``taken`` is everything
    consumed, dropped copies included, in arrival order.
    """

    __slots__ = ("slot_of", "slots", "missing", "taken")

    def __init__(self, store: "Store", slot_of: Callable[[Any], Optional[int]], count: int):
        super().__init__(store)
        self.slot_of = slot_of
        self.slots: list = [None] * count
        self.missing = count
        self.taken: list = []

    @property
    def desc(self) -> Optional[str]:
        free = [q for q, item in enumerate(self.slots) if item is None]
        return f"{super().desc or 'group get'} missing slots {free} of {len(self.slots)}"

    def cancel(self) -> None:
        """Withdraw a get that has not fired, handing back everything it
        consumed: the items re-enter the store in arrival order (offered
        to the other waiters first, like any put), so nothing a partly
        filled group get took is lost.  No same-slot-function item can be
        queued behind them — this get consumed every one on arrival."""
        if self.cancelled or self._state != PENDING:
            return
        self.cancelled = True  # first: put() must not offer them back to us
        for item in self.taken:
            self.store.put(item)

    def _wants(self, item: Any) -> bool:
        return self.slot_of(item) is not None

    def _offer(self, item: Any) -> bool:
        q = self.slot_of(item)
        if q is None:
            return False
        self.taken.append(item)
        if self.slots[q] is None:
            self.slots[q] = item
            self.missing -= 1
            if not self.missing:
                self.succeed(self.slots)
        return True


class Store:
    """Unbounded FIFO. ``put`` is immediate; ``get`` returns an event."""

    def __init__(self, engine):
        self.engine = engine
        self._items: deque = deque()
        self._getters: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        self._items.append(item)
        self._dispatch()

    def get(self) -> StoreGet:
        ev = StoreGet(self)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def waiting(self) -> list:
        """The getters still parked on this store (pending, uncancelled)."""
        return [
            g for g in self._getters if not (g.triggered or g.cancelled)
        ]

    def find_lost_wakeups(self) -> list:
        """Pending getters that match a queued item — i.e. wakeups the
        dispatch logic lost.  The incremental-dispatch invariant says this
        is always empty; the model checker calls it in every explored
        state to prove that across all interleavings, not just seeded
        runs.  Returns ``(getter, item)`` pairs."""
        lost = []
        for getter in self.waiting():
            if self._items:
                lost.append((getter, self._items[0]))
        return lost

    def _dispatch(self) -> None:
        while self._items and self._getters:
            getter = self._getters.popleft()
            if getter.triggered or getter.cancelled:  # interrupted waiter
                continue
            getter.succeed(self._items.popleft())


class FilterStore(Store):
    """FIFO store whose getters may demand items matching a predicate.

    Each pending getter is matched against queued items in arrival order;
    the first match is delivered.  Getters without a predicate take the
    oldest item.

    Dispatch is *incremental*: the store maintains the invariant that no
    waiting getter matches any queued item (every put tested the new
    item against all waiters; every get tested the new waiter against
    all items), so a ``put`` only needs to offer the **new item** to the
    waiters in FIFO order, and a ``get`` only needs to scan the queue
    for the **new getter**.  The previous implementation re-ran a full
    O(waiters × items) fixpoint rescan on every operation, which the
    trace analyzer's critical-path report flagged as the fabric's event
    churn hot spot — each delivery re-matched every queued cross-layer
    message against every pending receive.  Semantics are unchanged
    (same FIFO fairness, same synchronous succeed order); cancelled or
    already-triggered waiters are purged lazily as they are encountered.
    """

    def __init__(self, engine):
        super().__init__(engine)
        # A list, not a deque: dispatch needs positional removal of a
        # matching waiter while preserving the order of the rest.
        self._getters: list = []

    def put(self, item: Any) -> None:
        getters = self._getters
        i = 0
        while i < len(getters):
            getter = getters[i]
            if getter._state != PENDING or getter.cancelled:
                del getters[i]
                continue
            if getter._offer(item):
                if getter._state != PENDING:  # a group get may want more
                    del getters[i]
                return
            i += 1
        self._items.append(item)

    def find_lost_wakeups(self) -> list:
        """``(getter, item)`` pairs where a pending getter wants a queued
        item — a group get included, for any slot, filled or not.  Always
        empty if incremental dispatch is correct; explored exhaustively
        by the model checker."""
        lost = []
        for getter in self.waiting():
            for item in self._items:
                if getter._wants(item):
                    lost.append((getter, item))
                    break
        return lost

    def get(self, filt: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        ev = StoreGet(self, filt)
        for idx, item in enumerate(self._items):
            if ev._offer(item):
                del self._items[idx]
                return ev
        self._getters.append(ev)
        return ev

    def get_group(
        self, slot_of: Callable[[Any], Optional[int]], count: int
    ) -> GroupGet:
        """One event for ``count`` items, one per slot (:class:`GroupGet`).

        Queued items are offered first, in arrival order, exactly as a
        loop of single gets would find them; once the last slot fills,
        later copies stay queued."""
        ev = GroupGet(self, slot_of, count)
        if self._items:
            queued, self._items = self._items, deque()
            for item in queued:
                if ev._state != PENDING or not ev._offer(item):
                    self._items.append(item)
        if ev._state == PENDING:
            self._getters.append(ev)
        return ev
