"""The group get: one wait for one item per slot.

``FilterStore.get_group`` at the store, ``SimNode.recv_all`` at the
fabric, and what ``repro.mc`` prints about a process stuck in either kind
of receive (the plain-get text is pinned to the literals it had before
``StoreGet.desc`` became computed on read).
"""

import pytest

from repro.cluster import Cluster
from repro.mc import UnreadNackModel, explore, quiescence_report
from repro.mc.model import Model
from repro.simul import (
    Engine,
    FilterStore,
    SimulationError,
    WaitTimeout,
    wait_with_timeout,
)


def by_letter(item):
    """Items are ``(letter, copy)``; slots a, b, c; other letters unwanted."""
    return "abc".index(item[0]) if item[0] in "abc" else None


class TestGetGroup:
    def test_fills_from_the_queue_in_arrival_order_first_copy_wins(self):
        eng = Engine(record_trace=True)
        store = FilterStore(eng)
        for item in [("b", 1), ("x", 1), ("b", 2), ("a", 1), ("c", 1), ("c", 2)]:
            store.put(item)
        got = store.get_group(by_letter, 3)
        assert got.triggered and got.value == [("a", 1), ("b", 1), ("c", 1)]
        # the losing copy before completion is consumed, the one after stays
        assert got.taken == [("b", 1), ("b", 2), ("a", 1), ("c", 1)]
        assert list(store._items) == [("x", 1), ("c", 2)]

    def test_parked_get_wakes_once_when_the_last_slot_fills(self):
        eng = Engine(record_trace=True)
        store = FilterStore(eng)
        woken = []

        def consumer():
            got = yield store.get_group(by_letter, 3)
            woken.append((eng.now, got))

        def producer():
            for item in [("c", 1), ("a", 1), ("a", 2), ("z", 1), ("b", 1)]:
                yield eng.timeout(1.0)
                store.put(item)

        eng.process(consumer())
        eng.process(producer())
        eng.run()
        assert woken == [(5.0, [("a", 1), ("b", 1), ("c", 1)])]
        assert [name for _, _, name in eng.trace].count("GroupGet") == 1
        assert list(store._items) == [("z", 1)]  # never wanted, never touched

    def test_unwanted_items_go_to_the_next_waiter(self):
        eng = Engine()
        store = FilterStore(eng)
        group = store.get_group(by_letter, 3)
        other = store.get(lambda item: item[0] == "x")
        store.put(("x", 1))
        assert other.triggered and not group.triggered
        assert store.waiting() == [group]

    def test_lost_wakeup_audit_covers_a_parked_group_get(self):
        eng = Engine()
        store = FilterStore(eng)
        group = store.get_group(by_letter, 3)
        store.put(("a", 1))
        assert store.find_lost_wakeups() == []
        # An item dispatch never offered: for a free slot, or a filled one.
        store._items.append(("a", 2))
        assert store.find_lost_wakeups() == [(group, ("a", 2))]
        store._items[0] = ("q", 1)
        assert store.find_lost_wakeups() == []


class TestCancel:
    """Cancelling a partly filled group get hands back everything it
    consumed, in arrival order; nothing is lost and it never fires."""

    def test_items_are_requeued_in_arrival_order(self):
        eng = Engine()
        store = FilterStore(eng)
        group = store.get_group(by_letter, 3)
        for item in [("c", 1), ("a", 1), ("c", 2)]:
            store.put(item)
        assert len(store) == 0
        group.cancel()
        assert list(store._items) == [("c", 1), ("a", 1), ("c", 2)]
        store.put(("b", 1))
        eng.run()
        assert not group.triggered and store.waiting() == []
        again = store.get_group(by_letter, 3)
        assert again.value == [("a", 1), ("b", 1), ("c", 1)]

    def test_requeued_items_are_offered_to_other_waiters(self):
        eng = Engine()
        store = FilterStore(eng)
        group = store.get_group(by_letter, 3)
        single = store.get(lambda item: item == ("a", 1))
        store.put(("a", 1))  # the group get is first in line
        assert not single.triggered
        group.cancel()
        assert single.triggered and single.value == ("a", 1)
        assert store.find_lost_wakeups() == []

    def test_cancel_after_completion_is_a_no_op(self):
        eng = Engine()
        store = FilterStore(eng)
        for item in [("a", 1), ("b", 1), ("c", 1)]:
            store.put(item)
        group = store.get_group(by_letter, 3)
        group.cancel()
        assert group.value == [("a", 1), ("b", 1), ("c", 1)] and len(store) == 0

    def test_timeout_and_interrupt_put_the_items_back(self):
        eng = Engine()
        store = FilterStore(eng)
        outcome = []

        def timed():
            try:
                yield from wait_with_timeout(eng, store.get_group(by_letter, 3), 2.0)
            except WaitTimeout:
                outcome.append(("timeout", eng.now, list(store._items)))
            try:
                yield store.get_group(by_letter, 3)
            except Exception as exc:  # the Interrupt
                outcome.append((type(exc).__name__, eng.now, list(store._items)))

        def driver(victim):
            store.put(("b", 1))
            yield eng.timeout(3.0)  # past the deadline; the get was re-issued
            victim.interrupt("stop")

        victim = eng.process(timed())
        eng.process(driver(victim))
        eng.run()
        assert outcome == [
            ("timeout", 2.0, [("b", 1)]),
            ("Interrupt", 3.0, [("b", 1)]),
        ]


class TestRecvAll:
    def test_one_message_per_slot_racing_copies_dropped(self):
        cluster = Cluster(5, observe=True)
        got = {}

        def proto(node):
            if node.rank == 0:
                yield node.compute(1.0)  # everything below is queued by then
                msgs = yield node.recv_all(2, tag="g", slot_of={1: 0, 2: 0, 3: 1, 4: 1}.get)
                got["srcs"] = [m.src for m in msgs]
            else:
                yield node.compute(0.1 * node.rank)
                node.send(0, None, nbytes=100, tag="g", phase="reduce_down", layer=1)

        cluster.run(proto)
        # slot 0: node 1 beats its replica 2; slot 1: node 3 completes the
        # group, so node 4's copy is never consumed
        assert got["srcs"] == [1, 3]
        assert cluster.pending_messages() == 1
        waits = cluster.obs.metrics.histogram("net.queue_wait").observations(
            node=0, phase="reduce_down", layer=1
        )
        delivered = sorted(m.delivered_at for m in cluster.obs.messages if m.src in (1, 2, 3))
        assert waits == [1.0 - t for t in delivered]  # the dropped copy's too

    def test_messages_taken_on_arrival_waited_zero(self):
        cluster = Cluster(3, observe=True)

        def proto(node):
            if node.rank == 0:
                yield node.recv_all(2, tag="g", slot_of={1: 0, 2: 1}.get)
            else:
                yield node.compute(0.25 * node.rank)
                node.send(0, None, nbytes=100, tag="g", phase="gather_up", layer=2)

        cluster.run(proto)
        waits = cluster.obs.metrics.histogram("net.queue_wait").observations(
            node=0, phase="gather_up", layer=2
        )
        assert waits == [0.0, 0.0]

    def test_carries_the_mailbox_race_footprint(self):
        cluster = Cluster(2)
        ev = cluster.node(1).recv_all(1, tag="g", slot_of=lambda src: 0)
        assert ev.race_footprint == ("mbox", 1, None, None)
        assert ev.race_footprint == cluster.node(1).recv(tag="g").race_footprint


class StuckModel(Model):
    """Two nodes that can never finish: rank 0 in a plain receive nobody
    answers, rank 1 in a group receive one of whose three senders is
    silent.  ``sabotage`` also slips a matching message into rank 1's
    mailbox behind the dispatcher's back — a lost wakeup."""

    def __init__(self, sabotage=False):
        self.sabotage = sabotage

    def describe(self):
        return {"model": "stuck", "sabotage": self.sabotage}

    def _proto(self, node):
        if node.rank == 0:
            node.send(1, b"part", tag=("k", "rd", 7, 2), phase="reduce_down", layer=2)
            yield node.recv(tag="never", src=1)
        else:
            node.send(1, b"part", tag=("k", "rd", 7, 2), phase="reduce_down", layer=2)
            ev = node.recv_all(3, tag=("k", "rd", 7, 2), slot_of={0: 0, 1: 1, 2: 2}.get)
            if self.sabotage:
                yield node.compute(1.0)  # both parts have been taken by now
                node.cluster.fabric.mailboxes[1]._items.append(ev.taken[0])
            yield ev

    def _build(self, cluster_kwargs):
        cluster = Cluster(2, **cluster_kwargs)
        return cluster, lambda: cluster.run(self._proto)


class TestStuckReports:
    def test_plain_get_text_is_what_it_always_was(self):
        ce = explore(UnreadNackModel(buggy=True), bound=100).counterexamples[0]
        assert ce.violation.waiting == (
            {
                "rank": 0,
                "waiting_on": "recv(node=0, tag='done', src=None)",
                "mailbox_backlog": ["'nack'"],
            },
            {
                "rank": 1,
                "waiting_on": "recv(node=1, tag='reply', src=None)",
                "mailbox_backlog": [],
            },
        )

    def test_group_get_names_node_tag_and_missing_slots(self):
        result = StuckModel().execute()
        (violation,) = result.violations
        assert violation.kind == "deadlock"
        assert violation.waiting == (
            {
                "rank": 0,
                "waiting_on": "recv(node=0, tag='never', src=1)",
                "mailbox_backlog": [],
            },
            {
                "rank": 1,
                "waiting_on": "recv_all(node=1, tag=('k', 'rd', 7, 2)) "
                "missing slots [2] of 3",
                "mailbox_backlog": [],
            },
        )

    def test_quiescence_report_matches_the_violation(self):
        cluster = Cluster(2)
        with pytest.raises(SimulationError, match="deadlock"):
            cluster.run(StuckModel()._proto)
        waiting = [entry["waiting_on"] for entry in quiescence_report(cluster)]
        assert waiting == [
            "recv(node=0, tag='never', src=1)",
            "recv_all(node=1, tag=('k', 'rd', 7, 2)) missing slots [2] of 3",
        ]

    def test_lost_wakeup_text_for_a_group_get(self):
        result = StuckModel(sabotage=True).execute()
        lost = [v for v in result.violations if v.kind == "lost_wakeup"]
        assert [v.detail for v in lost] == [
            "mailbox 1: waiting recv_all(node=1, tag=('k', 'rd', 7, 2)) "
            "missing slots [2] of 3 matches queued ('k', 'rd', 7, 2)"
        ]
