"""The one receive ladder, alone and under its two runners.

``repro.faults.ladder`` decides what a group receive does when a deadline
passes — NACK whom with which attempt, when a late member stops being
charged, when to give up and what giving up is — for the simulator
(the simulator medium's ``recv``) and for the real transports
(``BaseTransport.collect``).  Here it is driven three ways: by hand, with
no engine and no socket; through both runners on one scripted scenario,
whose NACK and give-up sequences must be equal wherever
``docs/protocol.md`` §4 marks the media "same"; and end to end, where the
fault counters of both media must carry the canonical phase labels.
"""

import ast
import time
from pathlib import Path

import numpy as np
import pytest
from test_net_transport import QueueTransport

from repro.allreduce import KylixAllreduce, ReduceSpec
from repro.allreduce.base import (
    PHASE_COMBINED_DOWN,
    PHASE_CONFIG,
    PHASE_GATHER_UP,
    PHASE_REDUCE_DOWN,
)
from repro.cluster import Cluster
from repro.faults import FaultPlan, LinkFault, LossRecord, PeerFailedError, RetryPolicy
from repro.faults import ladder as ladder_module
from repro.faults.ladder import (
    DEAD,
    DUPLICATE,
    NEW,
    NOT_YET,
    SENT,
    SETTLED,
    ReceiveLadder,
    RetainedKeys,
    SlotMap,
    slot_status,
)
from repro.obs.runner import run_traced

GROUP = [10, 11, 12, 13]  # member ids differ from positions on purpose


def make(*, max_retries=2, degrade=False, reset=True, awaited=None):
    losses = []
    lad = ReceiveLadder(
        GROUP, rank=0, phase="reduce_down", layer=2, max_retries=max_retries,
        degrade=degrade, reset_on_arrival=reset, losses=losses, awaited=awaited,
    )
    return lad, losses


class Nacks:
    """The runner's resend request: records ``(pos, attempt)`` and
    answers from a script (default: every resend was sent)."""

    def __init__(self, status=lambda pos: SENT):
        self.calls = []
        self.status = status

    def __call__(self, pos, attempt):
        self.calls.append((pos, attempt))
        return self.status(pos)


def fill(lad, *positions):
    for pos in positions:
        assert lad.arrive(pos, f"part {pos}") == NEW


class TestLadderAlone:
    def test_silent_peer_is_nacked_up_the_ladder_then_raised(self):
        lad, _ = make(max_retries=3)
        fill(lad, 0, 1, 2)
        nack = Nacks()
        steps = []
        for _ in range(3):
            lad.expire(nack)
            steps.append(lad.step)
        assert nack.calls == [(3, 1), (3, 2), (3, 3)]
        assert steps == [1, 2, 3]
        with pytest.raises(PeerFailedError) as err:
            lad.expire(nack)
        assert (err.value.slot, err.value.phase, err.value.layer) == (13, "reduce_down", 2)
        assert "slot 13 did not answer 3 resend requests" in str(err.value)
        assert nack.calls == [(3, 1), (3, 2), (3, 3)]  # no NACK past the budget
        assert lad.step == 3  # the step stays at the top of the ladder

    def test_dead_peer_is_given_up_at_once(self):
        lad, losses = make(degrade=True)
        fill(lad, 0, 2)
        nack = Nacks(lambda pos: DEAD if pos == 1 else SENT)
        lad.expire(nack)
        assert nack.calls == [(1, 1), (3, 1)]
        assert lad.holes == [1] and lad.open == [3]
        assert losses == [LossRecord(0, 11, "reduce_down", 2)]
        lad.dead(3)  # a peer seen closed: no expiry needed
        assert lad.done and lad.holes == [1, 3]
        strict, _ = make()
        with pytest.raises(PeerFailedError, match="slot 11 is dead"):
            strict.dead(1)

    def test_live_cascade_is_not_charged_but_capped(self):
        lad, _ = make(max_retries=2)
        fill(lad, 0, 1, 3)
        nack = Nacks(lambda pos: NOT_YET)
        cap = 4 * (2 + 1)
        for _ in range(cap):
            lad.expire(nack)
        assert lad.open == [2] and lad.tries[2] == 0 and lad.pending_waits == cap
        with pytest.raises(PeerFailedError) as err:
            lad.expire(nack)
        assert err.value.slot == 12
        # Every pending wait asked again with attempt 1: nothing was charged.
        assert nack.calls == [(2, 1)] * (cap + 1)

    def test_injected_duplicate_is_dropped_by_key(self):
        lad, _ = make()
        assert lad.arrive(1, "first", key=(11, 7)) == NEW
        assert lad.arrive(1, "copy", key=(11, 7)) == DUPLICATE
        assert lad.parts == {1: "first"}

    def test_two_replica_copies_race_for_one_slot(self):
        slots = SlotMap(8, replication=2)
        assert slots.size == 4 and slots.physical[1] == (1, 5)
        slot_of = slots.slot_fn({0: 0, 1: 1, 2: 2, 3: 3})  # logical slot -> position
        lad, _ = make()
        # Replicas 1 and 5 host slot 1.  The first copy fills the
        # position; the other has a key of its own but finds it settled.
        assert lad.arrive(slot_of(5), "from 5", key=(5, 0)) == NEW
        assert lad.arrive(slot_of(1), "from 1", key=(1, 0)) == SETTLED
        assert lad.parts == {1: "from 5"}

    def test_degrade_leaves_parts_and_holes_by_position(self):
        lad, losses = make(max_retries=1, degrade=True)
        fill(lad, 0, 2)
        nack = Nacks(lambda pos: DEAD if pos == 3 else SENT)
        lad.expire(nack)  # 3 dead; 1 charged its one resend
        lad.expire(nack)  # 1 past its budget
        assert lad.done
        assert sorted(lad.parts) == [0, 2] and lad.holes == [3, 1]
        assert [e.member for e in losses] == [13, 11]
        assert lad.arrive(1, "late") == SETTLED  # a hole stays a hole

    def test_a_not_yet_note_buys_one_uncharged_renack(self):
        """The wire's input: a ``wait`` frame answers a NACK after the
        fact, and is spent when the member's budget runs out."""
        lad, losses = make(max_retries=1, degrade=True, reset=False, awaited=[1, 2, 3])
        fill(lad, 2)
        nack = Nacks()
        lad.expire(nack)
        lad.note(1)
        lad.expire(nack)
        # 1 is re-asked at its last attempt (uncharged); 3 never answered.
        assert nack.calls == [(1, 1), (3, 1), (1, 1)]
        assert lad.open == [1] and lad.holes == [3] and lad.pending_waits == 1
        lad.expire(nack)  # the note is spent
        assert lad.done and lad.holes == [3, 1] and [e.member for e in losses] == [13, 11]

    def test_only_a_new_part_resets_the_step(self):
        for reset, want in ((True, 0), (False, 2)):
            lad, _ = make(max_retries=4, reset=reset)
            fill(lad, 0)
            lad.arrive(1, "a", key=(11, 0))
            lad.expire(Nacks())
            lad.expire(Nacks())
            assert lad.step == 2
            assert lad.arrive(1, "b", key=(11, 0)) == DUPLICATE
            assert lad.arrive(0, "c") == SETTLED
            assert lad.step == 2
            fill(lad, 2)
            assert lad.step == want

    def test_own_part_is_not_awaited(self):
        lad, _ = make(awaited=[0, 1, 3])
        fill(lad, 0, 1, 3)
        assert lad.done and 2 not in lad.parts


class TestSlotsAndStores:
    def test_slot_status_of_replicas(self):
        assert slot_status([SENT]) is SENT
        assert slot_status([DEAD]) is DEAD
        assert slot_status([NOT_YET]) is NOT_YET
        assert slot_status([DEAD, SENT]) is SENT
        assert slot_status([DEAD, NOT_YET]) is NOT_YET  # dead only when all are
        assert slot_status([NOT_YET, SENT]) is SENT

    def test_unreplicated_slot_function_is_the_position_map(self):
        pos_of = {4: 0, 6: 1}
        slots = SlotMap(8)
        assert slots.slot_fn(pos_of) == pos_of.__getitem__
        assert slots.physical[6] == (6,) and slots.logical(6) == 6

    def test_slot_map_rejects_bad_replication(self):
        with pytest.raises(ValueError):
            SlotMap(9, 2)
        with pytest.raises(ValueError):
            SlotMap(8, 0)

    def test_retained_keys_one_shape_pruned_per_round(self):
        kept = RetainedKeys()
        kept.sent[(3, 2, 5)] = "sent to 5"
        kept.recv[(3, 1, 5)] = "raw of 5"
        kept.sent[(1, 1, 5)] = "old"
        assert kept.get("sent", 3, 2, 5) == "sent to 5"
        assert kept.get("recv", 3, 1, 5) == "raw of 5"
        assert kept.get("recv", 3, 2, 5) is None
        kept.prune(3)  # keeps rounds 2 and 3
        assert (1, 1, 5) not in kept.sent and (3, 2, 5) in kept.sent


def test_ladder_imports_no_io():
    """Sans-IO, checked like the protocol core: no engine, fabric,
    transport, thread, socket or clock is importable from the ladder."""
    tree = ast.parse(Path(ladder_module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # the ladder lives in repro.faults: one dot is that package.
            base = ["repro", "faults"][: 3 - node.level] if node.level else []
            imported.add(".".join(base + ([node.module] if node.module else [])))
    forbidden = ("repro.simul", "repro.cluster", "repro.net", "threading", "socket", "time")
    for name in imported:
        assert not any(
            name == bad or name.startswith(bad + ".") for bad in forbidden
        ), f"ladder.py imports {name}"
    assert {"repro.faults.errors", "repro.faults.report"} <= imported  # resolver sanity


# -- one scenario, two runners ---------------------------------------------
#
# Rank 0 of a 4-member group: member 1's part arrives, members 2 and 3 are
# never heard from (on the simulator every copy on their links to 0 is
# dropped, resends included; on the wire they are silent).  Deadline
# lengths and restarts differ per medium (rows a-c); the NACKs and the
# give-ups are the ladder's alone and must be equal (rows d, h-l).

MAX_RETRIES = 3
SILENT = (2, 3)


def sim_runner(degrade):
    rng = np.random.default_rng(0)
    idx = {r: np.unique(rng.choice(64, 12)) for r in range(4)}
    spec = ReduceSpec(in_indices=idx, out_indices=idx)
    plan = FaultPlan(seed=0)
    for src in SILENT:
        plan = plan.with_rule(LinkFault(src=src, dst=0, drop=1.0))
    cluster = Cluster(4, failures=plan)
    net = KylixAllreduce(
        cluster, [4], retry=RetryPolicy(max_retries=MAX_RETRIES), degrade=degrade
    )
    fabric = cluster.fabric
    nacks = []
    resend = fabric.request_resend

    def recording(requester, src, tag, attempt=1):
        if requester == 0:
            nacks.append((src, attempt))
        return resend(requester, src, tag, attempt)

    fabric.request_resend = recording
    try:
        net.configure(spec)
    except PeerFailedError as err:
        return nacks, err
    return nacks, [(e.member, e.layer) for e in net._loss_events if e.rank == 0]


def wire_runner(degrade):
    net = QueueTransport(RetryPolicy(base_timeout=0.01, max_retries=MAX_RETRIES))
    net.rx.put((1, ("msg", "down", 1, 0, (1, np.arange(3.0)), time.monotonic())))
    try:
        got, losses = net.collect([0, 1, 2, 3], "down", 1, 0, missing_ok=degrade)
    except PeerFailedError as err:
        return nacks_of(net), err
    assert sorted(got) == [1]
    return nacks_of(net), [(e.member, e.layer) for e in losses]


def nacks_of(net):
    return [(m, f[4]) for m, f in net.frames if f[0] == "nack"]


class TestTwoRunnersOneLadder:
    WANT_NACKS = [(m, a) for a in range(1, MAX_RETRIES + 1) for m in SILENT]

    def test_degraded_nacks_and_holes_are_equal(self):
        sim_nacks, sim_holes = sim_runner(degrade=True)
        wire_nacks, wire_holes = wire_runner(degrade=True)
        assert sim_nacks == wire_nacks == self.WANT_NACKS
        assert sim_holes == wire_holes == [(2, 1), (3, 1)]

    def test_strict_nacks_and_error_are_equal(self):
        sim_nacks, sim_err = sim_runner(degrade=False)
        wire_nacks, wire_err = wire_runner(degrade=False)
        assert sim_nacks == wire_nacks == self.WANT_NACKS
        assert isinstance(sim_err, PeerFailedError) and isinstance(wire_err, PeerFailedError)
        assert sim_err.slot == wire_err.slot == 2
        assert sim_err.layer == wire_err.layer == 1
        assert str(sim_err).split("(")[0] == str(wire_err).split("(")[0] == (
            f"rank 0: slot 2 did not answer {MAX_RETRIES} resend requests "
        )


@pytest.mark.parametrize("backend", ["sim", "local"])
def test_fault_counters_carry_canonical_phases(backend):
    """A NACK-serviced resend and a dropped duplicate are labelled with
    the protocol phase on every medium, as the metric catalogue says —
    not with the wire's frame kind."""
    obs, info = run_traced("faults", backend=backend, seed=3)
    assert info["exact"]
    canonical = {PHASE_COMBINED_DOWN, PHASE_REDUCE_DOWN, PHASE_GATHER_UP, PHASE_CONFIG}
    resent = obs.metrics.counter("faults.resent")
    assert resent.total() > 0
    for name in ("faults.resent", "faults.duplicates_dropped"):
        phases = {labels["phase"] for labels, _ in obs.metrics.counter(name).items()}
        assert phases <= canonical, (name, phases)
