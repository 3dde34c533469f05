"""The simulator's message timeline: one delivered event per message,
read from the cluster's observer (``obs.messages``)."""

import numpy as np
import pytest

from repro.allreduce import KylixAllreduce, ReduceSpec
from repro.cluster import Cluster


def run_allreduce(cluster, m=8, n=200, degrees=(4, 2)):
    rng = np.random.default_rng(1)
    idx = {
        r: np.unique(np.concatenate([rng.choice(n, 30), np.arange(r, n, m)]))
        for r in range(m)
    }
    spec = ReduceSpec(idx, idx)
    vals = {r: np.ones(idx[r].size) for r in range(m)}
    KylixAllreduce(cluster, list(degrees)).allreduce(spec, vals)


class TestTraceRecorder:
    @pytest.fixture()
    def traced(self):
        cluster = Cluster(8, observe=True)
        run_allreduce(cluster)
        return cluster, cluster.obs.messages

    def test_every_message_recorded(self, traced):
        cluster, messages = traced
        assert len(messages) == cluster.stats.total_messages()

    def test_records_have_consistent_times(self, traced):
        _, messages = traced
        for ev in messages:
            assert ev.delivered_at is not None
            assert ev.delivered_at >= ev.sent_at >= 0

    def test_phases_present(self, traced):
        _, messages = traced
        phases = {ev.phase for ev in messages}
        assert phases == {"config", "reduce_down", "gather_up"}

    def test_phase_spans_ordered(self, traced):
        _, messages = traced
        first_send = {}
        for ev in messages:
            first_send[ev.phase] = min(first_send.get(ev.phase, ev.sent_at), ev.sent_at)
        assert first_send["config"] < first_send["reduce_down"] < first_send["gather_up"]
