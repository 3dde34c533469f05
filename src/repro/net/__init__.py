"""Real-execution backends: the protocol outside the simulator.

:class:`LocalKylix` runs one OS process per logical node over
non-blocking socket-pair links, every send and receive on the node's
one thread; :class:`TcpKylix` is its socket twin — every message
crosses a real loopback TCP connection with framing, heartbeats, and
reconnect.  Both run the simulator's own protocol core
and exchange step (:mod:`repro.allreduce.core`) over the exact same wire
medium (:mod:`repro.net.protocol`) under the exact same reliability layer
(:mod:`repro.net.transport`), so fault semantics, typed failures,
degraded completion, and observability cannot drift between mediums —
the existence proof that Kylix "can be run self-contained" (§I-B) on a
commodity cluster.  One driver (:class:`~repro.net.base.KylixDriver`)
runs the sessions of every real backend: the two above fork their
nodes; :class:`~repro.net.cluster.ClusterKylix`, in the standalone
cluster harness (launcher, node server, failure-mode driver) of
:mod:`repro.net.cluster`, attaches to a launched cluster's.

Use the simulator for performance studies; use these to sanity-check
the protocol against real concurrency and real sockets.
"""

from .local import LocalKylix
from .tcp import TcpKylix

__all__ = ["LocalKylix", "TcpKylix"]
