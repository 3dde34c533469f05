"""Real-execution backends: the protocol outside the simulator.

:class:`LocalKylix` runs one OS process per logical node with pipe
transport and sender threads; :class:`TcpKylix` is its socket twin —
every message crosses a real loopback TCP connection with framing,
heartbeats, and reconnect.  Both pump the simulator's own protocol core
(:mod:`repro.allreduce.core`) through the exact same blocking driver
(:mod:`repro.net.protocol`) under the exact same reliability layer
(:mod:`repro.net.transport`), so fault semantics, typed failures,
degraded completion, and observability cannot drift between mediums —
the existence proof that Kylix "can be run self-contained" (§I-B) on a
commodity cluster.  The standalone cluster harness (launcher, node
server, failure-mode driver) lives in :mod:`repro.net.cluster`.

Use the simulator for performance studies; use these to sanity-check
the protocol against real concurrency and real sockets.
"""

from .local import LocalKylix
from .tcp import TcpKylix

__all__ = ["LocalKylix", "TcpKylix"]
