"""The program under test: every public name the benchmark calls, in one place.

Importing this module is what binds the benchmark to the ``src/`` of its own
checkout; nothing else in perfbench imports ``repro``.
"""

from . import use_checkout_source

use_checkout_source()

from repro import Cluster, KylixAllreduce, ReduceSpec, dense_reduce  # noqa: E402
from repro.allreduce import ButterflyTopology  # noqa: E402
from repro.net import LocalKylix, TcpKylix  # noqa: E402
from repro.net.framing import FrameDecoder, encode_frame  # noqa: E402
from repro.obs import Observer  # noqa: E402
from repro.service import ReduceService, spec_fingerprint  # noqa: E402
from repro.simul import Engine, Store  # noqa: E402
from repro.sparse import KeyRange, MultiplicativeHasher, split_sorted, union_with_maps  # noqa: E402

__all__ = [
    "Cluster",
    "KylixAllreduce",
    "ReduceSpec",
    "dense_reduce",
    "ButterflyTopology",
    "LocalKylix",
    "TcpKylix",
    "FrameDecoder",
    "encode_frame",
    "Observer",
    "ReduceService",
    "spec_fingerprint",
    "Engine",
    "Store",
    "KeyRange",
    "MultiplicativeHasher",
    "split_sorted",
    "union_with_maps",
]
