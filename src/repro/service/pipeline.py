"""Minibatch pipelining: overlap reduce ``k+1``'s scatter with ``k``'s allgather.

A Kylix reduction is a downward scatter-add through the memoised maps
followed by an upward allgather (§III).  The two halves touch disjoint
state — the down pass reads ``out`` routes and produces the bottom
partial, the up pass reads ``in`` routes and the projected partial — so
consecutive reduces over the *same* configuration can overlap: while
reduce ``k``'s allgather is still climbing, reduce ``k+1``'s scatter
starts descending.  Message tags carry the protocol instance number, so
interleaved rounds cannot cross-talk.

:func:`pipelined_reduces` runs a batch of value sets through one
simulated-cluster run with exactly that overlap: per node, each down
pass runs inline and its up pass is spawned as a child process, with at
most ``depth`` allgathers in flight (the admission bound — an unbounded
pipeline would just queue every batch at once and model nothing).
Results are bit-identical to sequential :meth:`~repro.allreduce.
KylixAllreduce.reduce` calls because every merge is driven by the
memoised position maps, never by arrival order.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from ..simul import AllOf, AnyOf

__all__ = ["pipelined_reduces"]


def pipelined_reduces(
    net,
    batches: Sequence[Mapping[int, np.ndarray]],
    *,
    depth: int = 2,
) -> List[Dict[int, np.ndarray]]:
    """Run ``batches`` through a configured simulator-backend net, with
    reduce ``k+1``'s down pass overlapping reduce ``k``'s up pass.

    ``net`` is a :class:`~repro.allreduce.KylixAllreduce` whose
    :meth:`configure` (or :meth:`adopt_plans`) already ran; ``depth``
    bounds the number of in-flight allgathers per node.  Returns one
    ``{rank: values}`` dict per batch, aligned with the spec's in-sets.
    """
    if net.spec is None or not net.plans:
        raise RuntimeError("configure() or adopt_plans() must run before pipelining")
    if net.degrade:
        raise ValueError("pipelined reduces support non-degraded runs only")
    if depth < 1:
        raise ValueError("pipeline depth must be >= 1")
    batches = list(batches)
    if not batches:
        return []
    insts = [net.next_instance() for _ in batches]

    def proto(node):
        engine = node.engine
        ups = []
        for values, inst in zip(batches, insts):
            r, _ = yield from net.node_down(node, values, inst)
            ups.append(engine.process(net.node_up(node, r, inst)))
            del r  # the up pass holds only the parts it sends
            # Admission bound: at most `depth` allgathers in flight.
            pending = [p for p in ups if not p.triggered]
            while len(pending) >= depth:
                yield AnyOf(engine, pending)
                pending = [p for p in pending if not p.triggered]
        yield AllOf(engine, ups)
        return [p.value for p in ups]

    raw = net.cluster.run(proto)
    return [{rank: raw[rank][k] for rank in raw} for k in range(len(batches))]
