"""Distributed minibatch SGD for logistic regression (§I-A-1).

"If the mini-batch involves a subset of features, then a gradient update
commonly uses input only from, and only makes updates to, the subset of
the model that is projected onto those features."  The model is sharded
by *home* feature ranges (every feature "has a home machine which always
sends and receives that feature"); each step runs two sparse allreduces
whose in/out sets change with the minibatch — the workload for which the
paper recommends doing configuration and reduction concurrently:

1. **fetch** — homes contribute current weights for their features; every
   node requests the features its minibatch touches;
2. **push** — nodes contribute minibatch gradients; homes receive the
   summed gradient for their features and apply the update.

Per-feature occurrence follows a power law, so minibatch index sets have
exactly the statistics the network-design analysis (§IV) assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from ..allreduce import ReduceSpec
from ..data import Minibatch
from .session import reduce_pattern

__all__ = ["DistributedSGD", "ServiceSGD", "SGDResult", "logistic_loss"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss(margins: np.ndarray) -> float:
    """Mean logistic loss from per-example margins ``y · (x·w)``."""
    return float(np.mean(np.logaddexp(0.0, -margins)))


@dataclass
class SGDResult:
    weights: np.ndarray  # assembled global model (driver-side view)
    losses: List[float] = field(default_factory=list)  # pre-update batch losses
    comm_time: float = 0.0
    steps: int = 0


class _HomeModel:
    """A logistic-regression model sharded by home: feature ``f`` lives on
    node ``f % m``, which always sends and receives it."""

    def __init__(self, n_features: int, m: int, learning_rate: float):
        if n_features <= 0:
            raise ValueError("n_features must be positive")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.n_features = n_features
        self.lr = learning_rate
        self._home = {
            r: np.arange(r, n_features, m, dtype=np.int64) for r in range(m)
        }
        self._weights = {r: np.zeros(h.size) for r, h in self._home.items()}

    def _apply(self, summed: Dict[int, np.ndarray]) -> None:
        """The homes apply a summed gradient."""
        for r in self._weights:
            self._weights[r] -= self.lr * summed[r]

    def assemble_weights(self) -> np.ndarray:
        out = np.zeros(self.n_features)
        for r, h in self._home.items():
            out[h] = self._weights[r]
        return out


def _loss_and_gradient(b: Minibatch, w: np.ndarray) -> Tuple[float, np.ndarray]:
    """Batch ``b``'s logistic loss at weights ``w`` (aligned with
    ``b.features``) and its gradient."""
    margins = b.labels * (b.matrix @ w)
    coeff = -b.labels * _sigmoid(-margins) / b.batch_size
    return logistic_loss(margins), b.matrix.T @ coeff


def _same_lengths(streams: Dict[int, List[Minibatch]]) -> int:
    lengths = {len(v) for v in streams.values()}
    if len(lengths) != 1:
        raise ValueError("every node needs the same number of batches")
    return lengths.pop()


class DistributedSGD(_HomeModel):
    """Synchronous minibatch SGD over two sparse allreduces per step."""

    def __init__(
        self,
        net: Any,
        n_features: int,
        *,
        learning_rate: float = 0.1,
        combined: bool = False,
    ):
        super().__init__(n_features, net.size, learning_rate)
        self.net = net
        self.combined = combined

    # -- steps ------------------------------------------------------------
    def step(self, batches: Dict[int, Minibatch]) -> float:
        """One synchronous SGD step over per-node minibatches.

        Returns the mean pre-update logistic loss across nodes.
        """
        feats = {r: batches[r].features for r in self._home}

        # 1. fetch current weights for the batch features.  With combined
        # messages (§III) the index and value parts ride together — one
        # network traversal instead of two per allreduce.
        fetch_spec = ReduceSpec(in_indices=feats, out_indices=dict(self._home), op="sum")
        fetched = reduce_pattern(self.net, fetch_spec, self._weights, combined=self.combined)

        # 2. local gradients + loss
        losses, grads = [], {}
        for r in self._home:
            loss, grads[r] = _loss_and_gradient(batches[r], fetched[r])
            losses.append(loss)

        # 3. push gradients back to the homes, which apply the update
        push_spec = ReduceSpec(in_indices=dict(self._home), out_indices=feats, op="sum")
        self.net.strict_coverage = False  # untouched home features get 0
        self._apply(reduce_pattern(self.net, push_spec, grads, combined=self.combined))
        return float(np.mean(losses))

    def run(self, streams: Dict[int, List[Minibatch]]) -> SGDResult:
        """Train over per-node batch lists (all the same length)."""
        n_steps = _same_lengths(streams)
        t0 = self.net.now
        losses = [self.step({r: streams[r][i] for r in streams}) for i in range(n_steps)]
        return SGDResult(
            weights=self.assemble_weights(),
            losses=losses,
            comm_time=self.net.now - t0,
            steps=n_steps,
        )


class ServiceSGD(_HomeModel):
    """Parameter-server SGD through :class:`~repro.service.ReduceService`.

    The serving-layer counterpart of :class:`DistributedSGD`: each node's
    minibatches touch a *fixed* feature pattern (see
    :class:`~repro.data.FixedPatternStream`), so the gradient-push spec
    is identical on every step — the service's config cache serves every
    push after the first miss, and an epoch's pushes run as one
    *pipelined* train of reduces (reduce ``k+1``'s scatter overlapping
    reduce ``k``'s allgather).  Any backend of the service serves it;
    ``comm_time`` is in its streams' clock.

    Weight fetches happen driver-side against the assembled model (the
    parameter-server view: the driver owns the homes' shards between
    epochs), which makes the epoch a stale-synchronous update — every
    batch's gradient is taken at epoch-start weights, then the homes
    apply the summed per-batch updates in submission order.
    """

    def __init__(
        self,
        service,
        n_features: int,
        *,
        learning_rate: float = 0.1,
        stream_name: str = "sgd.push",
        depth: int = 2,
    ):
        super().__init__(n_features, int(np.prod(service.degrees)), learning_rate)
        self.service = service
        self.stream_name = stream_name
        self.depth = depth
        self._stream = None

    def _open(self, streams: Dict[int, List[Minibatch]]):
        """The push stream of ``streams``' fixed feature pattern, opened
        on first use."""
        _same_lengths(streams)
        feats = {r: streams[r][0].features for r in streams}
        for r, batches in streams.items():
            for b in batches:
                if not np.array_equal(b.features, feats[r]):
                    raise ValueError(
                        "ServiceSGD needs fixed per-node feature patterns "
                        "(use FixedPatternStream)"
                    )
        if self._stream is None:
            push_spec = ReduceSpec(
                in_indices=dict(self._home), out_indices=feats, op="sum"
            )
            self._stream = self.service.open_stream(self.stream_name, push_spec)
            # Untouched home features legitimately receive the identity.
            self._stream.net.strict_coverage = False
        return self._stream

    def run_epoch(self, streams: Dict[int, List[Minibatch]]) -> List[float]:
        """One epoch: gradients at epoch-start weights, pipelined pushes.

        ``streams[r]`` must all share one fixed feature pattern and one
        length.  Returns the per-batch mean losses (at epoch-start
        weights).
        """
        stream = self._open(streams)
        w = self.assemble_weights()
        losses, grad_rounds = [], []
        for k in range(len(streams[0])):
            batch_losses, grads = [], {}
            for r in self._home:
                b = streams[r][k]
                loss, grads[r] = _loss_and_gradient(b, w[b.features])
                batch_losses.append(loss)
            losses.append(float(np.mean(batch_losses)))
            grad_rounds.append(grads)
        for summed in self.service.submit_pipelined(stream, grad_rounds, depth=self.depth):
            self._apply(summed)
        return losses

    def run(
        self, streams: Dict[int, List[Minibatch]], *, epochs: int = 1
    ) -> SGDResult:
        """Train ``epochs`` passes over the fixed-pattern batch lists."""
        net = self._open(streams).net
        t0 = net.now
        losses: List[float] = []
        for _ in range(epochs):
            losses.extend(self.run_epoch(streams))
        return SGDResult(
            weights=self.assemble_weights(),
            losses=losses,
            comm_time=net.now - t0,
            steps=len(losses),
        )
