"""Deadline/retry policy for sparse-allreduce receives.

The paper's environment — "networks with modest bandwidth and high (and
variable) latency" — makes a fixed receive timeout either far too tight
(false timeouts under jitter) or far too loose (hangs on real loss).  A
:class:`RetryPolicy` instead *derives* per-receive deadlines from the
netmodel's latency envelope: the deterministic transfer time of the
expected message plus a tail allowance for the lognormal jitter, scaled
up with exponential backoff on each retry.  The same policy object drives
both backends, so a schedule that converges in the simulator converges on
real processes too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RetryPolicy", "derive_timeout", "DEFAULT_LOCAL_BASE_TIMEOUT"]

#: Wall-clock base for the first receive attempt on the real-execution
#: backends (seconds).  Loopback pipes and sockets are fast; the backoff
#: ladder covers slow CI machines.
DEFAULT_LOCAL_BASE_TIMEOUT = 0.25


def derive_timeout(params, nbytes: int, *, scale: float = 8.0, floor: float = 1e-4) -> float:
    """One-attempt receive deadline for an ``nbytes`` message on ``params``.

    Envelope = per-message overhead + one-way propagation + serialization,
    inflated by the lognormal tails: a mean-1 lognormal with parameter
    ``sigma`` has its ~99.9th percentile near ``exp(3*sigma)``, so we
    multiply the deterministic time by that tail factor before applying
    the caller's safety ``scale``.  ``floor`` guards the zero-latency /
    zero-byte corner so deadlines never collapse to 0.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    base = params.message_overhead + params.base_latency + nbytes / params.bandwidth
    sigma = max(params.latency_sigma, params.service_sigma)
    tail = math.exp(3.0 * sigma)
    return max(floor, base * tail * scale)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retransmission with exponential backoff.

    Attributes
    ----------
    max_retries:
        Resend requests issued after the first deadline expires before
        the receiver declares the peer failed.  Total attempts are
        ``max_retries + 1``.
    backoff:
        Multiplier applied to the deadline after each expiry.
    base_timeout:
        Fixed first-attempt deadline in seconds.  ``None`` (the default)
        derives it per-message from the network parameters via
        :func:`derive_timeout`.
    timeout_scale:
        Safety factor handed to :func:`derive_timeout` when deriving.
    jitter:
        Fraction in ``[0, 1]`` of each deadline added as *seeded,
        deterministic* jitter.  Receivers that all lost the same message
        (a peer rebooting, a switch hiccup) would otherwise time out in
        lockstep and stampede the recovering peer with synchronized
        NACKs; jitter desynchronizes the retry wave.  ``0.0`` (the
        default) leaves every deadline bit-identical to a jitter-free
        policy — the fault schedule, the traffic, and the trace do not
        change.
    jitter_seed:
        Seed for the jitter draws.  The draw is a pure function of
        ``(jitter_seed, attempt, salt)``, so identical configurations
        retry at identical instants across runs and backends.
    """

    max_retries: int = 4
    backoff: float = 2.0
    base_timeout: float | None = None
    timeout_scale: float = 8.0
    jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.base_timeout is not None and self.base_timeout <= 0:
            raise ValueError("base_timeout must be positive")
        if self.timeout_scale <= 0:
            raise ValueError("timeout_scale must be positive")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.jitter_seed < 0:
            raise ValueError("jitter_seed must be non-negative")

    def _jitter_factor(self, attempt: int, salt: tuple = ()) -> float:
        """Deterministic multiplier in ``[1, 1 + jitter]`` for one deadline.

        A pure function of ``(jitter_seed, attempt, salt)`` — the same
        coordinates the fault oracle uses — so runs are reproducible and
        the two real-execution backends draw identical jitter for the
        same protocol position.
        """
        if self.jitter == 0.0:
            return 1.0
        rng = np.random.default_rng(
            [self.jitter_seed, attempt + 1, *(int(s) + 1 for s in salt)]
        )
        return 1.0 + self.jitter * float(rng.random())

    def timeout_for(
        self, params, nbytes: int, attempt: int = 0, salt: tuple = ()
    ) -> float:
        """Deadline for attempt ``attempt`` (0-based) of one receive."""
        if self.base_timeout is not None:
            first = self.base_timeout
        else:
            first = derive_timeout(params, nbytes, scale=self.timeout_scale)
        return first * self.backoff**attempt * self._jitter_factor(attempt, salt)

    def local_timeout(self, attempt: int = 0, salt: tuple = ()) -> float:
        """Wall-clock deadline for the real-execution backends.

        There is no netmodel envelope to derive from on a real host, so
        the first attempt is ``base_timeout`` (or
        :data:`DEFAULT_LOCAL_BASE_TIMEOUT`) and each retry scales it by
        ``backoff``, plus the seeded jitter.
        """
        base = (
            self.base_timeout
            if self.base_timeout is not None
            else DEFAULT_LOCAL_BASE_TIMEOUT
        )
        return base * self.backoff**attempt * self._jitter_factor(attempt, salt)

    def local_budget(self) -> float:
        """Worst-case wall time one receive can take on a real backend.

        The sum of every attempt's maximum deadline (jitter included).
        A finished node's linger window is derived from this, so an
        aggressive retry configuration (many retries, steep backoff)
        can never outlive it — the window grows with the policy instead
        of being a hard-coded constant.
        """
        base = (
            self.base_timeout
            if self.base_timeout is not None
            else DEFAULT_LOCAL_BASE_TIMEOUT
        )
        ladder = sum(
            base * self.backoff**attempt
            for attempt in range(self.max_retries + 1)
        )
        return ladder * (1.0 + self.jitter)

    def total_budget(self, params, nbytes: int) -> float:
        """Worst-case wall time before a receive gives up — the bound the
        acceptance criteria ("no run hangs past its deadline bound") refer
        to.  Jitter is counted at its maximum, so the bound holds for
        every seed."""
        if self.base_timeout is not None:
            first = self.base_timeout
        else:
            first = derive_timeout(params, nbytes, scale=self.timeout_scale)
        ladder = sum(
            first * self.backoff**attempt
            for attempt in range(self.max_retries + 1)
        )
        return ladder * (1.0 + self.jitter)
