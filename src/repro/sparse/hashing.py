"""Bijective index hashing for balanced range partitioning.

The paper partitions index sets "into equal-size ranges of indices (this is
unbalanced in general but we ensure that the original indices are hashed to
the values used for partitioning)" (§III-A).  Power-law data is heavily
skewed towards low indices, so raw-range partitioning would overload the
range holding the head features; hashing first spreads the head uniformly
over the key space.

We use a multiplicative (Fibonacci) hash over the 64-bit ring, which is a
*bijection* — every hashed key maps back to exactly one original index, so
protocols can work entirely in hash space (where ranges are contiguous in
sorted order) and invert at the end.
"""

from __future__ import annotations

import numpy as np

__all__ = ["IndexHasher", "MultiplicativeHasher", "IdentityHasher"]

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
# 2^64 / golden ratio, forced odd => invertible mod 2^64.
_FIB_MULT = 0x9E3779B97F4A7C15
_FIB_INV = pow(_FIB_MULT, -1, 1 << 64)


class IndexHasher:
    """Interface: a bijection between original indices and hashed keys."""

    #: total size of the key space; partition ranges live in [0, key_space)
    key_space: int = 1 << 64

    def hash(self, indices: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def unhash(self, keys: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class MultiplicativeHasher(IndexHasher):
    """Fibonacci multiplicative hashing on the 64-bit ring.

    ``hash(x) = (mult * x) mod 2^64`` with an odd multiplier, which is
    invertible; low-discrepancy for consecutive indices, which is exactly
    the power-law head case we care about.
    """

    def __init__(self, multiplier: int = _FIB_MULT):
        if multiplier % 2 == 0:
            raise ValueError("multiplier must be odd to be invertible mod 2^64")
        self._mult = np.uint64(multiplier)
        self._inv = np.uint64(pow(multiplier, -1, 1 << 64))

    @property
    def multiplier(self) -> int:
        """The odd multiplier: with it a hasher is fully determined, so it
        is what plan fingerprints key on."""
        return int(self._mult)

    def hash(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices)
        if idx.size and idx.min() < 0:
            raise ValueError("indices must be non-negative")
        with np.errstate(over="ignore"):
            return idx.astype(np.uint64) * self._mult

    def unhash(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        with np.errstate(over="ignore"):
            back = keys * self._inv
        return back.astype(np.int64)


class IdentityHasher(IndexHasher):
    """No-op hash over a bounded key space — handy for readable tests.

    ``key_space`` must upper-bound every index that will ever be hashed;
    partition boundaries are computed inside ``[0, key_space)``.
    """

    def __init__(self, key_space: int):
        if key_space <= 0:
            raise ValueError("key_space must be positive")
        self.key_space = int(key_space)

    def hash(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices)
        if idx.size:
            if idx.min() < 0:
                raise ValueError("indices must be non-negative")
            if int(idx.max()) >= self.key_space:
                raise ValueError("index outside the declared key space")
        return idx.astype(np.uint64)

    def unhash(self, keys: np.ndarray) -> np.ndarray:
        return np.asarray(keys, dtype=np.uint64).astype(np.int64)
