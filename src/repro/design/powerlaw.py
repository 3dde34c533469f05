"""Power-law density model (§IV, Proposition 4.1, Figure 4).

The paper models the frequency of rank-``r`` features in a node's sparse
vector as ``f_r ~ Poisson(λ r^-α)``.  The probability that feature ``r``
appears at least once is ``1 - exp(-λ r^-α)``, so the expected *density*
(fraction of the ``n`` features present) is

    f(λ) = (1/n) Σ_{r=1..n} (1 - exp(-λ r^-α)).

Proposition 4.1: at butterfly layer ``i`` the node's partial is a sum of
``K_i = d_1 ⋯ d_{i-1}`` initial partitions, so its Poisson rate scales to
``K_i λ₀``; its density is ``f(K_i λ₀)`` over a range of ``n / K_i``
features, giving per-node data ``P_i = (n/K_i) · f(K_i λ₀)`` elements.

``n`` reaches billions (the Yahoo graph), so the rank sum is evaluated
exactly over the head and by log-space trapezoid quadrature over the tail —
the integrand is smooth and monotone, making this accurate to ~1e-6 while
staying O(thousands) of evaluations.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "density",
    "invert_density",
    "layer_scale_factors",
    "PowerLawModel",
]

_EXACT_HEAD = 1 << 14
_TAIL_POINTS = 2048


def _term(lam: float, alpha: float, r: np.ndarray) -> np.ndarray:
    return -np.expm1(-lam * np.power(r, -alpha))


def density(lam: float, alpha: float, n: int) -> float:
    """Expected vector density ``f(λ)`` for ``n`` features, exponent ``α``.

    This is the curve of Fig 4 (x: scaling factor λ, y: density).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if lam == 0.0:
        return 0.0
    head = min(n, _EXACT_HEAD)
    r_head = np.arange(1, head + 1, dtype=np.float64)
    total = float(_term(lam, alpha, r_head).sum())
    if n > head:
        # Tail: integrate 1-exp(-λ r^-α) over [head+0.5, n+0.5] in log space.
        lo, hi = head + 0.5, n + 0.5
        u = np.linspace(np.log(lo), np.log(hi), _TAIL_POINTS)
        r = np.exp(u)
        total += float(np.trapezoid(_term(lam, alpha, r) * r, u))
    return min(1.0, total / n)


def invert_density(target: float, alpha: float, n: int) -> float:
    """Solve ``f(λ) = target`` for λ (the measurable anchor λ₀ of §IV).

    The workflow measures the initial partition density ``D₀`` and reads
    the scaling factor off the curve; this is the numeric equivalent.
    """
    from scipy.optimize import brentq

    if not 0.0 < target < 1.0:
        raise ValueError("target density must lie strictly in (0, 1)")
    lo, hi = -14.0, 16.0  # log10(lambda) bracket

    def g(log_lam: float) -> float:
        return density(10.0**log_lam, alpha, n) - target

    if g(lo) > 0 or g(hi) < 0:
        raise ValueError("target density outside the representable range")
    return 10.0 ** brentq(g, lo, hi, xtol=1e-12, rtol=1e-12)


def layer_scale_factors(degrees) -> list[int]:
    """``K_i = d_1 ⋯ d_{i-1}`` for layers ``1..l`` plus the bottom ``K_{l+1}``.

    ``K_1 = 1`` (layer-1 messages carry raw partitions); the final entry
    is the full product — the scale of the fully-reduced bottom layer.
    """
    out = [1]
    for d in degrees:
        if d < 1:
            raise ValueError("degrees must be >= 1")
        out.append(out[-1] * int(d))
    return out


class PowerLawModel:
    """A (n, α, λ₀) power-law dataset model with Prop-4.1 predictions."""

    def __init__(self, n_features: int, alpha: float, lambda0: float):
        if n_features <= 0 or lambda0 < 0:
            raise ValueError("bad model parameters")
        self.n_features = int(n_features)
        self.alpha = float(alpha)
        self.lambda0 = float(lambda0)

    @classmethod
    def from_initial_density(
        cls, d0: float, alpha: float, n_features: int
    ) -> "PowerLawModel":
        """Anchor the model at a *measured* initial partition density."""
        return cls(n_features, alpha, invert_density(d0, alpha, n_features))

    def density_at_scale(self, k: float) -> float:
        """Density of a union of ``k`` initial partitions: ``f(k·λ₀)``."""
        if k <= 0:
            raise ValueError("scale must be positive")
        return density(k * self.lambda0, self.alpha, self.n_features)

    @property
    def initial_density(self) -> float:
        return self.density_at_scale(1.0)

    def layer_densities(self, degrees) -> list[float]:
        """Proposition 4.1 ``D_i`` for ``i = 1..l+1`` (last = bottom layer)."""
        return [self.density_at_scale(k) for k in layer_scale_factors(degrees)]

    def layer_node_elements(self, degrees) -> list[float]:
        """Per-node element counts ``P_i = (n/K_i)·f(K_i λ₀)``, plus bottom."""
        return [
            self.density_at_scale(k) * self.n_features / k
            for k in layer_scale_factors(degrees)
        ]
