"""Executable error-bound quantities: the gamma moment bound and rates.

gamma bounds the L^r norm of X = 1/(a + max(0, b - W)) for a subgaussian W
with tail P(W >= t) <= exp(-t^2 / K^2). Splitting the expectation at W < b/2,
W in [b/2, b] and W > b gives three explicit terms; a Monte Carlo oracle
checks that the instantiated constants really dominate the empirical moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GammaParams:
    """Moment order r and the geometry 0 < a < b with subgaussian scale K.

    In the estimator analysis a plays the clipping floor and b the excitation
    level net of the floor, so gamma evaluates how hard the clipped inverse's
    tails can bite.
    """

    r: float
    a: float
    b: float
    K: float

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"moment order r must be >= 1, got {self.r}")
        if not 0 < self.a < self.b:
            raise ValueError(f"need 0 < a < b, got a={self.a}, b={self.b}")
        if not self.K > 0:
            raise ValueError(f"subgaussian scale K must be positive, got {self.K}")


@dataclass(frozen=True)
class GammaValue:
    head: float
    body: float
    tail: float

    @property
    def total(self) -> float:
        return self.head + self.body + self.tail


def gamma(params: GammaParams) -> GammaValue:
    """Head/body/tail decomposition of the clipped-inverse moment bound.

    head = 2/b is the typical-case contribution (W small, X close to 1/b);
    body covers the crossover region via a Gaussian integral, and tail is
    the probability that W exceeds b, where X saturates at 1/a.
    """
    r, a, b, K = params.r, params.a, params.b, params.K
    head = 2.0 / b
    exponent = K**2 * (r + 1.0) ** 2 * math.log(a / b) ** 2 / (4.0 * r * (b - a) ** 2)
    prefactor = (r * K * math.sqrt(math.pi)) ** (1.0 / r) / b ** (2.0 * (1.0 + 1.0 / r))
    # for K far above b the crossover term saturates; an infinite bound is
    # still a bound, and head + tail already cover that regime
    body = prefactor * math.exp(exponent) if exponent < 700.0 else math.inf
    tail = math.exp(-(b**2) / (r * K**2)) / a
    return GammaValue(head=head, body=body, tail=tail)


def mc_check_gamma(params: GammaParams, trials: int, seed: int) -> dict:
    """Empirical L^r moment of X versus the gamma bound.

    W is drawn half-normal with scale K/sqrt(2), the heaviest tail still
    satisfying P(W >= t) <= exp(-t^2/K^2) up to constants, so the check
    stresses the bound without leaving its hypothesis. A ratio above 1 means
    the instantiated constants are wrong.
    """
    if trials < 10_000:
        raise ValueError(f"need at least 1e4 trials, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    r, a, b, K = params.r, params.a, params.b, params.K
    rng = np.random.default_rng(seed)
    W = np.abs(rng.normal(0.0, K / math.sqrt(2.0), size=trials))
    X = 1.0 / (a + np.maximum(0.0, b - W))
    empirical = float(np.mean(X**r) ** (1.0 / r))
    bound = gamma(params).total
    return {"empirical_Lr": empirical, "bound": bound, "ratio": empirical / bound}


def corollary_rate(n: int, h: float, p: int, d: int) -> float:
    """Two-term estimation-error rate at the ideal window scaling.

    The first term h^((p-d)/(2p+1)) is the filter bias at the ideal window,
    the second sqrt(1/(n h^(2p/(2p+1)))) the averaged noise.
    """
    if n < 1 or not h > 0:
        raise ValueError("need n >= 1 and h > 0")
    if d not in (0, 1):
        raise ValueError(f"derivative order d must be 0 or 1, got {d}")
    if d >= p:
        raise ValueError(f"need d < p, got d={d}, p={p}")
    bias = h ** ((p - d) / (2.0 * p + 1.0))
    noise = math.sqrt(1.0 / (n * h ** (2.0 * p / (2.0 * p + 1.0))))
    return bias + noise


def ideal_window(h: float, p: int) -> float:
    """Window size balancing filter bias against averaged noise.

    Returns h^(-2p/(2p+1)); callers round to an even integer.
    """
    if not 0 < h < 1:
        raise ValueError(f"need h in (0, 1), got {h}")
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    return h ** (-2.0 * p / (2.0 * p + 1.0))

