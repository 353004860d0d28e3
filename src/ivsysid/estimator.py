"""Clipped instrumental-variables estimator and least-squares baseline.

The IV estimator inverts clip(Z'X) rather than Z'X itself: raising every
singular value to at least lambda bounds the inverse by 1/lambda, so a single
badly excited direction cannot blow up the estimate. Under persistence of
excitation (sigma_min(Z'X) > lambda) the clip is inactive and the estimator
is the plain method-of-moments solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .splitfilters import DesignMatrices


class SingularDesignError(ValueError):
    """X is numerically rank deficient; carries lambda_min(X'X) as sigma_min."""

    def __init__(self, sigma_min: float, n_windows: int):
        self.sigma_min = sigma_min
        super().__init__(
            f"regressor matrix is rank deficient "
            f"(sigma_min={sigma_min:.3e}, n_windows={n_windows})"
        )


@dataclass(frozen=True)
class IvConfig:
    """Estimator hyperparameters.

    lam is the clipping floor applied to the singular values of Z'X. mu is
    the instrument truncation level; it acts upstream (rho_truncate inside
    assemble_design) and is carried here for provenance only.
    """

    lam: float
    mu: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")


@dataclass(frozen=True)
class Estimate:
    """A solved parameter matrix with excitation diagnostics.

    sigma_min_zx is the smallest singular value of the normal matrix that was
    inverted (Z'X for IV, X'X for LS) before any clipping;
    clipped_directions counts singular values raised to the floor (always 0
    for LS); condition_number is that of the inverted matrix (after clipping,
    for IV).
    """

    theta: np.ndarray
    sigma_min_zx: float
    clipped_directions: int
    method: Literal["iv", "ls"]
    condition_number: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("estimate contains non-finite entries")


def clip_singular_values(A: np.ndarray, lam: float) -> np.ndarray:
    """Raise every singular value of A to at least lam.

    The singular vectors are untouched, so ||A - clip(A)|| <= lam and the
    result satisfies sigma_min >= lam, hence ||clip(A)^-1|| <= 1/lam.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return (U * np.maximum(s, lam)) @ Vt


def iv_estimate(design: DesignMatrices, config: IvConfig) -> Estimate:
    """Instrumental-variables solve: theta = clip(Z'X)^-1 Z'Y.

    Args:
        design: assembled regression triplet.
        config: clipping floor and (recorded) truncation level.

    Returns:
        Estimate with method "iv". Deterministic given inputs.
    """
    U, s, Vt = np.linalg.svd(design.zx, full_matrices=False)
    clipped = np.maximum(s, config.lam)
    theta = Vt.T @ ((U.T @ design.zy) / clipped[:, None])
    return Estimate(
        theta=theta,
        sigma_min_zx=float(s[-1]),
        clipped_directions=int(np.sum(s < config.lam)),
        method="iv",
        condition_number=float(clipped[0] / clipped[-1]),
    )


#: Largest eigenvalue ratio of X'X solved from its eigendecomposition. The
#: normal equations lose about eps * ratio in relative accuracy (1e-8 here).
#: Above it, X'X scaled to unit diagonal must meet the same limit.
_GRAM_RATIO_LIMIT = 1e8


def ls_estimate(design: DesignMatrices) -> Estimate:
    """Ordinary least squares baseline: theta = (X'X)^-1 X'Y.

    Solves from an eigendecomposition of the moment X'X. When X'X is too
    ill-conditioned for that to be accurate, solves it scaled to unit
    diagonal, which removes the spread that the features' units add (van der
    Sluis, 1969).

    Raises:
        SingularDesignError: fewer windows than features, or X'X too
            ill-conditioned even when scaled.
    """
    xx, n = design.xx, design.n_windows
    if n < xx.shape[0]:
        raise SingularDesignError(0.0, n)
    evals, V = np.linalg.eigh(xx)
    if evals[0] * _GRAM_RATIO_LIMIT > evals[-1]:
        theta, lam_min = V @ ((V.T @ design.xy) / evals[:, None]), evals[0]
    else:
        # X'X = D S D with D^2 = diag(X'X) and S = W diag(s) W', so
        # (X'X)^-1 = B B' with B = D^-1 W diag(s)^-1/2, and 1/||B||^2 = lambda_min(X'X)
        scale = np.sqrt(np.diag(xx))
        scale[scale == 0.0] = 1.0  # a zero column leaves S singular
        s, W = np.linalg.eigh(xx / np.outer(scale, scale))
        if not s[0] * _GRAM_RATIO_LIMIT > s[-1]:
            # X'X is positive semidefinite, so a negative eigenvalue is rounding
            raise SingularDesignError(max(float(evals[0]), 0.0), n)
        B = W / (scale[:, None] * np.sqrt(s))
        theta, lam_min = B @ (B.T @ design.xy), 1.0 / np.linalg.norm(B, 2) ** 2
    return Estimate(
        theta=theta,
        sigma_min_zx=float(lam_min),
        clipped_directions=0,
        method="ls",
        condition_number=float(np.sqrt(evals[-1] / lam_min)),
    )


def excitation_check(iv: Estimate, lam: float) -> dict:
    """Plug-in persistence-of-excitation diagnostic.

    The identifiability condition lower-bounds sigma_min of E[Z'X]; the
    expectation is unobservable, so this reports the empirical sigma_min(Z'X)
    that the IV estimate iv found, and whether it clears the clipping floor
    lam.
    """
    sigma_min = iv.sigma_min_zx
    return {
        "sigma_min": sigma_min,
        "satisfied": bool(sigma_min > lam),
        "margin": sigma_min - lam,
    }
