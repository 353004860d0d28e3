"""Minimum-norm local polynomial filters.

A filter here is a linear stencil over N equispaced samples f(h), f(2h), ...,
f(Nh) that estimates the d-th derivative of f at an arbitrary (possibly
off-grid) target location i0*h. The stencil is exact on all polynomials of
degree < p and, among all stencils with that property, has minimal Frobenius
norm. Low norm is what keeps noise amplification at the theoretical
N**(-d-1/2) * h**(-d) scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre


class FilterRankError(ValueError):
    """The exactness constraints cannot all be satisfied (p exceeds N)."""


class FilterConditioningError(RuntimeError):
    """The constraint solve did not reach the required relative residual."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"filter constraint residual {residual:.3e} exceeds tolerance {tol:.1e}; "
            "reduce the exactness degree p or enlarge the window"
        )


#: Relative residual above which build_filter refuses to return weights.
SOLVE_TOL = 1e-8


@dataclass(frozen=True)
class FilterSpec:
    """Geometry and order parameters of one stencil.

    Attributes:
        window_size: number of samples N in the window.
        step: grid spacing h > 0.
        location: target location i0 in grid units; the stencil estimates
            derivatives at the point i0 * h. May be fractional (off-grid) but
            must lie in (0, N + 1); extrapolating stencils blow up in norm.
        derivative_order: the derivative d this filter is meant to produce.
        exactness_degree: p; the stencil reproduces polynomials of degree
            <= p - 1 exactly.
        max_derivative: m; coefficient rows are built for all orders 0..m.
            Defaults to derivative_order.
    """

    window_size: int
    step: float
    location: float
    derivative_order: int
    exactness_degree: int
    max_derivative: int | None = None

    def __post_init__(self):
        if self.max_derivative is None:
            object.__setattr__(self, "max_derivative", self.derivative_order)
        N, h, i0 = self.window_size, self.step, self.location
        d, p, m = self.derivative_order, self.exactness_degree, self.max_derivative
        if N < 1:
            raise ValueError(f"window_size must be positive, got {N}")
        if not h > 0:
            raise ValueError(f"step must be positive, got {h}")
        if p < 1:
            raise ValueError(f"exactness_degree must be positive, got {p}")
        if p > N:
            raise FilterRankError(
                f"exactness degree p={p} needs at least p samples, window has {N}"
            )
        if not 0 <= d <= m:
            raise ValueError(f"need 0 <= d <= m, got d={d}, m={m}")
        if not m < p:
            raise ValueError(f"max_derivative m={m} must be < exactness_degree p={p}")
        if not 0 < i0 < N + 1:
            raise ValueError(f"location i0={i0} outside the window range (0, {N + 1})")


@dataclass(frozen=True)
class FilterWeights:
    """A solved stencil: row d holds the weights for the d-th derivative."""

    spec: FilterSpec
    coefficients: np.ndarray  # (m + 1, N), read-only

    def __post_init__(self):
        m, N = self.spec.max_derivative, self.spec.window_size
        if self.coefficients.shape != (m + 1, N):
            raise ValueError(
                f"coefficient shape {self.coefficients.shape} != ({m + 1}, {N})"
            )


def _legendre_derivatives(u0: float, p: int, m: int) -> np.ndarray:
    """Derivatives (orders 0..m) of the first p Legendre polynomials at u0."""
    out = np.empty((m + 1, p))
    coeffs = np.eye(p)  # column j = coefficients of P_j
    for order in range(m + 1):
        out[order] = legendre.legval(u0, coeffs)
        coeffs = legendre.legder(coeffs)
        if coeffs.shape[0] == 0:  # legder of constants
            coeffs = np.zeros((1, p))
    return out


def build_filter(spec: FilterSpec) -> FilterWeights:
    """Solve for the minimum-norm stencil satisfying the exactness constraints.

    The exactness conditions "reproduce every polynomial of degree < p and its
    derivatives at i0*h" are a p x N linear system in the weights. Stated on
    monomials the normal matrix is a Hilbert matrix and hopeless in double
    precision, so the constraints are re-expressed in the Legendre basis on
    the window mapped to [-1, 1]; the constraint set (and hence the min-norm
    solution) is the same, only the conditioning changes.

    Args:
        spec: filter geometry and orders.

    Returns:
        FilterWeights with one row per derivative order 0..m.

    Raises:
        FilterRankError: p > N (infeasible constraints).
        FilterConditioningError: the solve's relative residual exceeds
            SOLVE_TOL, typically because p is too large for double precision.
    """
    N, h = spec.window_size, spec.step
    p, m = spec.exactness_degree, spec.max_derivative

    if N == 1:
        # Single sample: FilterSpec validation forces p = 1, m = 0 here;
        # the stencil is the identity.
        return FilterWeights(spec=spec, coefficients=_frozen(np.ones((1, 1))))

    # Map grid points k*h (k = 1..N) to u in [-1, 1]; u = (2k - N - 1)/(N - 1).
    k = np.arange(1, N + 1)
    u = (2.0 * k - N - 1.0) / (N - 1.0)
    u0 = (2.0 * spec.location - N - 1.0) / (N - 1.0)

    # Constraints in the Legendre basis: for each basis polynomial P_j and
    # each order r, sum_k w_rk P_j(u_k) = d^r/dx^r [P_j(u(x))] at x = i0*h.
    # The chain rule brings in (du/dx)^r = (2 / ((N-1) h))^r.
    A = legendre.legvander(u, p - 1)  # (N, p)
    B = _legendre_derivatives(u0, p, m)  # (m + 1, p)
    scale = 2.0 / ((N - 1.0) * h)
    B *= scale ** np.arange(m + 1)[:, None]

    # Underdetermined A.T w = b per row; lstsq returns the min-norm solution.
    coeffs, *_ = np.linalg.lstsq(A.T, B.T, rcond=None)
    coeffs = coeffs.T  # (m + 1, N)

    residual = np.linalg.norm(A.T @ coeffs.T - B.T)
    rel = residual / max(np.linalg.norm(B), 1.0)
    if not rel <= SOLVE_TOL:
        raise FilterConditioningError(float(rel), SOLVE_TOL)

    return FilterWeights(spec=spec, coefficients=_frozen(coeffs))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr

