from __future__ import annotations

import math

import numpy as np
import pytest

from ivsysid.polyfilter import (
    FilterConditioningError,
    FilterRankError,
    FilterSpec,
    FilterWeights,
    build_filter,
)


def vandermonde_stencil(N: int, h: float, i0: float, d: int) -> np.ndarray:
    # Independent oracle for the square case p == N: solve the monomial
    # exactness system sum_k w_k (k*h - i0*h)^j = d!*[j == d] directly.
    k = np.arange(1, N + 1)
    x = (k - i0) * h
    A = np.vander(x, N, increasing=True).T  # row j: x**j
    b = np.zeros(N)
    b[d] = float(math.factorial(d))
    return np.linalg.solve(A, b)


def test_two_point_derivative_stencil():
    w = build_filter(FilterSpec(2, 1.0, 1.5, 1, 2))
    np.testing.assert_allclose(w.coefficients[1], [-1.0, 1.0], atol=1e-12)


def test_on_grid_interpolation_is_delta():
    w = build_filter(FilterSpec(5, 1.0, 3.0, 0, 5))
    np.testing.assert_allclose(w.coefficients[0], [0, 0, 1, 0, 0], atol=1e-9)


def test_central_difference_weights():
    h = 0.1
    w = build_filter(FilterSpec(5, h, 3.0, 1, 5))
    expected = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    np.testing.assert_allclose(w.coefficients[1], expected, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(
        w.coefficients[1], vandermonde_stencil(5, h, 3.0, 1), rtol=1e-9, atol=1e-9
    )


def test_square_system_matches_vandermonde_oracle():
    for N, h, i0, d in [(4, 0.5, 2.25, 0), (6, 0.2, 3.5, 1), (7, 1.0, 2.0, 2)]:
        w = build_filter(FilterSpec(N, h, i0, d, N, max_derivative=d))
        np.testing.assert_allclose(
            w.coefficients[d], vandermonde_stencil(N, h, i0, d), rtol=1e-7, atol=1e-9
        )


def test_sin_derivative_off_grid():
    N, h = 20, 0.05
    w = build_filter(FilterSpec(N, h, 10.5, 1, 8))
    samples = np.sin(np.arange(1, N + 1) * h)
    est = w.coefficients[1] @ samples
    assert abs(est - np.cos(10.5 * h)) < 1e-6


def test_constant_samples():
    w = build_filter(FilterSpec(9, 0.3, 4.7, 1, 6, max_derivative=1))
    c = 3.7
    samples = np.full(9, c)
    assert w.coefficients[0] @ samples == pytest.approx(c, rel=1e-10)
    row_norm = np.linalg.norm(w.coefficients[1])
    assert abs(w.coefficients[1] @ samples) <= 1e-8 * row_norm * abs(c)


def test_polynomial_exactness_grid():
    # Random polynomials of degree <= p-1 must be reproduced (value and
    # derivatives) to near machine precision.
    rng = np.random.default_rng(7)
    for N, p, d, i0 in [(8, 4, 1, 4.25), (12, 6, 0, 6.5), (16, 8, 2, 3.75), (24, 5, 1, 12.0)]:
        spec = FilterSpec(N, 0.1, i0, d, p, max_derivative=d)
        w = build_filter(spec)
        x0 = i0 * spec.step
        for _ in range(100):
            coef = rng.uniform(-1, 1, p)  # polynomial in (x - x0)
            poly = np.polynomial.Polynomial(coef)
            samples = poly(np.arange(1, N + 1) * spec.step - x0)
            est = w.coefficients[d] @ samples
            truth = poly.deriv(d)(0.0)
            scale = max(1.0, np.abs(samples).max()) * np.linalg.norm(w.coefficients[d])
            assert abs(est - truth) <= 1e-7 * scale


def test_min_norm_optimality():
    # Any correction P with P A = 0 is orthogonal to the min-norm solution,
    # so ||D + P||_F^2 = ||D||_F^2 + ||P||_F^2 >= ||D||_F^2.
    from scipy.linalg import null_space

    rng = np.random.default_rng(11)
    spec = FilterSpec(12, 0.2, 5.3, 1, 5, max_derivative=1)
    w = build_filter(spec)
    N, p = spec.window_size, spec.exactness_degree
    k = np.arange(1, N + 1)
    u = (2.0 * k - N - 1.0) / (N - 1.0)
    A = np.polynomial.legendre.legvander(u, p - 1)
    Z = null_space(A.T)  # (N, N - p)
    assert Z.shape[1] == N - p
    D = w.coefficients
    # rows of D are orthogonal to null(A^T)
    assert np.abs(D @ Z).max() < 1e-9 * np.linalg.norm(D)
    for _ in range(20):
        P = rng.normal(size=(D.shape[0], Z.shape[1])) @ Z.T
        lhs = np.linalg.norm(D + P, "fro") ** 2
        rhs = np.linalg.norm(D, "fro") ** 2 + np.linalg.norm(P, "fro") ** 2
        assert lhs == pytest.approx(rhs, rel=1e-9)
        assert np.linalg.norm(D + P, "fro") >= np.linalg.norm(D, "fro") - 1e-12


def test_operator_norm_basics():
    # a single-row coefficient matrix has spectral norm = Euclidean row norm
    w2 = build_filter(FilterSpec(2, 1.0, 1.5, 1, 2))
    assert np.linalg.norm(w2.coefficients[1]) == pytest.approx(np.sqrt(2.0))
    delta = build_filter(FilterSpec(5, 1.0, 3.0, 0, 5, max_derivative=0))
    assert np.linalg.norm(delta.coefficients, 2) == pytest.approx(1.0)


def test_operator_norm_scaling_in_N():
    # At m = 0 the spectral norm scales like N**(-1/2).
    norms = []
    sizes = [32, 64, 128, 256]
    for N in sizes:
        w = build_filter(FilterSpec(N, 1.0, (N + 1) / 2.0, 0, 6, max_derivative=0))
        norms.append(np.linalg.norm(w.coefficients, 2))
    slope = np.polyfit(np.log(sizes), np.log(norms), 1)[0]
    assert abs(slope - (-0.5)) < 0.15


def test_bias_scaling_in_window_length():
    # Error on f = sin decays at least like (N*h)**(p-d) as the window
    # shrinks; check the log-log slope is not flatter than p - d - 0.5.
    N, p = 16, 4
    for d in (0, 1):
        errs, spans = [], []
        for h in (0.02, 0.04, 0.08, 0.16):
            spec = FilterSpec(N, h, (N + 1) / 2.0, d, p, max_derivative=d)
            w = build_filter(spec)
            samples = np.sin(np.arange(1, N + 1) * h)
            est = w.coefficients[d] @ samples
            t0 = spec.location * h
            truth = np.sin(t0) if d == 0 else np.cos(t0)
            errs.append(abs(est - truth))
            spans.append(N * h)
        slope = np.polyfit(np.log(spans), np.log(errs), 1)[0]
        assert slope >= p - d - 0.5


def test_rate_balance_identity():
    # At d = 0: bias/noise = (N*h)**p * N**(1/2); the two rates balance
    # when N = h**(-2p/(2p+1)).
    p, h = 3, 1e-3
    N = h ** (-2.0 * p / (2.0 * p + 1.0))
    ratio = (N * h) ** p * np.sqrt(N)
    assert ratio == pytest.approx(1.0, rel=1e-9)


def test_spec_validation_errors():
    with pytest.raises(FilterRankError):
        FilterSpec(4, 1.0, 2.0, 1, 5)
    with pytest.raises(ValueError):
        FilterSpec(4, -1.0, 2.0, 0, 3)
    with pytest.raises(ValueError):
        FilterSpec(4, 1.0, 2.0, 2, 3, max_derivative=1)
    with pytest.raises(ValueError):
        FilterSpec(4, 1.0, 2.0, 1, 2, max_derivative=2)
    with pytest.raises(ValueError):
        FilterSpec(8, 1.0, 9.5, 0, 4)  # target outside (0, N+1)
    with pytest.raises(ValueError):
        FilterSpec(8, 1.0, -0.5, 0, 4)


def test_conditioning_error_reports_residual():
    # a full-degree stencil targeting the very edge of the window is beyond
    # double precision even in the Legendre basis
    with pytest.raises(FilterConditioningError) as exc:
        build_filter(FilterSpec(50, 0.002, 0.01, 0, 50, max_derivative=0))
    assert exc.value.residual > 1e-8

