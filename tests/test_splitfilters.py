from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ivsysid.dynamics import feature_map
from ivsysid.polyfilter import FilterRankError
from ivsysid.splitfilters import (
    DesignMatrices,
    EmptyDesignError,
    OperatorKind,
    assemble_design,
    build_split_bank,
    model_operators,
    rho_truncate,
)

identity_features = lambda t, s: s  # noqa: E731
lorenz_features = lambda t, s: feature_map(t, s, 1.0)  # noqa: E731


def test_bank_structure_continuous():
    bank = build_split_bank("continuous", 100, 0.001, 8)
    for w in (bank.hat_H, bank.hat_G, bank.tilde_G):
        assert w.spec.window_size == 100
        assert w.spec.step == pytest.approx(0.002)
        assert w.spec.exactness_degree == 8
    assert bank.hat_H.spec.derivative_order == 1
    assert bank.hat_G.spec.derivative_order == 0
    assert bank.tilde_G.spec.derivative_order == 0
    assert bank.hat_G.spec.location == pytest.approx(50.25)
    assert bank.tilde_G.spec.location == pytest.approx(50.75)
    assert bank.hat_H.spec.location == pytest.approx(bank.hat_G.spec.location)


def test_bank_structure_discrete():
    bank = build_split_bank("discrete", 100, 0.001, 8)
    assert bank.hat_H.spec.derivative_order == 0
    # the response filter sits half a doubled-grid step (one raw sample)
    # past the state filter
    assert bank.hat_H.spec.location - bank.hat_G.spec.location == pytest.approx(0.5)
    assert bank.tilde_G.spec.location - bank.hat_G.spec.location == pytest.approx(0.5)


def test_bank_supports_high_degree():
    # the benchmark degree must be buildable on the full tap count
    bank = build_split_bank("continuous", 100, 0.001, 75)
    assert bank.hat_G.spec.window_size == 100
    assert bank.hat_G.spec.exactness_degree == 75


def test_bank_preconditions():
    with pytest.raises(ValueError):
        build_split_bank("continuous", 101, 0.001, 8)
    with pytest.raises(FilterRankError):
        build_split_bank("continuous", 100, 0.001, 150)
    with pytest.raises(ValueError):
        build_split_bank("weekly", 100, 0.001, 8)


def test_model_operators():
    H, G = model_operators("discrete")
    assert (H.tag, H.order) == ("shift", 1)
    assert (G.tag, G.order) == ("shift", 0)
    H, G = model_operators("continuous")
    assert (H.tag, H.order) == ("derivative", 1)
    with pytest.raises(ValueError):
        OperatorKind("flip", 1)


def test_hat_and_tilde_agree_on_linear_signal():
    # both state filters target the same physical time, so on y(t) = t they
    # must return the same value
    N, h = 12, 0.1
    bank = build_split_bank("continuous", N, h, 3)
    y = (np.arange(1, 41) * h)[:, None]
    design = assemble_design(y, bank, identity_features, mu=1e9, stride=1)
    np.testing.assert_allclose(design.X, design.Z, atol=1e-9)
    np.testing.assert_allclose(design.X[:, 0], design.times, atol=1e-9)


def test_polynomial_trajectory_continuous():
    # a cubic signal with p = 4 stencils: states exact, response = derivative
    N, h, p = 16, 0.05, 4
    bank = build_split_bank("continuous", N, h, p)
    coef = np.array([0.3, -1.2, 0.8, 0.25])
    poly = np.polynomial.Polynomial(coef)
    t = np.arange(1, 61) * h
    y = poly(t)[:, None]
    design = assemble_design(y, bank, identity_features, mu=1e9, stride=1)
    np.testing.assert_allclose(design.X, design.Z, atol=1e-6)
    np.testing.assert_allclose(design.X[:, 0], poly(design.times), atol=1e-8)
    np.testing.assert_allclose(design.Y[:, 0], poly.deriv()(design.times), atol=1e-6)


def test_polynomial_trajectory_discrete_shift():
    # discrete response estimates the state one raw step (h) ahead
    N, h, p = 16, 0.05, 4
    bank = build_split_bank("discrete", N, h, p)
    poly = np.polynomial.Polynomial([0.1, 0.7, -0.4, 0.05])
    t = np.arange(1, 61) * h
    y = poly(t)[:, None]
    design = assemble_design(y, bank, identity_features, mu=1e9, stride=1)
    np.testing.assert_allclose(design.Y[:, 0], poly(design.times + h), atol=1e-8)


def test_design_shapes_and_times():
    N, h, stride = 10, 0.5, 3
    bank = build_split_bank("continuous", N, h, 3)
    y = np.random.default_rng(0).normal(size=(35, 2))
    design = assemble_design(y, bank, lambda t, s: s, mu=5.0, stride=stride)
    n_prime = (35 - 2 * N) // stride + 1
    assert design.X.shape == (n_prime, 2)
    assert design.Y.shape == (n_prime, 2)
    assert design.Z.shape == (n_prime, 2)
    assert design.window_span == 2 * N
    expected_times = (np.arange(0, 16, stride) + N + 0.5) * h
    np.testing.assert_allclose(design.times, expected_times)


def test_empty_design_error():
    bank = build_split_bank("continuous", 10, 0.5, 3)
    with pytest.raises(EmptyDesignError):
        assemble_design(np.ones((19, 1)), bank, identity_features, mu=1.0)
    design = assemble_design(np.ones((20, 1)), bank, identity_features, mu=1.0)
    assert design.X.shape[0] == 1


def test_rho_truncate_values():
    assert np.all(rho_truncate(np.zeros(3), 7.0) == 0.0)
    x = np.array([3.0, 0.0, 0.0])
    np.testing.assert_allclose(rho_truncate(x, 3.0), x / 2.0)
    np.testing.assert_allclose(
        rho_truncate(np.array([3.0, 4.0]), 200.0),
        np.array([3.0, 4.0]) / (1.0 + 5.0 / 200.0),
    )
    with pytest.raises(ValueError):
        rho_truncate(x, 0.0)


def test_rho_truncate_is_bounded_contraction():
    rng = np.random.default_rng(42)
    mu = 2.5
    x = rng.normal(size=(1000, 4)) * rng.lognormal(0, 3, size=(1000, 1))
    out = rho_truncate(x, mu)
    out_norms = np.linalg.norm(out, axis=1)
    in_norms = np.linalg.norm(x, axis=1)
    assert np.all(out_norms < mu)
    assert np.all(out_norms <= in_norms)
    # direction preserved
    big = np.abs(in_norms) > 1e-12
    cos = np.sum(out[big] * x[big], axis=1) / (out_norms[big] * in_norms[big])
    np.testing.assert_allclose(cos, 1.0, atol=1e-12)


def test_z_rows_bounded_on_noisy_data():
    rng = np.random.default_rng(3)
    bank = build_split_bank("continuous", 20, 0.01, 4)
    y = rng.normal(scale=50.0, size=(400, 3))
    features = lambda t, s: np.concatenate(  # noqa: E731
        [s, s[..., :1] * s[..., 1:2]], axis=-1
    )
    design = assemble_design(y, bank, features, mu=6.0, stride=2)
    assert np.all(np.linalg.norm(design.Z, axis=1) < 6.0)


def test_split_independence_bitwise():
    # with windows placed on even offsets, the hat outputs never read the
    # earlier parity class and the tilde outputs never read the later one
    rng = np.random.default_rng(9)
    N, h = 12, 0.2
    bank = build_split_bank("continuous", N, h, 3)
    y = rng.normal(size=(50, 2))
    base = assemble_design(y, bank, identity_features, mu=10.0, stride=2)

    bumped = y.copy()
    bumped[0::2] += rng.normal(size=bumped[0::2].shape)  # earlier class only
    pert = assemble_design(bumped, bank, identity_features, mu=10.0, stride=2)
    assert np.array_equal(base.X, pert.X)
    assert np.array_equal(base.Y, pert.Y)
    assert not np.array_equal(base.Z, pert.Z)

    bumped = y.copy()
    bumped[1::2] += rng.normal(size=bumped[1::2].shape)  # later class only
    pert = assemble_design(bumped, bank, identity_features, mu=10.0, stride=2)
    assert np.array_equal(base.Z, pert.Z)
    assert not np.array_equal(base.X, pert.X)


def test_instrument_noise_uncorrelated_with_response():
    # pure-noise measurements, non-overlapping windows: sample correlation
    # between Y and each Z column stays within 3 standard errors of zero
    rng = np.random.default_rng(2024)
    N, h = 8, 0.1
    bank = build_split_bank("continuous", N, h, 3)
    J = 10_000
    span = 2 * N
    y = rng.normal(size=(span + (J - 1) * span, 3))
    design = assemble_design(y, bank, identity_features, mu=1e6, stride=span)
    assert design.X.shape[0] == J
    se = 1.0 / np.sqrt(J)
    for c in range(3):
        r = np.corrcoef(design.Y[:, 0], design.Z[:, c])[0, 1]
        assert abs(r) < 3 * se


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize("n", [12, 19, 40])  # 2N exactly, odd, longer
def test_design_matches_per_window_dot_products(mode, n):
    # oracle: window w applies hat stencils to samples w + 1 + 2k and the
    # tilde stencil to samples w + 2k, one explicit dot product per row
    N, h, mu = 6, 0.05, 4.0
    bank = build_split_bank(mode, N, h, 3)
    c_H = bank.hat_H.coefficients[bank.hat_H.spec.derivative_order]
    c_G = bank.hat_G.coefficients[0]
    c_T = bank.tilde_G.coefficients[0]
    rng = np.random.default_rng(n)
    for cols in (1, 3):
        y = rng.normal(size=(n, cols)) + 3.0
        cases = [(identity_features, stride) for stride in (1, 2, 3)]
        if cols == 3:  # the nonlinear Lorenz features build new arrays
            cases += [(lorenz_features, stride) for stride in (1, 3)]
        for features, stride in cases:
            design = assemble_design(y, bank, features, mu=mu, stride=stride)
            offsets = np.arange(0, n - 2 * N + 1, stride)
            times = (offsets + N + 0.5) * h
            hat = np.array([y[w + 1 : w + 2 * N : 2].T for w in offsets])
            tilde = np.array([y[w : w + 2 * N : 2].T for w in offsets])
            expected = {
                "Y": hat @ c_H,
                "X": features(times, hat @ c_G),
                "Z": rho_truncate(features(times, tilde @ c_T), mu),
            }
            for name, want in expected.items():
                got = getattr(design, name)
                assert got.shape == want.shape
                err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert err <= 1e-12, (name, cols, stride, features, err)


def test_feature_map_called_once_per_design():
    # both parity classes' states go through one call, and every design
    # column comes out as one contiguous run of memory
    calls = []

    def features(t, s):
        calls.append(s.shape)
        return lorenz_features(t, s)

    bank = build_split_bank("discrete", 10, 0.01, 4)
    y = np.random.default_rng(5).normal(size=(301, 3))
    design = assemble_design(y, bank, features, mu=50.0)
    assert calls == [(2, 282, 3)]
    for name in ("X", "Y", "Z"):
        assert getattr(design, name).strides[0] == 8, name


def test_fresh_bank_shared_by_threads():
    # trial threads share one bank, and the first calls race to fill its
    # cache of stencil spectra; every design must still match a serial one
    y = np.random.default_rng(4).normal(size=(301, 3))
    expected = assemble_design(
        y, build_split_bank("continuous", 10, 0.01, 4), identity_features, mu=5.0
    )
    bank = build_split_bank("continuous", 10, 0.01, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(assemble_design, y, bank, identity_features, 5.0)
                for _ in range(32)
            ]
            designs = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for design in designs:
        for name in ("X", "Y", "Z"):
            assert np.array_equal(getattr(design, name), getattr(expected, name))
