from __future__ import annotations

import numpy as np
import pytest

from ivsysid.estimator import (
    Estimate,
    IvConfig,
    SingularDesignError,
    clip_singular_values,
    excitation_check,
    iv_estimate,
    ls_estimate,
)
from ivsysid import estimator, splitfilters
from ivsysid.splitfilters import DesignMatrices, assemble_design, build_split_bank


def make_design(X, Y, Z=None, times=None):
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Z = X if Z is None else np.asarray(Z, dtype=float)
    if times is None:
        times = np.arange(X.shape[0], dtype=float)
    return DesignMatrices(X=X, Y=Y, Z=Z, times=times, window_span=1)


def test_clip_diagonal():
    out = clip_singular_values(np.diag([3.0, 0.5]), 1.0)
    np.testing.assert_allclose(out, np.diag([3.0, 1.0]), atol=1e-12)


def test_clip_noop_when_well_conditioned():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(4, 4)) + 5 * np.eye(4)
    s = np.linalg.svd(A, compute_uv=False)
    out = clip_singular_values(A, s[-1] * 0.5)
    np.testing.assert_allclose(out, A, atol=1e-12)


def test_clip_zero_matrix():
    out = clip_singular_values(np.zeros((2, 2)), 0.7)
    s = np.linalg.svd(out, compute_uv=False)
    np.testing.assert_allclose(s, [0.7, 0.7], atol=1e-12)
    assert np.linalg.norm(out - np.zeros((2, 2)), 2) == pytest.approx(0.7)


def test_clip_properties_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = rng.integers(2, 7)
        scale = 10.0 ** rng.integers(-3, 4)
        A = rng.normal(size=(n, n)) * scale
        lam = float(rng.uniform(0.1, 2.0) * scale)
        C = clip_singular_values(A, lam)
        pert = np.linalg.norm(A - C, 2)
        assert pert <= lam * (1 + 1e-9)
        assert np.linalg.svd(C, compute_uv=False)[-1] >= lam * (1 - 1e-9)


def test_clip_rejects_nonfinite():
    with pytest.raises(ValueError):
        clip_singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0)


def test_iv_identity_design():
    est = iv_estimate(make_design(np.eye(3), np.eye(3)), IvConfig(lam=0.5, mu=1.0))
    np.testing.assert_allclose(est.theta, np.eye(3), atol=1e-12)
    assert est.clipped_directions == 0
    assert est.method == "iv"


def test_iv_recovers_noiseless_theta():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(500, 4))
    theta_star = rng.normal(size=(4, 2))
    design = make_design(X, X @ theta_star)
    est = iv_estimate(design, IvConfig(lam=1e-6, mu=1e9))
    np.testing.assert_allclose(est.theta, theta_star, atol=1e-8)


def test_iv_matches_ls_when_self_instrumented():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(300, 5))
    Y = rng.normal(size=(300, 2))
    design = make_design(X, Y)
    lam = 0.5 * np.linalg.svd(X.T @ X, compute_uv=False)[-1]
    iv = iv_estimate(design, IvConfig(lam=lam, mu=1.0))
    ls = ls_estimate(design)
    np.testing.assert_allclose(iv.theta, ls.theta, atol=1e-9)


def test_estimators_linear_in_response():
    # scaling response columns by powers of two rescales theta exactly
    rng = np.random.default_rng(12)
    X = rng.normal(size=(100, 3))
    Y = rng.normal(size=(100, 3))
    Z = X + 0.1 * rng.normal(size=X.shape)
    c = np.diag([2.0, 0.5, 8.0])
    cfg = IvConfig(lam=1e-3, mu=1.0)
    a = iv_estimate(make_design(X, Y, Z), cfg).theta
    b = iv_estimate(make_design(X, Y @ c, Z), cfg).theta
    assert np.array_equal(a @ c, b)
    a = ls_estimate(make_design(X, Y)).theta
    b = ls_estimate(make_design(X, Y @ c)).theta
    assert np.array_equal(a @ c, b)


def test_iv_clips_weak_directions():
    X = np.diag([5.0, 1e-4])
    design = make_design(X, np.eye(2))
    est = iv_estimate(design, IvConfig(lam=1.0, mu=1.0))
    assert est.clipped_directions == 1
    assert est.sigma_min_zx == pytest.approx(1e-8, rel=1e-6)
    # the clipped direction is damped instead of exploding
    assert np.abs(est.theta).max() <= 1.0 + 1e-9


def test_ls_basics():
    est = ls_estimate(make_design(np.eye(3), np.eye(3)))
    np.testing.assert_allclose(est.theta, np.eye(3), atol=1e-12)
    rng = np.random.default_rng(13)
    X = rng.normal(size=(200, 4))
    theta_star = rng.normal(size=(4, 3))
    est = ls_estimate(make_design(X, X @ theta_star))
    np.testing.assert_allclose(est.theta, theta_star, atol=1e-8)


def test_ls_rank_deficient():
    X = np.ones((10, 2))  # two identical columns
    with pytest.raises(SingularDesignError):
        ls_estimate(make_design(X, np.ones((10, 1))))
    rng = np.random.default_rng(14)
    x = rng.normal(size=200)
    X = np.column_stack([x, x + 1e-15 * rng.normal(size=200), rng.normal(size=200)])
    with pytest.raises(SingularDesignError):  # near-collinear
        ls_estimate(make_design(X, rng.normal(size=(200, 2))))
    X[:, 1] = 0.0  # a zero column: its unit-diagonal scaling is undefined
    with pytest.raises(SingularDesignError) as exc:
        ls_estimate(make_design(X, rng.normal(size=(200, 2))))
    assert exc.value.sigma_min == pytest.approx(0.0, abs=1e-10)


def test_ls_fewer_rows_than_features_reports_zero_sigma_min():
    # a 2-row design leaves four of six directions with sigma = 0; it is
    # rejected before any solve
    X = np.random.default_rng(18).normal(size=(2, 6))
    with pytest.raises(SingularDesignError, match=r"sigma_min=0\.000e\+00, n_windows=2\)") as exc:
        ls_estimate(make_design(X, np.ones((2, 3))))
    assert exc.value.sigma_min == 0.0


@pytest.mark.parametrize("cond", [10.0, 1e6])  # moment solve; beyond its limit
def test_ls_matches_lstsq(cond):
    rng = np.random.default_rng(15)
    Q1, _ = np.linalg.qr(rng.normal(size=(300, 4)))
    Q2, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    sv = np.geomspace(cond, 1.0, 4)
    X = (Q1 * sv) @ Q2
    Y = X @ rng.normal(size=(4, 3)) + 0.1 * rng.normal(size=(300, 3))
    if cond**2 > estimator._GRAM_RATIO_LIMIT:
        # scaling to unit diagonal cannot undo near-collinear columns: the
        # ratio stays near cond^2 = 1e12, where the normal equations would
        # lose about 1e-4, so the solve is refused; sigma_min is lambda_min(X'X)
        with pytest.raises(SingularDesignError) as exc:
            ls_estimate(make_design(X, Y))
        assert exc.value.sigma_min == pytest.approx(1.0, rel=1e-3)
        return
    est = ls_estimate(make_design(X, Y))
    theta, *_ = np.linalg.lstsq(X, Y, rcond=None)
    np.testing.assert_allclose(est.theta, theta, rtol=1e-10, atol=0)
    assert est.sigma_min_zx == pytest.approx(1.0, rel=1e-6)
    assert est.condition_number == pytest.approx(cond, rel=1e-6)


def _blocked_design(features, monkeypatch, block=16):
    # 109 windows of a 6-tap bank in blocks of 16: seven blocks
    monkeypatch.setattr(splitfilters, "_BLOCK_WINDOWS", block)
    bank = build_split_bank("continuous", 6, 0.05, 3)
    y = np.random.default_rng(17).normal(size=(120, 2)) + 3.0
    return assemble_design(y, bank, features, mu=1e6)


def test_ls_rank_deficient_multi_block(monkeypatch):
    # a duplicated feature column is refused from the moments alone
    calls = []

    def features(t, s):
        calls.append(s.shape[1])
        return np.concatenate([s, s[..., :1]], axis=-1)

    design = _blocked_design(features, monkeypatch)
    assert calls == [16] * 6 + [13]
    with pytest.raises(SingularDesignError):
        ls_estimate(design)
    assert calls[7:] == []  # the rows are not read again


def test_ls_multi_block_matches_lstsq(monkeypatch):
    # cond(X) is about 1e6 from near-collinear columns of like scale: too
    # ill-conditioned for the normal equations, scaled or not. The refusal
    # quotes lstsq's sigma_min(X)^2 = lambda_min(X'X).
    features = lambda t, s: np.concatenate(  # noqa: E731
        [s, s[..., :1] + 1e-6 * s[..., 1:] ** 2], axis=-1
    )
    with pytest.raises(SingularDesignError) as exc:
        ls_estimate(_blocked_design(features, monkeypatch))
    whole = _blocked_design(features, monkeypatch, block=10_000)
    _, _, _, sv = np.linalg.lstsq(whole.X, whole.Y, rcond=None)
    assert whole.X.shape == (109, 3)
    assert sv[0] / sv[-1] > 1e5
    assert exc.value.sigma_min == pytest.approx(sv[-1] ** 2, rel=1e-3)


def _unit_scales(x: np.ndarray) -> np.ndarray:
    # three features whose units differ by about 1e4 in scale
    return np.concatenate([1e-2 * x[..., :1], 1e2 * x[..., 1:2], x[..., :1] * x[..., 1:2]], -1)


def _assert_scaled_solve_matches_lstsq(design, X, Y):
    evals = np.linalg.eigvalsh(design.xx)
    assert evals[-1] > estimator._GRAM_RATIO_LIMIT * evals[0]  # past the plain solve
    est = ls_estimate(design)
    theta, _, _, sv = np.linalg.lstsq(X, Y, rcond=None)
    np.testing.assert_allclose(est.theta, theta, rtol=1e-8, atol=0)
    assert est.sigma_min_zx == pytest.approx(sv[-1] ** 2, rel=1e-8)
    assert est.condition_number == pytest.approx(sv[0] / sv[-1], rel=1e-8)


def test_ls_scaled_solve_matches_lstsq():
    rng = np.random.default_rng(19)
    X = _unit_scales(rng.normal(size=(300, 2)) + 3.0)
    Y = X @ rng.normal(size=(3, 2)) + 0.1 * rng.normal(size=(300, 2))
    _assert_scaled_solve_matches_lstsq(make_design(X, Y), X, Y)


def test_ls_scaled_solve_multi_block_reads_no_rows(monkeypatch):
    calls = []

    def features(t, s):
        calls.append(s.shape[1])
        return _unit_scales(s)

    design = _blocked_design(features, monkeypatch)
    assert calls == [16] * 6 + [13]
    whole = _blocked_design(lambda t, s: _unit_scales(s), monkeypatch, block=10_000)
    _assert_scaled_solve_matches_lstsq(design, whole.X, whole.Y)
    assert calls == [16] * 6 + [13]  # one call per block, no rebuild


def test_excitation_check_reads_iv_sigma_min():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(400, 5))
    design = make_design(X, rng.normal(size=(400, 3)), X + rng.normal(size=X.shape))
    iv = iv_estimate(design, IvConfig(lam=0.1, mu=1.0))
    assert excitation_check(iv, 0.1)["sigma_min"] == iv.sigma_min_zx


def test_errors_in_variables_attenuation():
    # y = x* with unit-variance regressor noise halves the LS slope, while
    # an independently noised copy of x* as instrument stays consistent
    rng = np.random.default_rng(99)
    n = 1_000_000
    x_star = rng.normal(size=n)
    x = x_star + rng.normal(size=n)
    w = x_star + rng.normal(size=n)
    y = x_star
    design = make_design(x[:, None], y[:, None], w[:, None])
    ls = ls_estimate(design)
    iv = iv_estimate(design, IvConfig(lam=1.0, mu=1.0))
    assert ls.theta[0, 0] == pytest.approx(0.5, rel=0.02)
    assert iv.theta[0, 0] == pytest.approx(1.0, rel=0.02)


def test_excitation_check():
    cfg = IvConfig(lam=0.5, mu=1.0)
    d = make_design(np.eye(3), np.eye(3))
    out = excitation_check(iv_estimate(d, cfg), lam=0.5)
    assert out["sigma_min"] == pytest.approx(1.0)
    assert out["satisfied"] and out["margin"] == pytest.approx(0.5)
    d0 = make_design(np.eye(3), np.eye(3), Z=np.zeros((3, 3)))
    out0 = excitation_check(iv_estimate(d0, cfg), lam=0.5)
    assert out0["sigma_min"] == 0.0
    assert not out0["satisfied"]


def test_estimates_deterministic():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(50, 3))
    Y = rng.normal(size=(50, 2))
    Z = rng.normal(size=(50, 3))
    cfg = IvConfig(lam=0.1, mu=3.0)
    a = iv_estimate(make_design(X, Y, Z), cfg)
    b = iv_estimate(make_design(X.copy(), Y.copy(), Z.copy()), cfg)
    assert np.array_equal(a.theta, b.theta)
    assert a.sigma_min_zx == b.sigma_min_zx


def test_config_validation():
    with pytest.raises(ValueError):
        IvConfig(lam=0.0, mu=1.0)
    with pytest.raises(ValueError):
        IvConfig(lam=1.0, mu=-2.0)
    with pytest.raises(ValueError):
        Estimate(
            theta=np.array([[np.inf]]),
            sigma_min_zx=1.0,
            clipped_directions=0,
            method="iv",
            condition_number=1.0,
        )
