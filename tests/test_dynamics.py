from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivsysid.dynamics import (
    DivergenceError,
    add_noise,
    feature_map,
    forcing,
    integrate,
    true_theta,
)
from ivsysid.harness import ExperimentConfig, pseudo_true_discrete, trial_drive
from ivsysid.splitfilters import build_split_bank


def lorenz_rhs(t: float, state: np.ndarray, forcing_freq: float = 1.0) -> np.ndarray:
    # right-hand side of the forced Lorenz system, written independently of
    # the inlined stages in integrate: the oracle for its RK4 step
    x1, x2, x3 = state
    s, r, b = 10.0, 28.0, 8.0 / 3.0
    drive = math.sin(2.0 * math.pi * forcing_freq * t)
    return np.array([s * (x2 - x1), x1 * (r - x3) - x2, drive + x1 * x2 - b * x3])


def test_rhs_fixed_point_at_origin_t0():
    out = lorenz_rhs(0.0, np.zeros(3))
    np.testing.assert_allclose(out, np.zeros(3), atol=1e-15)


def test_rhs_first_component_vanishes_on_diagonal():
    for t in (0.0, 0.3, 1.7):
        out = lorenz_rhs(t, np.array([1.0, 1.0, 5.0]))
        assert out[0] == 0.0


def test_rhs_matches_parameter_encoding():
    # the handwritten right-hand side and theta' phi are the same function
    rng = np.random.default_rng(17)
    theta = true_theta()
    for _ in range(1000):
        t = rng.uniform(0, 10)
        state = rng.uniform(-30, 50, size=3)
        lhs = lorenz_rhs(t, state)
        rhs = theta.T @ feature_map(forcing(t), state)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_feature_map_values():
    np.testing.assert_allclose(feature_map(forcing(0.0), np.zeros(3)), np.zeros(6), atol=0)
    out = feature_map(forcing(0.25, 1.0), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out, [1.0, 1.0, 2.0, 3.0, 2.0, 3.0], atol=1e-15)


def test_feature_map_broadcasts():
    t = np.array([0.0, 0.25])
    states = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    out = feature_map(forcing(t, 1.0), states)
    assert out.shape == (2, 6)
    np.testing.assert_allclose(out[1], [1.0, 1.0, 2.0, 3.0, 2.0, 3.0], atol=1e-15)


def test_feature_map_stack_matches_per_class():
    # one call on both parity classes' states equals one call per class
    rng = np.random.default_rng(8)
    t = rng.uniform(0, 5, size=40)
    states = rng.normal(size=(2, 40, 3)) * 10.0
    drive = forcing(t, 1.3)
    out = feature_map(drive, states)
    assert out.shape == (2, 40, 6)
    for k in range(2):
        assert np.array_equal(out[k], feature_map(drive, states[k]))


def test_true_theta_entries():
    theta = true_theta()
    assert theta.shape == (6, 3)
    assert theta[1, 0] == -10.0
    assert theta[1, 1] == 28.0
    assert theta[3, 2] == pytest.approx(-8.0 / 3.0)
    assert np.count_nonzero(theta[:, 0]) == 2
    expected = math.sqrt(1 + 100 + 784 + 100 + 1 + (8.0 / 3.0) ** 2 + 1 + 1)
    assert np.linalg.norm(theta, "fro") == pytest.approx(expected)


def test_single_step_matches_handrolled_rk4():
    x0 = np.array([-8.0, 8.0, 27.0])
    h = 0.01
    for f in (1.0, 3.0):
        states = integrate(x0, h, 1, substeps=1, forcing_freq=f)

        k1 = lorenz_rhs(0.0, x0, f)
        k2 = lorenz_rhs(h / 2, x0 + (h / 2) * k1, f)
        k3 = lorenz_rhs(h / 2, x0 + (h / 2) * k2, f)
        k4 = lorenz_rhs(h, x0 + h * k3, f)
        expected = x0 + (h / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        np.testing.assert_allclose(states[0], expected, rtol=1e-15, atol=1e-14)


def test_fourth_order_self_convergence():
    # Richardson ratio: halving the internal step shrinks the endpoint error
    # by about 2^4
    # chaotic error growth inflates the ratio at coarse steps, so measure
    # well inside the asymptotic regime
    x0 = (-8.0, 8.0, 27.0)
    ends = [integrate(x0, 1.0, 1, substeps=m)[-1] for m in (320, 640, 1280)]
    coarse = np.linalg.norm(ends[0] - ends[1])
    fine = np.linalg.norm(ends[1] - ends[2])
    assert 12.0 <= coarse / fine <= 20.0


def test_trajectory_stays_on_attractor(lorenz_trajectory):
    assert np.abs(lorenz_trajectory).max() < 100.0
    assert lorenz_trajectory.shape == (100_000, 3)


def test_divergence_reports_step():
    # the quadratic terms of a huge state overflow within a few steps
    with pytest.raises(DivergenceError) as exc:
        integrate((1e100, -1e100, 1e100), 1.0, 50, substeps=1)
    assert 0 <= exc.value.step < 50


def test_add_noise_zero_eta_is_identity(lorenz_trajectory):
    states = lorenz_trajectory[:100]
    noisy = add_noise(states, 0.0, np.random.default_rng(5), np.empty_like(states))
    assert np.array_equal(noisy, states)


def test_add_noise_matches_normal_draws(lorenz_trajectory):
    # the in-place draw gives the bits of states + normal(0, sqrt(eta))
    eta, seed = 0.37, 2024
    states = lorenz_trajectory
    noisy = add_noise(states, eta, np.random.default_rng(seed), np.empty_like(states))
    expected = states + np.random.default_rng(seed).normal(0.0, math.sqrt(eta), states.shape)
    assert np.array_equal(noisy, expected)


@given(
    sizes=st.lists(st.integers(0, 300), max_size=8),
    eta=st.sampled_from([0.0, 0.37, 2.0]),
    seed=st.integers(0, 2**64 - 1),
)
def test_add_noise_in_blocks_equals_one_draw(lorenz_trajectory, sizes, eta, seed):
    # consecutive row blocks of any sizes on one generator give the bits of
    # one draw of all the rows: how a trial draws its record block by block
    bounds = np.cumsum([0, *sizes])
    states = lorenz_trajectory[: bounds[-1]]
    whole = add_noise(states, eta, np.random.default_rng(seed), np.empty_like(states))
    rng = np.random.default_rng(seed)
    blocks = [
        add_noise(states[a:b], eta, rng, np.empty_like(states[a:b]))
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    assert np.array_equal(np.concatenate([whole[:0], *blocks]), whole)


def test_add_noise_variance_and_determinism(lorenz_trajectory):
    eta = 0.1
    states = lorenz_trajectory
    noisy = add_noise(states, eta, np.random.default_rng(123), np.empty_like(states))
    again = add_noise(states, eta, np.random.default_rng(123), np.empty_like(states))
    assert np.array_equal(noisy, again)
    noise = noisy - lorenz_trajectory
    assert noise.var() == pytest.approx(eta, rel=0.02)
    # whiteness: lag-1 autocorrelation within 3/sqrt(n)
    flat = noise[:, 0]
    r1 = np.corrcoef(flat[:-1], flat[1:])[0, 1]
    assert abs(r1) < 3.0 / math.sqrt(flat.size)


def test_pseudo_true_first_order_trend():
    # over h -> 0 the learned one-step map approaches identity + h * theta;
    # the deviation, measured relative to h, must shrink
    theta0 = true_theta()
    lift = np.zeros((6, 3))
    lift[1, 0] = lift[2, 1] = lift[3, 2] = 1.0
    errs = []
    for h in (1e-2, 1e-3, 1e-4):
        # fixed time horizon, so the fitted arc stays equally excited
        config = ExperimentConfig(
            mode="discrete", n=round(4.0 / h), h=h, N=8, p=4, trials=1, substeps=4
        )
        states = integrate(config.x0, h, config.n, config.substeps)
        bank = build_split_bank("discrete", config.N, h, config.p)
        pt = pseudo_true_discrete(config, states, bank, trial_drive(config, bank).__getitem__)
        expected = lift + h * theta0
        errs.append(np.linalg.norm(pt - expected, "fro") / h)
    assert errs[1] < 0.2 * errs[0]
    assert errs[2] < 0.2 * errs[1]


def test_only_discrete_setup_solves_pseudo_true(monkeypatch):
    # prepare_shared's discrete branch is the pseudo-true reference's one caller
    import ivsysid.harness as harness

    monkeypatch.setattr(harness, "pseudo_true_discrete", lambda *a: pytest.fail("solved"))
    config = ExperimentConfig(mode="continuous", n=300, h=5e-3, N=10, p=4, trials=1)
    shared = harness.prepare_shared(config)
    assert shared.reference_kind == "ground_truth"
    assert np.array_equal(shared.reference, true_theta())


def test_discrete_setup_integrates_once(monkeypatch):
    # prepare_shared hands its states to the pseudo-true reference, which
    # gives the same value as on a path integrated here
    import ivsysid.dynamics as dynamics
    import ivsysid.harness as harness

    config = harness.ExperimentConfig(mode="discrete", n=300, h=5e-3, N=10, p=4, trials=1)
    states = integrate(config.x0, config.h, config.n, config.substeps)
    bank = build_split_bank("discrete", config.N, config.h, config.p)
    drive = trial_drive(config, bank).__getitem__
    expected = pseudo_true_discrete(config, states, bank, drive)
    calls = []
    monkeypatch.setattr(
        harness, "integrate", lambda *a, **k: calls.append(a) or integrate(*a, **k)
    )
    monkeypatch.setattr(dynamics, "integrate", lambda *a, **k: pytest.fail("integrated twice"))
    shared = harness.prepare_shared(config)
    assert len(calls) == 1
    assert np.array_equal(shared.reference, expected)

