"""Forced-Lorenz benchmark system: simulation, features, noise, references.

The benchmark dynamics are the 3-state Lorenz equations with a sinusoidal
drive added to the third component. They are linear in the parameters for the
feature vector phi = (sin(2*pi*f*t), x1, x2, x3, x1*x2, x1*x3), which is what
the identification pipeline exploits: xdot = theta' phi(t, x) with a known
sparse 6x3 theta.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .estimator import ls_estimate
from .splitfilters import assemble_design, build_split_bank


class DivergenceError(RuntimeError):
    """The integrated state left the finite range."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"state became non-finite at output step {step}")


@dataclass(frozen=True)
class LorenzParams:
    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    forcing_freq: float = 1.0

    def __post_init__(self):
        for name in ("sigma", "rho", "beta", "forcing_freq"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class Trajectory:
    """Noiseless states on the grid times[i] = (i + 1) * h."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if self.states.shape != (self.times.shape[0], 3):
            raise ValueError("states must be (n, 3) aligned with times")
        steps = np.diff(self.times)
        if steps.size and not (
            np.all(steps > 0) and np.allclose(steps, steps[0], rtol=1e-9)
        ):
            raise ValueError("times must increase with a constant step")


@dataclass(frozen=True)
class MeasurementSeries:
    """Noise-corrupted states z_i = x(t_i) + N(0, eta * I)."""

    values: np.ndarray
    noise_variance: float
    seed: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("measurements contain non-finite entries")


def lorenz_rhs(t: float, state: np.ndarray, params: LorenzParams) -> np.ndarray:
    """Right-hand side of the forced Lorenz system."""
    x1, x2, x3 = state
    s, r, b = params.sigma, params.rho, params.beta
    drive = math.sin(2.0 * math.pi * params.forcing_freq * t)
    return np.array(
        [s * (x2 - x1), x1 * (r - x3) - x2, drive + x1 * x2 - b * x3]
    )


def feature_map(t, state, f: float = 1.0) -> np.ndarray:
    """Feature vector (sin(2*pi*f*t), x1, x2, x3, x1*x2, x1*x3).

    Broadcasts: t may be a scalar or (n,) vector with state (3,), (n, 3) or
    any (..., n, 3) stack; output replaces the state's trailing axis with
    one of length 6. The features are stacked along the first axis and the
    result is a view with them moved last, so each feature is contiguous.
    """
    state = np.asarray(state, dtype=float)
    x1, x2, x3 = state[..., 0], state[..., 1], state[..., 2]
    drive = np.sin(2.0 * np.pi * f * np.asarray(t, dtype=float))
    drive = np.broadcast_to(drive, x1.shape)
    return np.moveaxis(np.stack([drive, x1, x2, x3, x1 * x2, x1 * x3]), 0, -1)


def true_theta() -> np.ndarray:
    """The 6x3 parameter matrix the forced Lorenz system factors through."""
    return np.array(
        [
            [0.0, 0.0, 1.0],
            [-10.0, 28.0, 0.0],
            [10.0, -1.0, 0.0],
            [0.0, 0.0, -8.0 / 3.0],
            [0.0, 0.0, 1.0],
            [0.0, -1.0, 0.0],
        ]
    )


def integrate(
    params: LorenzParams,
    x0,
    h: float,
    n: int,
    substeps: int = 1,
) -> Trajectory:
    """Fixed-step classical 4th-order integration from x0 at t = 0.

    Each output step of length h is integrated with `substeps` internal
    stages; output sample i sits at time (i + 1) * h, so the initial
    condition itself is not part of the trajectory.

    Raises:
        DivergenceError: the state became non-finite, reported with the
            output step index at which it happened.
    """
    if not h > 0:
        raise ValueError(f"step h must be positive, got {h}")
    if n < 1 or substeps < 1:
        raise ValueError("n and substeps must be >= 1")
    s, r, b = params.sigma, params.rho, params.beta
    tpf = 2.0 * math.pi * params.forcing_freq
    dt = h / substeps
    hdt = dt / 2.0
    sdt = dt / 6.0
    x1, x2, x3 = (float(v) for v in x0)
    sin = math.sin

    states = np.empty((n, 3))
    for i in range(n):
        t0 = i * h
        for sub in range(substeps):
            # classical RK4 stage cascade, written out per component
            t = t0 + sub * dt
            k1a = s * (x2 - x1)
            k1b = x1 * (r - x3) - x2
            k1c = sin(tpf * t) + x1 * x2 - b * x3
            a1, b1, c1 = x1 + hdt * k1a, x2 + hdt * k1b, x3 + hdt * k1c
            th = t + hdt
            k2a = s * (b1 - a1)
            k2b = a1 * (r - c1) - b1
            k2c = sin(tpf * th) + a1 * b1 - b * c1
            a2, b2, c2 = x1 + hdt * k2a, x2 + hdt * k2b, x3 + hdt * k2c
            k3a = s * (b2 - a2)
            k3b = a2 * (r - c2) - b2
            k3c = sin(tpf * th) + a2 * b2 - b * c2
            a3, b3, c3 = x1 + dt * k3a, x2 + dt * k3b, x3 + dt * k3c
            tf = t + dt
            k4a = s * (b3 - a3)
            k4b = a3 * (r - c3) - b3
            k4c = sin(tpf * tf) + a3 * b3 - b * c3
            x1 = x1 + sdt * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
            x2 = x2 + sdt * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
            x3 = x3 + sdt * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(x3)):
            raise DivergenceError(i)
        states[i, 0] = x1
        states[i, 1] = x2
        states[i, 2] = x3

    times = np.arange(1, n + 1) * h
    return Trajectory(times=times, states=states)


def add_noise(traj: Trajectory, eta: float, seed: int) -> MeasurementSeries:
    """Add i.i.d. N(0, eta) noise to every state component, reproducibly."""
    if eta < 0:
        raise ValueError(f"noise variance must be >= 0, got {eta}")
    rng = np.random.default_rng(seed)
    # the same draws and bits as traj.states + rng.normal(0, sqrt(eta), shape)
    values = rng.standard_normal(traj.states.shape)
    values *= math.sqrt(eta)
    values += traj.states
    return MeasurementSeries(values=values, noise_variance=eta, seed=seed)


#: pseudo-true references by geometry, oldest first; at most
#: _PSEUDO_TRUE_CACHE_SIZE are kept
_pseudo_true_cache: dict[tuple, np.ndarray] = {}
_PSEUDO_TRUE_CACHE_SIZE = 8
_pseudo_true_lock = threading.Lock()


def pseudo_true_discrete(config, trajectory: Trajectory | None = None) -> np.ndarray:
    """Zero-noise least-squares reference for the discrete-time model.

    The discrete pipeline estimates the one-step transition map, for which no
    closed-form parameter matrix exists; the convention is to measure
    estimation error against the value the least-squares estimator converges
    to on noiseless data. That value is a pure function of the pipeline
    geometry, so it is computed once per configuration and cached; the
    cache keeps the most recent few configurations. `config`
    must provide mode, n, h, N, p, stride, substeps, forcing_freq and x0,
    with p already feasible for the split window. `trajectory`, when given,
    must be the noiseless path those fields describe; it saves integrating
    that path again.
    """
    if config.mode != "discrete":
        raise ValueError("pseudo-true reference applies to discrete mode only")
    key = (
        config.n,
        config.h,
        config.N,
        config.p,
        config.stride,
        config.substeps,
        config.forcing_freq,
        tuple(config.x0),
    )
    cached = _pseudo_true_cache.get(key)
    if cached is not None:
        return cached
    if trajectory is None:
        params = LorenzParams(forcing_freq=config.forcing_freq)
        trajectory = integrate(params, config.x0, config.h, config.n, config.substeps)
    bank = build_split_bank("discrete", config.N, config.h, config.p)
    feats = lambda t, state: feature_map(t, state, config.forcing_freq)  # noqa: E731
    # mu only shapes the instruments, which least squares never reads
    design = assemble_design(trajectory.states, bank, feats, mu=1e9, stride=config.stride)
    theta = ls_estimate(design).theta
    theta.setflags(write=False)
    with _pseudo_true_lock:
        _pseudo_true_cache[key] = theta
        while len(_pseudo_true_cache) > _PSEUDO_TRUE_CACHE_SIZE:
            del _pseudo_true_cache[next(iter(_pseudo_true_cache))]
    return theta
