"""Forced-Lorenz benchmark system: simulation, features, noise, true parameters.

The benchmark dynamics are the 3-state Lorenz equations with a sinusoidal
drive added to the third component. They are linear in the parameters for the
feature vector phi = (sin(2*pi*f*t), x1, x2, x3, x1*x2, x1*x3), which is what
the identification pipeline exploits: xdot = theta' phi(t, x) with a known
sparse 6x3 theta.
"""

from __future__ import annotations

import math

import numpy as np

# Nothing here reads these; they stay bound because bench/spans.py wraps them
# on this module (ROADMAP item 1).
from .estimator import ls_estimate
from .splitfilters import assemble_design, build_split_bank


class DivergenceError(RuntimeError):
    """The integrated state left the finite range."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"state became non-finite at output step {step}")


#: Lorenz parameters sigma, rho and beta of the benchmark system, read by both
#: integrate and true_theta.
_SIGMA, _RHO, _BETA = 10.0, 28.0, 8.0 / 3.0


def forcing(t, f: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """The drive sin(2*pi*f*t), element by element, into out if given; out may be t itself."""
    return np.sin(np.multiply(2.0 * np.pi * f, t, out=out), out=out)


def feature_map(drive, state) -> np.ndarray:
    """Feature vector (drive, x1, x2, x3, x1*x2, x1*x3), the drive forcing(t, f) at the state's t.

    Broadcasts: drive may be a scalar or (n,) vector with state (3,), (n, 3)
    or any (..., n, 3) stack; output replaces the state's trailing axis with
    one of length 6. The features are written into one array along its
    first axis and the result is a view with them moved last, so each
    feature is contiguous.
    """
    state = np.asarray(state, dtype=float)
    out = np.empty((6,) + state.shape[:-1])
    out[0] = drive
    out[1:4] = np.moveaxis(state, -1, 0)
    np.multiply(out[1:2], out[2:4], out=out[4:6])  # x1*x2, x1*x3
    return np.moveaxis(out, 0, -1)


def true_theta() -> np.ndarray:
    """The 6x3 parameter matrix the forced Lorenz system factors through."""
    return np.array(
        [
            [0.0, 0.0, 1.0],
            [-_SIGMA, _RHO, 0.0],
            [_SIGMA, -1.0, 0.0],
            [0.0, 0.0, -_BETA],
            [0.0, 0.0, 1.0],
            [0.0, -1.0, 0.0],
        ]
    )


def integrate(
    x0,
    h: float,
    n: int,
    substeps: int = 1,
    forcing_freq: float = 1.0,
) -> np.ndarray:
    """Fixed-step classical 4th-order integration from x0 at t = 0: the (n, 3) noiseless states.

    The drive on the third component is sin(2*pi*forcing_freq*t).
    Each output step of length h is integrated with `substeps` internal
    stages; output sample i sits at time (i + 1) * h, so the initial
    condition itself is not part of the trajectory.

    Raises:
        DivergenceError: the state became non-finite, reported with the
            output step index at which it happened.
    """
    s, r, b = _SIGMA, _RHO, _BETA
    tpf = 2.0 * math.pi * forcing_freq
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
            half = sin(tpf * (t + hdt))  # the drive at the half step, for k2 and k3
            k2a = s * (b1 - a1)
            k2b = a1 * (r - c1) - b1
            k2c = half + a1 * b1 - b * c1
            a2, b2, c2 = x1 + hdt * k2a, x2 + hdt * k2b, x3 + hdt * k2c
            k3a = s * (b2 - a2)
            k3b = a2 * (r - c2) - b2
            k3c = half + a2 * b2 - b * c2
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
    return states


def add_noise(
    states: np.ndarray, eta: float, rng: np.random.Generator, out: np.ndarray
) -> np.ndarray:
    """Noise-corrupted states z_i = x(t_i) + N(0, eta * I), drawn into out and returned.

    out is a C-contiguous float array of the states' shape. The generator's
    stream does not depend on how it is split, so calls on consecutive
    blocks of rows give the bits of one call on all of them.
    """
    # the same draws and bits as states + rng.normal(0, sqrt(eta), shape)
    rng.standard_normal(out=out)
    out *= math.sqrt(eta)
    out += states
    return out
