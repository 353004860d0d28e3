"""Sample-split filter banks and regression design assembly.

Measurements inside a span of 2N consecutive samples are split by parity
into two interleaved N-point grids of step 2h. The "hat" filters (responses
and regressors) read one parity class, the "tilde" filter (instruments)
reads the other, and both target the same off-grid physical time, the
midpoint between the classes' last samples. Because the two classes carry
disjoint measurement noise, the instruments are noise-independent of the
regressors row by row, which is what removes the errors-in-variables bias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .polyfilter import FilterSpec, FilterWeights, build_filter


class EmptyDesignError(ValueError):
    """Not enough samples to place a single regression window."""


@dataclass(frozen=True)
class OperatorKind:
    """What the response operator measures: a shift or a derivative."""

    tag: Literal["shift", "derivative"]
    order: int

    def __post_init__(self):
        if self.tag not in ("shift", "derivative"):
            raise ValueError(f"unknown operator tag {self.tag!r}")
        if self.order < 0:
            raise ValueError("operator order must be >= 0")


def model_operators(mode: str) -> tuple[OperatorKind, OperatorKind]:
    """The (H, G) operator pair for a model class.

    Discrete-time models regress the shifted state on features of the current
    state; continuous-time models regress the time derivative.
    """
    if mode == "discrete":
        return OperatorKind("shift", 1), OperatorKind("shift", 0)
    if mode == "continuous":
        return OperatorKind("derivative", 1), OperatorKind("derivative", 0)
    raise ValueError(f"mode must be 'continuous' or 'discrete', got {mode!r}")


@dataclass(frozen=True)
class SplitFilterBank:
    """The three stencils of one split design.

    hat_H estimates the response (derivative in continuous mode, shifted
    value in discrete mode) and hat_G the state, both from one parity class;
    tilde_G estimates the state from the other class. All three live on
    windows of base_window samples with step 2*base_step, so one design row
    spans 2*base_window raw samples.
    """

    hat_H: FilterWeights
    hat_G: FilterWeights
    tilde_G: FilterWeights
    mode: Literal["continuous", "discrete"]
    base_window: int
    base_step: float
    # conj(rfft) of (hat_H, hat_G, tilde_G), keyed by FFT length
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def stencil_spectra(self, nfft: int) -> np.ndarray:
        """Conjugate spectra of the three stencils at FFT length nfft, (3, nfft//2 + 1).

        Multiplying a signal's rfft by these and transforming back correlates
        the signal with each stencil. Computed once per length and kept on the
        bank; concurrent callers at worst compute the same value twice.
        """
        spectra = self._spectra.get(nfft)
        if spectra is None:
            stencils = np.stack([
                self.hat_H.coefficients[self.hat_H.spec.derivative_order],
                self.hat_G.coefficients[0],
                self.tilde_G.coefficients[0],
            ])
            spectra = np.conj(rfft(stencils, nfft, axis=1))
            self._spectra[nfft] = spectra
        return spectra


def build_split_bank(mode: str, N: int, h: float, p: int) -> SplitFilterBank:
    """Construct the hat/tilde stencils, N taps each at doubled step 2h.

    The two parity classes each contain N samples spaced 2h apart, offset by
    h from each other, covering 2N raw samples together. On the doubled grid
    the physical target sits a quarter step before the natural center
    location (1 + N)/2 of the later class and a quarter step after that of
    the earlier class, hence the -1/4 (hat) and +1/4 (tilde) location
    shifts. In discrete mode the response filter targets half a doubled-grid
    step past that point, so the learned map advances the state by h.

    Args:
        mode: "continuous" (response = derivative) or "discrete" (= shift).
        N: taps per filter; must be even.
        h: base sample spacing.
        p: exactness degree of all three stencils; at most N.

    Returns:
        SplitFilterBank with the three solved stencils.

    Raises:
        ValueError: N odd or mode unknown.
        FilterRankError: p > N.
    """
    model_operators(mode)  # validates mode
    if N % 2 != 0:
        raise ValueError(f"window size must be even for the parity split, got {N}")
    step = 2.0 * h
    center = (1 + N) / 2.0
    d_H = 1 if mode == "continuous" else 0
    loc_H = center if mode == "continuous" else (2 + N) / 2.0

    hat_H = build_filter(FilterSpec(N, step, loc_H - 0.25, d_H, p, max_derivative=d_H))
    hat_G = build_filter(FilterSpec(N, step, center - 0.25, 0, p, max_derivative=0))
    tilde_G = build_filter(FilterSpec(N, step, center + 0.25, 0, p, max_derivative=0))
    return SplitFilterBank(
        hat_H=hat_H,
        hat_G=hat_G,
        tilde_G=tilde_G,
        mode=mode,  # type: ignore[arg-type]
        base_window=N,
        base_step=h,
    )


@dataclass(frozen=True)
class DesignMatrices:
    """Stacked regression data over the placed windows.

    X holds features of the hat-filtered state, Y the hat-filtered response,
    Z the truncated features of the tilde-filtered state. Rows whose times
    differ by at least window_span * h were built from windows with no raw
    samples in common.

    The estimators read only the moments X'X, X'Y, Z'X and Z'Y, which are
    formed once here.
    """

    X: np.ndarray  # (n', d_phi)
    Y: np.ndarray  # (n', d_H)
    Z: np.ndarray  # (n', d_phi)
    times: np.ndarray  # (n',)
    window_span: int
    xx: np.ndarray = field(init=False, repr=False, compare=False)  # (d_phi, d_phi)
    xy: np.ndarray = field(init=False, repr=False, compare=False)  # (d_phi, d_H)
    zx: np.ndarray = field(init=False, repr=False, compare=False)  # (d_phi, d_phi)
    zy: np.ndarray = field(init=False, repr=False, compare=False)  # (d_phi, d_H)

    def __post_init__(self):
        X, Y, Z = self.X, self.Y, self.Z
        if X.shape != Z.shape or X.shape[0] != Y.shape[0]:
            raise ValueError(
                f"inconsistent design shapes X{X.shape}, Y{Y.shape}, Z{Z.shape}"
            )
        for name, value in (("xx", X.T @ X), ("xy", X.T @ Y), ("zx", Z.T @ X), ("zy", Z.T @ Y)):
            object.__setattr__(self, name, value)


def rho_truncate(x: np.ndarray, mu: float) -> np.ndarray:
    """Radially shrink vectors to norm < mu: x -> x / (1 + ||x||/mu).

    Operates on the last axis, so a matrix of row vectors is truncated row by
    row. The map is the identity up to O(||x||/mu) near the origin and caps
    the norm at mu, which tames heavy-tailed feature products.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    x = np.asarray(x, dtype=float)
    norms = np.sqrt(np.einsum("...i,...i->...", x, x))
    return x / (1.0 + norms / mu)[..., None]


def _parity_filtered(measurements: np.ndarray, bank: SplitFilterBank) -> np.ndarray:
    """The three stencils' outputs at every window offset, (3, n - 2N + 1, d).

    Window w reads hat samples w + 1 + 2k and tilde samples w + 2k, k < N.
    With the even subsequence E[j] = m[2j] and the odd one O[j] = m[2j + 1],
    even offsets w = 2a read hat from O[a + k] and tilde from E[a + k]; odd
    offsets w = 2a + 1 read hat from E[a + 1 + k] and tilde from O[a + k].
    Each subsequence is correlated with all three stencils through its own
    FFT, so an output never mixes rounding from the other parity class.

    The result is the transposed view of a (3, d, windows) array: each
    component's outputs are one contiguous row.
    """
    n, N = measurements.shape[0], bank.base_window
    windows = n - 2 * N + 1
    n_even, n_odd = (windows + 1) // 2, windows // 2
    nfft = next_fast_len((n + 1) // 2, real=True)
    spectra = bank.stencil_spectra(nfft)[:, None, :]

    def correlated(sub: np.ndarray) -> np.ndarray:
        # circular correlation; entries a <= len(sub) - N never wrap
        return irfft(rfft(sub.T, nfft)[None] * spectra, nfft)

    even = correlated(measurements[0::2])
    odd = correlated(measurements[1::2])
    out = np.empty((3, measurements.shape[1], windows))
    out[:2, :, 0::2] = odd[:2, :, :n_even]
    out[:2, :, 1::2] = even[:2, :, 1 : n_odd + 1]
    out[2, :, 0::2] = even[2, :, :n_even]
    out[2, :, 1::2] = odd[2, :, :n_odd]
    return out.transpose(0, 2, 1)


def assemble_design(
    measurements: np.ndarray,
    bank: SplitFilterBank,
    feature_map: Callable[[np.ndarray, np.ndarray], np.ndarray],
    mu: float,
    stride: int = 1,
    t0: float | None = None,
) -> DesignMatrices:
    """Slide the split windows over a measurement series and stack the rows.

    Sample i (0-based row of `measurements`) sits at time t0 + i * h, with
    t0 = h when not given (the simulator's grid). Windows span 2N raw samples
    (N per parity class) and start at offsets 0, stride, 2*stride, ... as
    long as they fit; trailing samples that do not fill a window are dropped.
    For the window at offset w the regression time is t = t0 + (w + N - 1/2) * h
    and

        X row  = feature_map(t, hat_G state estimate)       (later parity)
        Y row  = hat_H response estimate                    (later parity)
        Z row  = rho_truncate(feature_map(t, tilde_G state estimate), mu)
                                                            (earlier parity)

    feature_map must broadcast over a leading axis: given a (n',) time vector
    and (2, n', d_y) states it returns (2, n', d_phi) features. It is called
    once per design, on the hat and the tilde states together.

    Raises:
        EmptyDesignError: fewer samples than one window.
    """
    measurements = np.asarray(measurements, dtype=float)
    if measurements.ndim == 1:
        measurements = measurements[:, None]
    n = measurements.shape[0]
    N, h = bank.base_window, bank.base_step
    span = 2 * N
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if n < span:
        raise EmptyDesignError(f"need at least {span} samples for one window, got {n}")

    filtered = _parity_filtered(measurements, bank)[:, ::stride]

    offsets = np.arange(0, n - span + 1, stride)
    times = (offsets + N - 0.5) * h + (h if t0 is None else t0)

    features = np.asarray(feature_map(times, filtered[1:]), dtype=float)
    if features.ndim != 3 or features.shape[:2] != (2, times.shape[0]):
        raise ValueError(
            f"feature_map returned shape {features.shape}, "
            f"expected (2, {times.shape[0]}, d_phi)"
        )
    X, Z_raw = features
    Z = rho_truncate(Z_raw, mu)
    return DesignMatrices(X=X, Y=filtered[0], Z=Z, times=times, window_span=span)
