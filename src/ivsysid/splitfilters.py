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
from typing import Callable

import numpy as np

from .polyfilter import FilterSpec, FilterWeights, build_filter


class EmptyDesignError(ValueError):
    """Not enough samples to place a single regression window."""


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
    base_window: int
    base_step: float
    # (nfft, conj(rfft) of (hat_H, hat_G, tilde_G)), keyed by parity-class length
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def stencil_spectra(self, half: int) -> tuple[int, np.ndarray]:
        """FFT length and conjugate stencil spectra for parity classes of `half` samples.

        nfft is the smallest fast length >= half and the spectra are
        (3, nfft//2 + 1). Multiplying a signal's rfft by these and
        transforming back correlates the signal with each stencil. Computed
        once per class length and kept on the bank; concurrent callers at
        worst compute the same value twice.
        """
        entry = self._spectra.get(half)
        if entry is None:
            nfft = _next_fast_len(half)
            stencils = np.stack([
                self.hat_H.coefficients[self.hat_H.spec.derivative_order],
                self.hat_G.coefficients[0],
                self.tilde_G.coefficients[0],
            ])
            entry = nfft, np.conj(np.fft.rfft(stencils, nfft, axis=1))
            self._spectra[half] = entry
        return entry


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
    if mode not in ("continuous", "discrete"):
        raise ValueError(f"mode must be 'continuous' or 'discrete', got {mode!r}")
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
        base_window=N,
        base_step=h,
    )


#: Windows per block of the streamed design. At the published discrete scale
#: (n = 1e5, N = 100) 2,048 ran slower on two workers, from per-block Python
#: overhead, and 8,192 and above brought back 1,300-2,900 minor page faults
#: per trial; 4,096 had none.
_BLOCK_WINDOWS = 4096


class DesignMatrices:
    """Moments of the stacked regression data over the placed windows.

    Row r comes from one window: X holds features of the hat-filtered state,
    Y the hat-filtered response, Z the truncated features of the
    tilde-filtered state, and times its regression time. Rows whose times
    differ by at least window_span * h were built from windows with no raw
    samples in common.

    The estimators read only the moments X'X, X'Y, Z'X and Z'Y.
    DesignMatrices(X=, Y=, Z=, times=, window_span=) forms them from the
    given rows. assemble_design forms them block by block and keeps no
    full-length row; reading X, Y, Z or times then rebuilds all rows once
    and keeps them.
    """

    def __init__(
        self,
        X: np.ndarray,  # (n', d_phi)
        Y: np.ndarray,  # (n', d_H)
        Z: np.ndarray,  # (n', d_phi)
        times: np.ndarray,  # (n',)
        window_span: int,
    ):
        if X.shape != Z.shape or X.shape[0] != Y.shape[0]:
            raise ValueError(
                f"inconsistent design shapes X{X.shape}, Y{Y.shape}, Z{Z.shape}"
            )
        self.window_span = window_span
        self.n_windows = X.shape[0]
        self.xx, self.xy, self.zx, self.zy = X.T @ X, X.T @ Y, Z.T @ X, Z.T @ Y
        self._rows: tuple | None = (X, Y, Z, times)
        self._rebuild: Callable[[], tuple] | None = None

    def _add_block(self, X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> None:
        """Add the moments of further rows; the kept rows no longer cover them."""
        self.xx += X.T @ X
        self.xy += X.T @ Y
        self.zx += Z.T @ X
        self.zy += Z.T @ Y
        self.n_windows += X.shape[0]
        self._rows = None

    def _all_rows(self) -> tuple:
        # concurrent first readers at worst rebuild the same rows twice
        if self._rows is None:
            self._rows = self._rebuild()
        return self._rows

    X = property(lambda self: self._all_rows()[0])
    Y = property(lambda self: self._all_rows()[1])
    Z = property(lambda self: self._all_rows()[2])
    times = property(lambda self: self._all_rows()[3])


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
    norms /= mu
    norms += 1.0
    return x / norms[..., None]


def _next_fast_len(target: int) -> int:
    """The smallest 5-smooth length 2^a 3^b 5^c >= target (target >= 1).

    Real transforms of these lengths are the fast ones in pocketfft.
    """
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two times p35 that reaches target
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _parity_filtered(measurements: np.ndarray, bank: SplitFilterBank) -> np.ndarray:
    """The three stencils' outputs at every window offset, (3, n - 2N + 1, d).

    Window w reads hat samples w + 1 + 2k and tilde samples w + 2k, k < N.
    With the even subsequence E[j] = m[2j] and the odd one O[j] = m[2j + 1],
    even offsets w = 2a read hat from O[a + k] and tilde from E[a + k]; odd
    offsets w = 2a + 1 read hat from E[a + 1 + k] and tilde from O[a + k].
    E and O are stacked as a (2, d, nfft) array, zero after their
    ceil(n/2) samples (O one sample shorter when n is odd), so the real FFT
    of both reads it at the transform length without a padded copy. One
    inverse FFT of the product with the stencil spectra correlates each
    line with all three stencils. Every line is transformed on its own, so
    an output never mixes rounding from the other parity class.

    The result is the transposed view of a (3, d, windows) array: each
    component's outputs are one contiguous row.
    """
    n, N = measurements.shape[0], bank.base_window
    windows = n - 2 * N + 1
    n_even, n_odd = (windows + 1) // 2, windows // 2
    half = (n + 1) // 2
    nfft, spectra = bank.stencil_spectra(half)
    classes = np.zeros((2, measurements.shape[1], nfft))
    classes[0, :, :half] = measurements[0::2].T
    classes[1, :, : n // 2] = measurements[1::2].T
    # circular correlation; entries a <= len(class) - N never wrap
    spectra = spectra[:, None, None, :]
    even, odd = np.fft.irfft(np.fft.rfft(classes) * spectra, nfft).transpose(1, 0, 2, 3)
    out = np.empty((3, measurements.shape[1], windows))
    out[:2, :, 0::2] = odd[:2, :, :n_even]
    out[:2, :, 1::2] = even[:2, :, 1 : n_odd + 1]
    out[2, :, 0::2] = even[2, :, :n_even]
    out[2, :, 1::2] = odd[2, :, :n_odd]
    return out.transpose(0, 2, 1)


def _open(measurements) -> Callable[[int, int, np.ndarray], object]:
    """Start a forward pass over an (n, d) array or a record (see assemble_design)."""
    if hasattr(measurements, "open"):
        return measurements.open()
    return lambda a, b, out: np.copyto(out, measurements[a:b])


def window_times(
    bank: SplitFilterBank, w0: int, w1: int, stride: int = 1, t0: float | None = None
) -> np.ndarray:
    """Regression times t0 + (w + N - 1/2) * h of the windows at w = w0, w0 + stride, ... < w1.

    t0, the time of row 0, is h when None (the simulator's grid).
    """
    N, h = bank.base_window, bank.base_step
    t0 = h if t0 is None else t0
    return (np.arange(w0, w1, stride) + N - 0.5) * h + t0


def assemble_design(
    measurements,
    bank: SplitFilterBank,
    feature_map: Callable[[np.ndarray, np.ndarray], np.ndarray],
    mu: float,
    stride: int = 1,
    t0: float | None = None,
    time_column: np.ndarray | None = None,
) -> DesignMatrices:
    """Slide the split windows over a measurement series and sum the moments.

    `measurements` is an (n, d) or (n,) array, or a record: an object with
    shape (n, d) whose open() starts a pass and returns read(a, b, out),
    which fills out, a C-contiguous (b - a, d) float array, with the rows a
    to b - 1 (an array input's rows are copied in). A pass reads consecutive
    row ranges from row 0 to row n and never goes back, so a record may draw
    or parse rows as they are read, and check every row, also those after
    the last window. Sample i (0-based row) sits at time
    t0 + i * h, with t0 = h when not given (the simulator's grid).
    Windows span 2N raw samples (N per parity class) and start at offsets
    0, stride, 2*stride, ... as long as they fit; trailing samples that do
    not fill a window are dropped. For the window at offset w the regression
    time is t = t0 + (w + N - 1/2) * h and

        X row  = feature_map(t, hat_G state estimate)       (later parity)
        Y row  = hat_H response estimate                    (later parity)
        Z row  = rho_truncate(feature_map(t, tilde_G state estimate), mu)
                                                            (earlier parity)

    The offsets are walked in blocks of about _BLOCK_WINDOWS, each starting
    at a multiple of stride, and each block's moments are added in order.
    A pass holds one buffer of block + 2N - 1 rows: each block moves the
    rows it shares with the block before to the front and has read fill the
    rest. The rows that a stride wider than 2N leaves between blocks, and
    those after the last window, are read into it and dropped.
    feature_map must broadcast over a leading axis: given a (b,) vector and
    (2, b, d_y) states it returns (2, b, d_phi) features. The vector holds
    the block's regression times, or, with time_column, the block's entries
    of it: one value per window offset 0 .. n - 2N, some function of that
    window's regression time that the caller computed once. feature_map is
    called once per block, on the hat and the tilde states together.

    A one-block design keeps its X, Y and Z; a longer one rebuilds them in
    one block from a second pass when they are read, which must give the
    same rows as the first. Their times follow from the geometry (see
    window_times).

    Raises:
        EmptyDesignError: fewer samples than one window.
    """
    record = hasattr(measurements, "open")
    if not record:
        measurements = np.asarray(measurements)
    n = measurements.shape[0]
    N = bank.base_window
    span = 2 * N
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if n < span:
        raise EmptyDesignError(f"need at least {span} samples for one window, got {n}")
    windows = n - span + 1
    if time_column is not None and len(time_column) != windows:
        raise ValueError(f"time_column has {len(time_column)} entries for {windows} windows")
    if not record:
        measurements = measurements.reshape(n, -1)
    d = measurements.shape[1]

    def end(w0: int, w1: int) -> int:
        """One past the last row read by the windows at offsets w0, w0 + stride, ... < w1."""
        return w1 - 1 - (w1 - 1 - w0) % stride + span

    def rows(samples: np.ndarray, w0: int, w1: int) -> tuple:
        """X, Y and Z of the windows at w0, w0 + stride, ... < w1 from rows w0 to end."""
        filtered = _parity_filtered(samples, bank)[:, ::stride]
        if time_column is None:
            column = window_times(bank, w0, w1, stride, t0)
        else:
            column = time_column[w0:w1:stride]
        features = np.asarray(feature_map(column, filtered[1:]), dtype=float)
        if features.ndim != 3 or features.shape[:2] != (2, column.shape[0]):
            raise ValueError(
                f"feature_map returned shape {features.shape}, "
                f"expected (2, {column.shape[0]}, d_phi)"
            )
        X, Z_raw = features
        return X, filtered[0], rho_truncate(Z_raw, mu)

    block = max(stride, _BLOCK_WINDOWS - _BLOCK_WINDOWS % stride)
    buf = np.empty((min(block + span - 1, n), d))
    read, design = _open(measurements), None
    pos = first = 0  # rows read so far; the row buf[0] holds
    for w0 in range(0, windows, block):
        w1 = min(w0 + block, windows)
        stop = end(w0, w1)
        if pos < w0:
            read(pos, w0, buf[: w0 - pos])  # rows no window reads
        else:
            buf[: pos - w0] = buf[w0 - first : pos - first]  # rows the last block read
        a = max(pos, w0)
        read(a, stop, buf[a - w0 : stop - w0])
        pos, first = stop, w0
        # nothing holds a block's rows past its moments unless it is the only block
        if design is None:
            design = DesignMatrices(*rows(buf[: stop - w0], w0, w1), None, window_span=span)
            if w1 < windows:
                design._rows = None
        else:
            design._add_block(*rows(buf[: stop - w0], w0, w1))
    if pos < n:
        read(pos, n, buf[: n - pos])  # rows after the last window
    kept, design._rows = design._rows, None  # a one-block design's rows

    def rebuild() -> tuple:
        times = window_times(bank, 0, windows, stride, t0)
        if kept is not None:
            return (*kept[:3], times)
        read, stop, samples = _open(measurements), end(0, windows), np.empty((n, d))
        read(0, stop, samples[:stop])
        if stop < n:
            read(stop, n, samples[stop:])
        return (*rows(samples[:stop], 0, windows), times)

    design._rebuild = rebuild
    return design
