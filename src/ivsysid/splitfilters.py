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

import functools
import itertools
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
    Y the hat-filtered response and Z the truncated features of the
    tilde-filtered state.

    The estimators read only the moments X'X, X'Y, Z'X and Z'Y.
    DesignMatrices(X=, Y=, Z=, times=, window_span=) forms them from the
    given rows and keeps neither times nor window_span. assemble_design
    forms them from one run of its block walk and keeps no row. Reading X,
    Y or Z runs the design's walk again and keeps the concatenated blocks,
    the rows whose moments were summed.
    """

    def __init__(
        self,
        X: np.ndarray,  # (n', d_phi)
        Y: np.ndarray,  # (n', d_H)
        Z: np.ndarray,  # (n', d_phi)
        times: np.ndarray | None,  # (n',)
        window_span: int,
    ):
        if X.shape != Z.shape or X.shape[0] != Y.shape[0]:
            raise ValueError(
                f"inconsistent design shapes X{X.shape}, Y{Y.shape}, Z{Z.shape}"
            )
        self._sum(lambda add: add(X, Y, Z))

    def _sum(self, walk: Callable) -> DesignMatrices:
        """The moments of one run of walk(add), which calls add(X, Y, Z) once per block."""
        self.n_windows, self._walk, self._kept = 0, walk, None
        walk(self._add)
        return self

    def _add(self, X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> None:
        moments = X.T @ X, X.T @ Y, Z.T @ X, Z.T @ Y
        if self.n_windows:
            for total, block in zip((self.xx, self.xy, self.zx, self.zy), moments):
                total += block
        else:
            self.xx, self.xy, self.zx, self.zy = moments
        self.n_windows += X.shape[0]

    @property
    def _rows(self) -> tuple:
        # kept on the design, with no lock: a racing second build makes the same rows
        if self._kept is None:
            blocks = []
            self._walk(lambda *rows: blocks.append(rows))
            self._kept = tuple(np.concatenate(parts) for parts in zip(*blocks))
        return self._kept

    X = property(lambda self: self._rows[0])
    Y = property(lambda self: self._rows[1])
    Z = property(lambda self: self._rows[2])


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


def window_times(bank: SplitFilterBank, windows: slice, t0: float) -> np.ndarray:
    """Regression times t0 + (w + N - 1/2) * h of the window offsets w in windows.

    windows is a slice(w0, w1, stride), as assemble_design hands each
    block's offsets to its feature map, and t0 is the time of row 0.
    """
    N, h = bank.base_window, bank.base_step
    return (np.arange(windows.start, windows.stop, windows.step) + N - 0.5) * h + t0


def _copy_rows(values: np.ndarray, a: int, b: int, out: np.ndarray) -> int:
    """An array record's read: copy the rows of a to b - 1 that values has into out."""
    rows = values[a:b]
    out[: len(rows)] = rows
    return len(rows)


def assemble_design(
    measurements,
    bank: SplitFilterBank,
    feature_map: Callable[[slice, np.ndarray], np.ndarray],
    mu: float,
    stride: int = 1,
) -> DesignMatrices:
    """Slide the split windows over a measurement series and sum the moments.

    `measurements` is an (n, d) or (n,) array, or a record: an object whose
    columns is d and whose open() starts a pass and returns read(a, b, out).
    read fills out, a C-contiguous (b - a, d) float array, with the rows a
    to a + k - 1 and returns k <= b - a; a short read (k < b - a) means
    that the record has a + k rows. A record gives no length: a pass reads
    consecutive row ranges from row 0 until its first short read and never
    goes back, so a record may draw or parse rows as they are read, and
    check every row, also those after the last window. An array is read as
    such a record whose reads copy its rows in. Windows span 2N raw samples
    (N per parity class) and start at offsets 0, stride, 2*stride, ... as
    long as they fit; trailing samples that do not fill a window are
    dropped. For the windows at the offsets w of a block, a slice(w0, w1,
    stride),

        X rows = feature_map(w, hat_G state estimates)      (later parity)
        Y rows = hat_H response estimates                   (later parity)
        Z rows = rho_truncate(feature_map(w, tilde_G state estimates), mu)
                                                            (earlier parity)

    The offsets are walked in blocks of about _BLOCK_WINDOWS, each starting
    at a multiple of stride, and each block's moments are added in order.
    A pass holds one buffer of block + 2N - 1 rows: each block moves the
    rows it shares with the block before to the front and has one read fill
    the rest, up to the rows a whole block reads. After a stride wider than
    2N nothing is shared, and that read starts at the rows the stride leaves
    between blocks, which the block skips; it spans block rows, so the buffer
    still fits. The rows after the last window, which the read that comes up
    short takes in, are dropped too. feature_map must broadcast over a
    leading axis: given the block's slice of offsets and (2, b, d_y) states
    it returns (2, b, d_phi) features. It is called once per block, on the
    hat and the tilde states together. What an offset stands for (a
    regression time, see window_times, or an entry of a column the caller
    holds) is the feature map's business.

    The design keeps the walk: reading its X, Y or Z runs it again, which
    must read the same rows, and gives the rows whose moments were summed.

    Raises:
        EmptyDesignError: fewer samples than one window, once the pass has
            read to the record's end.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if hasattr(measurements, "open"):
        d, start = measurements.columns, measurements.open
    else:
        values = np.asarray(measurements)
        values = values[:, None] if values.ndim == 1 else values
        d, start = values.shape[1], lambda: functools.partial(_copy_rows, values)
    span = 2 * bank.base_window
    block = max(stride, _BLOCK_WINDOWS - _BLOCK_WINDOWS % stride)

    def rows(samples: np.ndarray, w: slice) -> tuple:
        """X, Y and Z of the windows at the offsets w from the rows w.start onwards."""
        filtered = _parity_filtered(samples, bank)[:, ::stride]
        count = filtered.shape[1]
        features = np.asarray(feature_map(w, filtered[1:]), dtype=float)
        if features.ndim != 3 or features.shape[:2] != (2, count):
            raise ValueError(
                f"feature_map returned shape {features.shape}, expected (2, {count}, d_phi)"
            )
        X, Z_raw = features
        return X, filtered[0], rho_truncate(Z_raw, mu)

    def walk(add: Callable) -> None:
        """One forward pass; add(X, Y, Z) gets each block's rows, in order."""
        buf = np.empty((block + span - 1, d))
        read = start()
        pos = 0  # rows read so far
        for w0 in itertools.count(0, block):
            stop = w0 + block - 1 - (block - 1) % stride + span  # one past a whole block's rows
            lo = min(pos, w0)  # buf[0] holds row lo
            buf[: pos - lo] = buf[block : pos - lo + block]  # rows the last block read
            pos += read(pos, stop, buf[pos - lo : stop - lo])
            w1 = w0 + block if pos == stop else pos - span + 1  # a short read: pos rows in all
            if w1 <= w0:
                if w0:
                    return
                raise EmptyDesignError(f"need at least {span} samples for one window, got {pos}")
            end = w1 - 1 - (w1 - 1 - w0) % stride + span  # one past the last row a window reads
            # nothing here holds a block's rows past add
            add(*rows(buf[w0 - lo : end - lo], slice(w0, w1, stride)))
            if pos < stop:
                return

    return DesignMatrices.__new__(DesignMatrices)._sum(walk)
