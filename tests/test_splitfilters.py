from __future__ import annotations

import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivsysid import harness, splitfilters
from ivsysid.cli import _CsvRecord
from ivsysid.dynamics import add_noise, feature_map, forcing
from ivsysid.harness import NoisyRecord
from ivsysid.polyfilter import FilterRankError
from ivsysid.splitfilters import (
    DesignMatrices,
    EmptyDesignError,
    _next_fast_len,
    _parity_filtered,
    assemble_design,
    build_split_bank,
    rho_truncate,
    window_times,
)

identity_features = lambda w, s: s  # noqa: E731


def lorenz_features(bank, t0=None, f=1.0):
    """The Lorenz features of the windows at the offsets w, driven at their regression times.

    Row 0 sits at t0, or at t = h when t0 is None (the simulator's grid).
    """
    t0 = bank.base_step if t0 is None else t0
    return lambda w, s: feature_map(forcing(window_times(bank, w, t0), f), s)


def all_times(bank, n, stride=1):
    """The regression times of every window of an n-sample series (row 0 at t = h)."""
    return window_times(bank, slice(0, n - 2 * bank.base_window + 1, stride), bank.base_step)


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
    # past the state filter, where the tilde filter sits: it is tilde_G
    assert bank.hat_H is bank.tilde_G
    assert bank.hat_H.spec.location - bank.hat_G.spec.location == pytest.approx(0.5)
    assert bank.tilde_G.spec.location - bank.hat_G.spec.location == pytest.approx(0.5)


@pytest.mark.parametrize("mode, stencils", [("continuous", 3), ("discrete", 2)])
def test_bank_solves_and_transforms_each_distinct_stencil_once(mode, stencils, monkeypatch):
    calls = []
    real = splitfilters.build_filter
    monkeypatch.setattr(
        splitfilters, "build_filter", lambda spec: calls.append(spec) or real(spec)
    )
    bank = build_split_bank(mode, 100, 0.001, 75)
    assert len(calls) == stencils
    nfft, spectra = bank.stencil_spectra(5_000)
    assert spectra.shape == (stencils, nfft // 2 + 1)


def test_bank_supports_high_degree():
    # the benchmark degree must be buildable on the full tap count
    bank = build_split_bank("continuous", 100, 0.001, 75)
    assert bank.hat_G.spec.window_size == 100
    assert bank.hat_G.spec.exactness_degree == 75


def test_bank_preconditions():
    # ExperimentConfig checks mode and N's parity (tests/test_harness.py)
    with pytest.raises(FilterRankError):
        build_split_bank("continuous", 100, 0.001, 150)


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    mismatched = [
        t for t in range(1, 20_001) if _next_fast_len(t) != next_fast_len(t, real=True)
    ]
    assert mismatched == []


def _scipy_parity_filtered(y, bank):
    # reference: each parity class through its own scipy.fft transform pair
    from scipy.fft import irfft, next_fast_len, rfft

    n, N = y.shape[0], bank.base_window
    windows = n - 2 * N + 1
    nfft = next_fast_len((n + 1) // 2, real=True)
    stencils = np.stack([
        bank.hat_H.coefficients[bank.hat_H.spec.derivative_order],
        bank.hat_G.coefficients[0],
        bank.tilde_G.coefficients[0],
    ])
    spectra = np.conj(rfft(stencils, nfft, axis=1))[:, None, :]
    even = irfft(rfft(y[0::2].T, nfft)[None] * spectra, nfft)
    odd = irfft(rfft(y[1::2].T, nfft)[None] * spectra, nfft)
    out = np.empty((3, y.shape[1], windows))
    out[:2, :, 0::2] = odd[:2, :, : (windows + 1) // 2]
    out[:2, :, 1::2] = even[:2, :, 1 : windows // 2 + 1]
    out[2, :, 0::2] = even[2, :, : (windows + 1) // 2]
    out[2, :, 1::2] = odd[2, :, : windows // 2]
    return out.transpose(0, 2, 1)


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize("n", [200, 201, 9_999, 10_000])  # 2N, odd, many blocks' worth, even
def test_parity_filtered_matches_scipy_reference(mode, n):
    bank = build_split_bank(mode, 100, 1e-3, 8)
    y = np.random.default_rng(n).normal(size=(n, 3)) + 3.0
    got, want = _parity_filtered(y, bank), _scipy_parity_filtered(y, bank)
    assert got.shape == want.shape == (3, n - 199, 3)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    if mode == "discrete":
        # the response at offset w is the tilde output at w + 1, bit for bit
        assert got[0, :-1].tobytes() == got[2, 1:].tobytes()


def test_cli_and_harness_import_without_scipy():
    # a fresh interpreter that imports the package under test, not an installed copy
    package_root = os.path.dirname(os.path.dirname(splitfilters.__file__))
    code = (
        "import sys, ivsysid.cli, ivsysid.harness; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=package_root)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.strip() == "[]"


def test_hat_and_tilde_agree_on_linear_signal():
    # both state filters target the same physical time, so on y(t) = t they
    # must return the same value
    N, h = 12, 0.1
    bank = build_split_bank("continuous", N, h, 3)
    y = (np.arange(1, 41) * h)[:, None]
    design = assemble_design(y, bank, identity_features, mu=1e9, stride=1)
    np.testing.assert_allclose(design.X, design.Z, atol=1e-9)
    np.testing.assert_allclose(design.X[:, 0], all_times(bank, 40), atol=1e-9)


def test_polynomial_trajectory_continuous():
    # a cubic signal with p = 4 stencils: states exact, response = derivative
    N, h, p = 16, 0.05, 4
    bank = build_split_bank("continuous", N, h, p)
    coef = np.array([0.3, -1.2, 0.8, 0.25])
    poly = np.polynomial.Polynomial(coef)
    t = np.arange(1, 61) * h
    y = poly(t)[:, None]
    design = assemble_design(y, bank, identity_features, mu=1e9, stride=1)
    times = all_times(bank, 60)
    np.testing.assert_allclose(design.X, design.Z, atol=1e-6)
    np.testing.assert_allclose(design.X[:, 0], poly(times), atol=1e-8)
    np.testing.assert_allclose(design.Y[:, 0], poly.deriv()(times), atol=1e-6)


def test_polynomial_trajectory_discrete_shift():
    # discrete response estimates the state one raw step (h) ahead
    N, h, p = 16, 0.05, 4
    bank = build_split_bank("discrete", N, h, p)
    poly = np.polynomial.Polynomial([0.1, 0.7, -0.4, 0.05])
    t = np.arange(1, 61) * h
    y = poly(t)[:, None]
    design = assemble_design(y, bank, identity_features, mu=1e9, stride=1)
    np.testing.assert_allclose(design.Y[:, 0], poly(all_times(bank, 60) + h), atol=1e-8)


def test_design_shapes_and_times():
    N, h, stride = 10, 0.5, 3
    bank = build_split_bank("continuous", N, h, 3)
    y = np.random.default_rng(0).normal(size=(35, 2))
    offsets = []
    design = assemble_design(
        y, bank, lambda w, s: offsets.append(w) or s, mu=5.0, stride=stride
    )
    n_prime = (35 - 2 * N) // stride + 1
    assert offsets == [slice(0, 16, stride)]
    assert design.X.shape == (n_prime, 2)
    assert design.Y.shape == (n_prime, 2)
    assert design.Z.shape == (n_prime, 2)
    expected_times = (np.arange(0, 16, stride) + N + 0.5) * h
    np.testing.assert_allclose(window_times(bank, offsets[0], h), expected_times)


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


def _check_against_dot_products(mode, n):
    # oracle: window w applies hat stencils to samples w + 1 + 2k and the
    # tilde stencil to samples w + 2k, one explicit dot product per row; the
    # summed moments must equal those of the oracle's rows
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
            cases += [(lorenz_features(bank), stride) for stride in (1, 3)]
        for features, stride in cases:
            design = assemble_design(y, bank, features, mu=mu, stride=stride)
            every = slice(0, n - 2 * N + 1, stride)
            offsets = np.arange(every.start, every.stop, every.step)
            hat = np.array([y[w + 1 : w + 2 * N : 2].T for w in offsets])
            tilde = np.array([y[w : w + 2 * N : 2].T for w in offsets])
            expected = {
                "Y": hat @ c_H,
                "X": features(every, hat @ c_G),
                "Z": rho_truncate(features(every, tilde @ c_T), mu),
            }
            X, Y, Z = expected["X"], expected["Y"], expected["Z"]
            moments = {"xx": X.T @ X, "xy": X.T @ Y, "zx": Z.T @ X, "zy": Z.T @ Y}
            assert design.n_windows == offsets.size
            for name, want in (expected | moments).items():
                got = getattr(design, name)
                assert got.shape == want.shape
                err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert err <= 1e-12, (name, cols, stride, features, err)


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize("n", [12, 19, 40])  # 2N exactly, odd, longer
def test_design_matches_per_window_dot_products(mode, n):
    _check_against_dot_products(mode, n)


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_multi_block_design_matches_per_window_dot_products(mode, monkeypatch):
    # 29 offsets in blocks of 5 (4 at stride 2, 3 at stride 3) make 6 to 10
    # blocks, each starting at a multiple of the stride
    monkeypatch.setattr(splitfilters, "_BLOCK_WINDOWS", 5)
    _check_against_dot_products(mode, 40)


def test_feature_map_called_once_per_design():
    # both parity classes' states go through one call, and every design
    # column comes out as one contiguous run of memory
    calls = []
    bank = build_split_bank("discrete", 10, 0.01, 4)

    def features(w, s):
        calls.append(s.shape)
        return lorenz_features(bank)(w, s)

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


# banks for the block-boundary property, built once: N = 6 taps, h = 0.05
_PROPERTY_BANKS = {
    mode: build_split_bank(mode, 6, 0.05, 3) for mode in ("continuous", "discrete")
}


@given(
    mode=st.sampled_from(["continuous", "discrete"]),
    n=st.integers(12, 160),
    stride=st.integers(1, 3),
    block=st.integers(1, 64),
    t0=st.floats(-5.0, 5.0).filter(lambda t: t != 0.05),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_boundaries_do_not_move_moments(mode, n, stride, block, t0, seed):
    # any block size gives the window count and moments of the one-block design
    bank = _PROPERTY_BANKS[mode]
    y = np.random.default_rng(seed).normal(size=(n, 3)) + 3.0
    features = lorenz_features(bank, t0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitfilters, "_BLOCK_WINDOWS", block)
        blocked = assemble_design(y, bank, features, mu=20.0, stride=stride)
        mp.setattr(splitfilters, "_BLOCK_WINDOWS", n)
        whole = assemble_design(y, bank, features, mu=20.0, stride=stride)
    assert blocked.n_windows == whole.n_windows == (n - 12) // stride + 1
    for name in ("xx", "xy", "zx", "zy"):
        got, want = getattr(blocked, name), getattr(whole, name)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


# banks for the time-origin property: a power-of-two step keeps every window
# time exact in binary
_DYADIC_BANKS = {
    mode: build_split_bank(mode, 6, 1 / 32, 3) for mode in ("continuous", "discrete")
}


@given(
    mode=st.sampled_from(["continuous", "discrete"]),
    n=st.integers(12, 160),
    stride=st.integers(1, 3),
    block=st.integers(1, 16),
    start=st.integers(-64, 64),
    shift=st.integers(-64, 64).filter(lambda k: k != 0),
    seed=st.integers(0, 2**32 - 1),
)
def test_time_origin_shift_moves_only_the_forcing_phase(
    mode, n, stride, block, start, shift, seed
):
    # origins in sixteenths keep the times exact, so they move by exactly the shift
    bank = _DYADIC_BANKS[mode]
    f = 1.3
    y = np.random.default_rng(seed).normal(size=(n, 3)) + 3.0
    t0, moved = start / 16, (start + shift) / 16
    every = slice(0, n - 12 + 1, stride)
    times = {t0: window_times(bank, every, t0), moved: window_times(bank, every, moved)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitfilters, "_BLOCK_WINDOWS", block)
        a, b = (
            assemble_design(y, bank, lorenz_features(bank, origin, f), mu=20.0, stride=stride)
            for origin in (t0, moved)
        )
    assert a.n_windows == b.n_windows == (n - 12) // stride + 1
    assert np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.X[:, 1:], b.X[:, 1:])
    assert np.array_equal(a.xx[1:, 1:], b.xx[1:, 1:])
    assert np.array_equal(a.xy[1:], b.xy[1:])
    assert np.array_equal(times[moved] - times[t0], np.full(a.n_windows, shift / 16))
    for design, origin in ((a, t0), (b, moved)):
        assert np.array_equal(design.X[:, 0], np.sin(2.0 * np.pi * f * times[origin]))
        # the blocks' drive moments follow the same times as the rebuilt rows
        np.testing.assert_allclose(
            design.xy[0], design.X[:, 0] @ design.Y, rtol=1e-12, atol=1e-12
        )


@given(
    mode=st.sampled_from(["continuous", "discrete"]),
    n=st.integers(12, 200),
    cols=st.integers(1, 3),
    a=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_parity_filtered_is_linear(mode, n, cols, a, seed):
    bank = _PROPERTY_BANKS[mode]
    m1, m2 = np.random.default_rng(seed).normal(size=(2, n, cols)) + 3.0
    f1, f2 = _parity_filtered(m1, bank), _parity_filtered(m2, bank)
    got = _parity_filtered(a * m1 + m2, bank)
    # relative to each stencil's output scale
    scale = abs(a) * np.max(np.abs(f1), axis=(1, 2)) + np.max(np.abs(f2), axis=(1, 2))
    err = np.max(np.abs(got - (a * f1 + f2)), axis=(1, 2))
    assert np.all(err <= 1e-12 * scale), (err, scale)


@given(
    mode=st.sampled_from(["continuous", "discrete"]),
    n=st.integers(12, 160),
    stride=st.integers(2, 5),
    block=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_strided_rows_are_every_sth_unit_stride_row(mode, n, stride, block, seed):
    # the rows agree when rebuilt, and the blocks' moments agree with theirs
    bank = _PROPERTY_BANKS[mode]
    y = np.random.default_rng(seed).normal(size=(n, 3)) + 3.0
    features = lorenz_features(bank)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitfilters, "_BLOCK_WINDOWS", block)
        strided = assemble_design(y, bank, features, mu=20.0, stride=stride)
        unit = assemble_design(y, bank, features, mu=20.0)
    rows = {name: getattr(unit, name)[::stride] for name in ("X", "Y", "Z")}
    X, Y, Z = rows["X"], rows["Y"], rows["Z"]
    moments = {"xx": X.T @ X, "xy": X.T @ Y, "zx": Z.T @ X, "zy": Z.T @ Y}
    assert strided.n_windows == X.shape[0] == (n - 12) // stride + 1
    for name, want in (moments | rows).items():
        got = getattr(strided, name)
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


class _RecordingRecord:
    """A record that logs each pass's reads as (a, b, k): rows a to b - 1 asked for, k read.

    It reads an array, whose reads fill the walk's buffer and come up short
    at its end as a trial's NoisyRecord's do, or passes them on to a record.
    """

    def __init__(self, source):
        self.source, self.passes = source, []
        self.columns = source.columns if hasattr(source, "open") else source.shape[1]

    def open(self):
        reads = []
        self.passes.append(reads)
        inner = self.source.open() if hasattr(self.source, "open") else self._copy

        def read(a, b, out):
            reads.append((a, b, inner(a, b, out)))
            return reads[-1][2]

        return read

    def _copy(self, a, b, out):
        rows = self.source[a:b]
        out[: len(rows)] = rows
        return len(rows)


def _check_pass(reads, n):
    """A pass of an n-row record: reads from row 0 on, each where the last ended, all
    whole but the last, which comes up short at row n."""
    assert [a for a, _, _ in reads] == [0, *(a + k for a, _, k in reads[:-1])], reads
    assert all(a < b for a, b, _ in reads), reads
    assert [k < b - a for a, b, k in reads] == [False] * (len(reads) - 1) + [True], reads
    assert reads[-1][0] + reads[-1][2] == n, reads


@pytest.mark.parametrize("stride", [1, 3, 20, 21])
def test_design_reads_each_pass_forward_from_row_zero(monkeypatch, stride):
    # N = 10: stride 20 = 2N leaves no row between blocks, 21 leaves rows to skip
    monkeypatch.setattr(splitfilters, "_BLOCK_WINDOWS", 64)
    bank = build_split_bank("discrete", 10, 0.01, 4)
    y = np.random.default_rng(9).normal(size=(500, 3))
    record = _RecordingRecord(y)
    features = lorenz_features(bank)
    design = assemble_design(record, bank, features, mu=50.0, stride=stride)
    assert len(record.passes) == 1 and len(record.passes[0]) > 1
    rows = {name: getattr(design, name) for name in ("X", "Y", "Z")}
    # the rows come from a second run of the same walk, which reads as the first did
    assert len(record.passes) == 2 and record.passes[1] == record.passes[0]
    # rows that no window reads: between blocks at stride 21, after the last window
    offsets = np.arange(0, len(y) - 20 + 1, stride)
    unread = np.ones(len(y), bool)
    for w in offsets:
        unread[w : w + 20] = False
    assert unread[: offsets[-1]].any() == (stride == 21)
    for reads in record.passes:
        _check_pass(reads, len(y))
        times_read = np.zeros(len(y), int)
        for a, _, k in reads:
            times_read[a : a + k] += 1
        assert np.all(times_read[unread] == 1), reads
    whole = assemble_design(y, bank, features, mu=50.0, stride=stride)
    assert design.n_windows == whole.n_windows
    for name in ("xx", "xy", "zx", "zy"):
        assert np.array_equal(getattr(design, name), getattr(whole, name)), name
    for name, got in rows.items():
        assert np.array_equal(got, getattr(whole, name)), name


#: (stride, n) at N = 10 in blocks of 64 windows (63 at stride 21, 50 at
#: stride 25), by where the record's last row falls
_ENDS = {
    # after two whole blocks of 64 windows: the next read finds no row
    "whole-block": (1, 147),
    "inside-block": (1, 177),
    # the one row that stride 2N + 1 leaves after the third block
    "stride-gap": (21, 189),
    # 3 of the 5 rows that stride 25 leaves after the second block
    "inside-gap": (25, 98),
    "first-block": (1, 50),
}


@pytest.mark.parametrize("stride, n", list(_ENDS.values()), ids=list(_ENDS))
def test_a_pass_ends_at_its_first_short_read(tmp_path, monkeypatch, stride, n):
    # arrays, trial records and files: the walk learns n at the read that
    # comes up short, reads nothing after it, and sums the array's moments
    monkeypatch.setattr(splitfilters, "_BLOCK_WINDOWS", 64)
    bank = build_split_bank("continuous", 10, 1e-3, 4)
    features = lorenz_features(bank)
    t = (np.arange(n) + 1) * 1e-3
    states = np.column_stack([np.sin(t), np.cos(2 * t), t])
    noisy = add_noise(states, 0.01, np.random.default_rng(4), np.empty_like(states))
    path = tmp_path / "record.csv"
    lines = (",".join(map(repr, row)) + "\n" for row in np.column_stack([t, noisy]).tolist())
    path.write_text("t,z1,z2,z3\n" + "".join(lines))
    drawn = []  # the rows and the generator of each of the trial record's draws

    def recording_noise(states, eta, rng, out):
        drawn.append((len(states), rng))
        return add_noise(states, eta, rng, out)

    monkeypatch.setattr(harness, "add_noise", recording_noise)
    records = {
        "array": (_RecordingRecord(states), states),
        "trial": (_RecordingRecord(NoisyRecord(states, 0.01, 4)), noisy),
        "csv": (_RecordingRecord(_CsvRecord(str(path))), noisy),
    }
    for name, (record, values) in records.items():
        design = assemble_design(record, bank, features, mu=50.0, stride=stride)
        want = assemble_design(values, bank, features, mu=50.0, stride=stride)
        assert design.n_windows == want.n_windows == (n - 20) // stride + 1, name
        for moment in ("xx", "xy", "zx", "zy"):
            assert np.array_equal(getattr(design, moment), getattr(want, moment)), name
        [reads] = record.passes
        _check_pass(reads, n)
    # the trial record drew n rows on one generator: one whole-record draw
    whole = np.random.default_rng(4)
    whole.standard_normal((n, 3))
    assert sum(rows for rows, _ in drawn) == n
    assert all(rng is drawn[0][1] for _, rng in drawn)
    assert drawn[0][1].bit_generator.state == whole.bit_generator.state


def test_designs_rebuild_their_rows_at_once():
    # two threads read X of two designs, and each rebuild's feature map waits
    # for the other's at a barrier, which breaks if one rebuild holds up the other
    bank = build_split_bank("discrete", 10, 0.01, 4)
    features = lorenz_features(bank)
    barrier = threading.Barrier(2, timeout=5)

    def design(seed):
        calls = []

        def waiting(w, s):
            if calls:  # the rebuild, not the first pass
                barrier.wait()
            calls.append(w)
            return features(w, s)

        y = np.random.default_rng(seed).normal(size=(100, 3))
        return assemble_design(y, bank, waiting, mu=50.0)

    designs = [design(1), design(2)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        rows = list(pool.map(lambda d: d.X, designs))
    for d, X in zip(designs, rows):
        assert X is d.X and X.shape == (81, 6)


@pytest.mark.parametrize("stride", [1, 3, 21])
def test_rows_are_the_blocks_the_first_pass_summed(monkeypatch, stride):
    # reading the rows of a multi-block design runs the walk again: they are,
    # bit for bit, the blocks of the first pass, whose in-order moment sums
    # the design holds, and the second pass reads the record as the first did
    monkeypatch.setattr(splitfilters, "_BLOCK_WINDOWS", 64)
    bank = build_split_bank("discrete", 10, 0.01, 4)
    record = _RecordingRecord(np.random.default_rng(12).normal(size=(500, 3)))
    features, filter_outputs, feature_outputs = lorenz_features(bank), [], []
    parity_filtered = splitfilters._parity_filtered

    def recording_filter(samples, bank):
        filter_outputs.append(parity_filtered(samples, bank))
        return filter_outputs[-1]

    def recording_features(w, s):
        feature_outputs.append(features(w, s))
        return feature_outputs[-1]

    monkeypatch.setattr(splitfilters, "_parity_filtered", recording_filter)
    design = assemble_design(record, bank, recording_features, mu=50.0, stride=stride)
    blocks = len(feature_outputs)
    X, Y, Z = design.X, design.Y, design.Z
    assert blocks > 2 and len(feature_outputs) == len(filter_outputs) == 2 * blocks
    assert len(record.passes) == 2 and record.passes[1] == record.passes[0]
    first = feature_outputs[:blocks]
    assert np.array_equal(X, np.concatenate([out[0] for out in first]))
    assert np.array_equal(Y, np.concatenate([out[0, ::stride] for out in filter_outputs[:blocks]]))
    assert np.array_equal(Z, np.concatenate([rho_truncate(out[1], 50.0) for out in first]))
    cuts = np.cumsum([0] + [out.shape[1] for out in first])
    sums = None
    for a, b in zip(cuts[:-1], cuts[1:]):
        x, y, z = X[a:b], Y[a:b], Z[a:b]
        block = [x.T @ x, x.T @ y, z.T @ x, z.T @ y]
        sums = block if sums is None else [total + m for total, m in zip(sums, block)]
    for name, want in zip(("xx", "xy", "zx", "zy"), sums):
        assert np.array_equal(getattr(design, name), want), name


def test_feature_map_called_once_per_block(monkeypatch):
    calls = []
    bank = build_split_bank("discrete", 10, 0.01, 4)

    def features(w, s):
        calls.append(s.shape)
        return lorenz_features(bank)(w, s)

    monkeypatch.setattr(splitfilters, "_BLOCK_WINDOWS", 64)
    y = np.random.default_rng(5).normal(size=(301, 3))
    design = assemble_design(y, bank, features, mu=50.0)
    assert calls == [(2, 64, 3)] * 4 + [(2, 26, 3)]
    assert design.n_windows == 282
    # reading the rows of a multi-block design walks the same blocks once more
    assert design.X.shape == (282, 6)
    assert design.Z.shape == (282, 6) and design.Y.shape == (282, 3)
    assert calls[5:] == calls[:5]


def test_design_memory_is_bounded_by_block():
    # full-length filter outputs, features and instruments would take about
    # 50 MB at n = 2e5; the blocks keep the peak near 2 MB
    bank = build_split_bank("discrete", 10, 1e-3, 4)
    y = np.random.default_rng(7).normal(size=(200_000, 3))
    features = lorenz_features(bank)
    assemble_design(y, bank, features, mu=200.0)  # fills the spectra cache
    tracemalloc.start()
    try:
        design = assemble_design(y, bank, features, mu=200.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert design.n_windows == 200_000 - 20 + 1
    assert peak < 8e6, peak
