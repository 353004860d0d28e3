from __future__ import annotations

import csv
import json
import math
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivsysid import harness, splitfilters
from ivsysid.bounds import ideal_window
from ivsysid.cli import _resolve_config, build_parser
from ivsysid.dynamics import add_noise, forcing, true_theta
from ivsysid.estimator import Estimate, SingularDesignError, clip_singular_values
from ivsysid.harness import (
    ExperimentConfig,
    InsufficientDataError,
    SeriesEstimate,
    SharedArtifacts,
    NoisyRecord,
    TrialResult,
    bootstrap_se,
    config_from_dict,
    estimate_series,
    kde_export,
    prepare_shared,
    run_experiment,
    run_monte_carlo,
    run_trial,
    summarize,
    summary_dict,
    trial_drive,
    trial_seed,
    write_csv,
    write_kde_csv,
    write_trials_csv,
)
from ivsysid.polyfilter import FilterRankError
from ivsysid.splitfilters import assemble_design, build_split_bank, window_times

SMALL = ExperimentConfig(
    mode="continuous", n=2000, N=20, p=4, eta=0.05, trials=4, master_seed=7, substeps=2
)


@pytest.fixture(scope="module")
def small_shared():
    return prepare_shared(SMALL)


def _trial(i: int, theta_iv: np.ndarray, theta_ls: np.ndarray) -> TrialResult:
    # a successful trial with the given estimates; the statistics read only theta
    def estimate(theta, method):
        return Estimate(
            theta, sigma_min_zx=1.0, clipped_directions=0, method=method, condition_number=1.0
        )

    series = SeriesEstimate(estimate(theta_iv, "iv"), estimate(theta_ls, "ls"), {}, 0)
    return TrialResult(i, series)


def _results_from(thetas: np.ndarray) -> list[TrialResult]:
    return [_trial(i, th.copy(), th.copy()) for i, th in enumerate(thetas)]


def _assert_same_estimate(a: SeriesEstimate, b: SeriesEstimate) -> None:
    # == on an Estimate compares its theta arrays and raises; compare the bytes
    for x, y in ((a.iv, b.iv), (a.ls, b.ls)):
        assert x.theta.tobytes() == y.theta.tobytes()
        assert (x.sigma_min_zx, x.clipped_directions, x.method, x.condition_number) == (
            y.sigma_min_zx, y.clipped_directions, y.method, y.condition_number
        )
    assert a.excitation == b.excitation
    assert a.n_windows == b.n_windows


def test_summarize_exact_trials_give_zero_stats():
    ref = true_theta()
    stats = summarize(_results_from(np.stack([ref] * 4)), ref)
    assert stats.iv.bias_pct == 0.0
    assert stats.iv.std_pct == 0.0
    assert stats.iv.rmse_pct == 0.0
    assert stats.n_trials == 4 and stats.n_failed == 0


def test_summarize_constant_offset_is_pure_bias():
    ref = true_theta()
    shifted = ref + 0.25
    stats = summarize(_results_from(np.stack([shifted] * 4)), ref)
    assert stats.ls.std_pct == 0.0
    assert stats.ls.bias_pct == pytest.approx(stats.ls.rmse_pct, rel=1e-14)
    expected = 100.0 * np.linalg.norm(shifted - ref) / np.linalg.norm(ref)
    assert stats.ls.bias_pct == pytest.approx(expected, rel=1e-14)


def test_summarize_symmetric_pair_is_pure_spread():
    ref = true_theta()
    delta = np.full((6, 3), 0.125)
    stats = summarize(_results_from(np.stack([ref + delta, ref - delta])), ref)
    assert stats.iv.bias_pct < 1e-10
    assert stats.iv.std_pct == pytest.approx(stats.iv.rmse_pct, rel=1e-12)


def test_summarize_decomposition_identity():
    rng = np.random.default_rng(11)
    ref = true_theta()
    for _ in range(20):
        thetas = ref + rng.normal(0, 0.3, size=(12, 6, 3))
        stats = summarize(_results_from(thetas), ref)
        for m in (stats.iv, stats.ls):
            assert math.isclose(
                m.bias_pct**2 + m.std_pct**2, m.rmse_pct**2, rel_tol=1e-10
            )


def test_summarize_needs_two_successes():
    ref = true_theta()
    results = _results_from(np.stack([ref]))
    results.append(TrialResult(1, None, error="ValueError: boom"))
    with pytest.raises(InsufficientDataError):
        summarize(results, ref)


def _gaussian_results(T: int, seed: int) -> list[TrialResult]:
    rng = np.random.default_rng(seed)
    ref = true_theta()
    return [
        _trial(i, ref + rng.normal(0, 0.05, size=(6, 3)), ref + rng.normal(0, 0.05, size=(6, 3)))
        for i in range(T)
    ]


def test_bootstrap_zero_spread_gives_zero_se():
    ref = true_theta()
    ses = bootstrap_se(_results_from(np.stack([ref + 0.1] * 12)), ref, seed=4)
    # np.std of a constant array leaves ~1e-18 of reduction rounding
    for method in ("iv", "ls"):
        assert all(v < 1e-12 for v in ses[method].values())


def test_bootstrap_is_seeded():
    ref = true_theta()
    results = _gaussian_results(30, seed=5)
    a = bootstrap_se(results, ref, seed=9)
    b = bootstrap_se(results, ref, seed=9)
    assert a == b
    c = bootstrap_se(results, ref, seed=10)
    assert a != c


def test_bootstrap_se_shrinks_with_sample_size():
    ref = true_theta()
    small = bootstrap_se(_gaussian_results(50, seed=21), ref, seed=2)
    large = bootstrap_se(_gaussian_results(200, seed=22), ref, seed=2)
    # quadrupling the trials should roughly halve every standard error
    for method in ("iv", "ls"):
        for key in ("bias_se", "std_se", "rmse_se"):
            ratio = large[method][key] / small[method][key]
            assert 0.35 < ratio < 0.65, (method, key, ratio)


def test_bootstrap_validation():
    ref = true_theta()
    with pytest.raises(InsufficientDataError):
        bootstrap_se([_trial(0, ref, ref)], ref)


def _one_shot_bootstrap_se(results, reference, B, seed):
    # the whole-matrix formula: all B resamples as one (B, T) weight matrix
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB5]))
    T = len(results)
    idx = rng.integers(0, T, size=(B, T))
    flat = (idx + T * np.arange(B)[:, None]).ravel()
    weights = np.bincount(flat, minlength=B * T).reshape(B, T) / T
    refnorm = np.linalg.norm(reference)
    out = {}
    for name in ("iv", "ls"):
        thetas = np.stack([getattr(r.estimate, name).theta for r in results])
        center = thetas.mean(axis=0)
        dev = (thetas - center).reshape(T, -1)
        dev_means = weights @ dev
        bias = np.linalg.norm(dev_means + (center - reference).ravel(), axis=1) / refnorm
        rmse = np.sqrt(weights @ np.sum((thetas - reference) ** 2, axis=(1, 2))) / refnorm
        var = weights @ np.sum(dev**2, axis=1) - np.sum(dev_means**2, axis=1)
        std = np.sqrt(np.maximum(var, 0.0)) / refnorm
        out[name] = {
            "bias_se": float(100.0 * bias.std(ddof=1)),
            "std_se": float(100.0 * std.std(ddof=1)),
            "rmse_se": float(100.0 * rmse.std(ddof=1)),
        }
    return out


def _block_rows(T: int) -> int:
    return max(1, harness._BOOTSTRAP_BLOCK_ENTRIES // T)


@pytest.mark.parametrize("T", [12, 240, 2000])
@pytest.mark.parametrize("B", [100, 1000, "two blocks and a part"])
def test_bootstrap_blocks_match_one_shot_weights(T, B, monkeypatch):
    if B == "two blocks and a part":
        B = 2 * _block_rows(T) + 7
    monkeypatch.setattr(harness, "_BOOTSTRAP_RESAMPLES", B)
    ref = true_theta()
    results = _gaussian_results(T, seed=T)
    got = bootstrap_se(results, ref, seed=3)
    want = _one_shot_bootstrap_se(results, ref, B, seed=3)
    for method in ("iv", "ls"):
        for key, value in want[method].items():
            assert math.isclose(got[method][key], value, rel_tol=1e-13), (method, key)


@pytest.mark.parametrize("T", [24, 239, 240, 1999, 2000, 2001])
def test_blockwise_integer_draws_equal_one_draw(T):
    # the bootstrap's resamples do not depend on how its draw is split
    B = 1000
    whole = np.random.default_rng(np.random.SeedSequence([0, 0xB5])).integers(
        0, T, size=(B, T)
    )
    for rows in (_block_rows(T), 7):
        rng = np.random.default_rng(np.random.SeedSequence([0, 0xB5]))
        blocks = [
            rng.integers(0, T, size=(min(rows, B - b0), T)) for b0 in range(0, B, rows)
        ]
        assert np.array_equal(np.concatenate(blocks), whole), rows


def test_bootstrap_memory_is_bounded_by_block():
    # the (1000, 2000) weights, indices and counts of one draw took 61 MB
    ref = true_theta()
    results = _gaussian_results(2000, seed=23)
    tracemalloc.start()
    try:
        bootstrap_se(results, ref, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


def _curves_by_entry(curves: list[tuple]) -> dict[tuple, tuple]:
    # (estimator, entry_row, entry_col) -> (grid, density, sample_mean, reference_value)
    return {(name, r, c): rest for r, c, name, *rest in curves}


def test_kde_densities_integrate_to_one():
    ref = true_theta()
    curves = kde_export(_gaussian_results(40, seed=13), ref)
    assert len(curves) == 2 * 18
    by_entry = _curves_by_entry(curves)
    assert len(by_entry) == 36
    for grid, dens, _, _ in by_entry.values():
        assert grid.shape == dens.shape == (256,)
        assert abs(np.trapezoid(dens, grid) - 1.0) < 2e-3


def test_kde_degenerate_samples_peak_at_value():
    ref = true_theta()
    curves = kde_export(_results_from(np.stack([ref + 0.5] * 16)), ref)
    grid, dens, _, reference_value = _curves_by_entry(curves)[("iv", 0, 0)]
    value = ref[0, 0] + 0.5
    assert grid[np.argmax(dens)] == pytest.approx(value, abs=1e-6)
    assert abs(np.trapezoid(dens, grid) - 1.0) < 2e-3
    assert reference_value == ref[0, 0]


def test_kde_density_matches_one_expression():
    # the kernel is formed in one buffer, with the same operations in order
    ref = true_theta()
    results = _gaussian_results(40, seed=17)
    curves = kde_export(results, ref)
    samples = np.array([r.estimate.ls.theta[2, 1] for r in results])
    mean, sd = float(samples.mean()), float(samples.std())
    bw = 1.06 * sd * 40 ** (-0.2)
    grid = np.linspace(mean - 4 * sd, mean + 4 * sd, 256)
    want = np.exp(-0.5 * ((grid[:, None] - samples[None, :]) / bw) ** 2).sum(axis=1) / (
        40 * bw * math.sqrt(2 * math.pi)
    )
    got_grid, got_dens, _, _ = _curves_by_entry(curves)[("ls", 2, 1)]
    assert got_grid.tolist() == grid.tolist()
    assert got_dens.tolist() == want.tolist()


def test_kde_needs_ten_trials():
    ref = true_theta()
    with pytest.raises(InsufficientDataError):
        kde_export(_gaussian_results(9, seed=1), ref)


@pytest.mark.parametrize("statistic", [summarize, bootstrap_se, kde_export])
def test_all_failed_trials_name_the_first_failure(statistic):
    results = [
        TrialResult(i, None, error=f"SingularDesignError: trial {i}") for i in range(12)
    ]
    with pytest.raises(
        InsufficientDataError, match=r"got 0; first failure: SingularDesignError: trial 0$"
    ):
        statistic(results, true_theta())


def test_kde_csv_writes_each_curve_point_as_a_row(tmp_path):
    ref = true_theta()
    curves = kde_export(_gaussian_results(12, seed=3), ref)
    path = tmp_path / "kde.csv"
    write_kde_csv(path, curves)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == [
        "entry_row", "entry_col", "estimator", "grid_value", "density", "sample_mean",
        "reference_value",
    ]
    assert len(lines) == 1 + 36 * 256
    r, c, name, grid, dens, mean, ref_val = curves[-1]
    cells = [grid[-1], dens[-1], mean, ref_val]
    assert lines[-1] == f"{r},{c},{name}," + ",".join(f"{v:.17g}" for v in cells)


def test_write_csv_format(tmp_path):
    # floats as .17g (they read back exactly), ints and strings as they are,
    # numpy floats like Python floats, and the csv module's CRLF line ends
    path = tmp_path / "out.csv"
    third = 1.0 / 3.0
    rows = [[1, "iv", third], (np.float64(0.1), 2.0, -7), iter([6.02e23])]
    write_csv(path, ["a", "b", "c"], rows)
    assert path.read_bytes() == (
        b"a,b,c\r\n1,iv,0.33333333333333331\r\n0.10000000000000001,2,-7\r\n6.02e+23\r\n"
    )
    assert float(path.read_text().split("\n")[1].split(",")[2]) == third


def test_trial_seed_is_stable_and_distinct():
    assert trial_seed(0, 0) == trial_seed(0, 0)
    seeds = {trial_seed(0, i) for i in range(100)}
    assert len(seeds) == 100
    assert trial_seed(1, 0) != trial_seed(0, 0)


def test_noiseless_trials_recover_reference(small_shared):
    cfg = replace(SMALL, eta=0.0, trials=2)
    results = run_monte_carlo(cfg, shared=small_shared)
    assert all(r.error is None for r in results)
    first, second = results[0].estimate, results[1].estimate
    assert np.array_equal(first.iv.theta, second.iv.theta)
    rel = np.linalg.norm(first.iv.theta - small_shared.reference) / np.linalg.norm(
        small_shared.reference
    )
    assert rel < 1e-3
    rel_ls = np.linalg.norm(first.ls.theta - small_shared.reference) / np.linalg.norm(
        small_shared.reference
    )
    assert rel_ls < 1e-3


def test_monte_carlo_is_reproducible(small_shared):
    a = run_monte_carlo(SMALL, shared=small_shared)
    b = run_monte_carlo(SMALL, shared=small_shared)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.estimate.iv.theta, rb.estimate.iv.theta)
        assert np.array_equal(ra.estimate.ls.theta, rb.estimate.ls.theta)


def test_workers_do_not_change_results(small_shared):
    serial = run_monte_carlo(SMALL, shared=small_shared)
    threaded = run_monte_carlo(SMALL, workers=2, shared=small_shared)
    assert [r.trial_index for r in threaded] == [0, 1, 2, 3]
    for rs, rt in zip(serial, threaded):
        assert np.array_equal(rs.estimate.iv.theta, rt.estimate.iv.theta)
        assert np.array_equal(rs.estimate.ls.theta, rt.estimate.ls.theta)


@settings(max_examples=20)
@given(
    master_seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 7),
    eta=st.sampled_from([0.0, 0.05, 2.0]),
)
def test_worker_count_does_not_change_any_trial(small_shared, master_seed, trials, eta):
    cfg = replace(SMALL, master_seed=master_seed, trials=trials, eta=eta)
    serial = run_monte_carlo(cfg, shared=small_shared)
    threaded = run_monte_carlo(cfg, workers=3, shared=small_shared)
    assert [r.trial_index for r in threaded] == list(range(trials))
    for rs, rt in zip(serial, threaded):
        _assert_same_estimate(rs.estimate, rt.estimate)
        assert rs.error is rt.error is None


def test_trial_diagnostics(small_shared):
    est = run_trial(SMALL, 0, small_shared).estimate
    assert est.n_windows == SMALL.n - 2 * SMALL.N + 1
    assert est.iv.sigma_min_zx > 0
    assert isinstance(est.excitation["satisfied"], bool)


def _whole_record(config: ExperimentConfig, trial_index: int, shared) -> np.ndarray:
    # the oracle: one add_noise draw of the whole record on the trial's seed
    rng = np.random.default_rng(trial_seed(config.master_seed, trial_index))
    states = shared.states
    return add_noise(states, config.eta, rng, np.empty_like(states))


@pytest.mark.parametrize("block", [5, 64, 4096])
@pytest.mark.parametrize("stride", [1, 3, 2 * SMALL.N + 1])
def test_streamed_trial_equals_whole_record(small_shared, monkeypatch, block, stride):
    # stride 2N + 1 leaves a sample between windows, which the draw must skip
    config = replace(SMALL, stride=stride)
    designs = []

    def capture(*args, **kwargs):
        designs.append(assemble_design(*args, **kwargs))
        return designs[-1]

    monkeypatch.setattr(splitfilters, "_BLOCK_WINDOWS", block)
    monkeypatch.setattr(harness, "assemble_design", capture)
    drive = small_shared.drive.__getitem__
    for i in range(2):
        streamed = run_trial(config, i, small_shared).estimate
        values = _whole_record(config, i, small_shared)
        _assert_same_estimate(streamed, estimate_series(values, config, small_shared.bank, drive))
        trial_design, whole = designs[-2:]  # both went through capture
        # the trial design's rebuilt rows restart the draw and read the same record
        for name in ("X", "Y", "Z"):
            assert np.array_equal(getattr(trial_design, name), getattr(whole, name)), name


@pytest.mark.parametrize("extra", [-1, 1])
def test_drive_of_the_wrong_length_is_refused(small_shared, monkeypatch, extra):
    # one entry per window offset of the series; a column that does not fit
    # would put each window's drive at another window. The run refuses it
    # once, before any trial, not in every trial
    windows = SMALL.n - 2 * SMALL.N + 1
    shared = replace(small_shared, drive=np.resize(small_shared.drive, windows + extra))
    monkeypatch.setattr(harness, "run_trial", lambda *a: pytest.fail("a trial ran"))
    with pytest.raises(ValueError, match=f"drive has {windows + extra} entries for {windows} "):
        run_monte_carlo(SMALL, shared)
    assert len(small_shared.drive) == windows


@given(
    sizes=st.lists(st.integers(0, 60), max_size=8),
    seed=st.integers(0, 2**64 - 1),
)
def test_noisy_record_passes_equal_one_whole_record_draw(small_shared, sizes, seed):
    # any split of a pass into consecutive reads from row 0, each drawn into
    # the front of one reused buffer as the walk's reads are, and a second
    # pass read in one piece, give the rows of one whole-record draw
    states = small_shared.states[:150]
    bounds = np.minimum(np.cumsum([0, *sizes, 150]), len(states))
    whole = add_noise(states, 0.3, np.random.default_rng(seed), np.empty_like(states))
    record = NoisyRecord(states, 0.3, seed)
    assert record.columns == 3
    read, buf = record.open(), np.full((150, 3), np.nan)
    for a, b in zip(bounds[:-1], bounds[1:]):
        assert read(a, b, buf[: b - a]) == b - a
        assert np.array_equal(buf[: b - a], whole[a:b])
    assert record.open()(0, 150, buf) == 150
    assert np.array_equal(buf, whole)


def test_trial_memory_does_not_grow_with_n():
    # a 400,000-sample record would take 9.2 MiB; a trial holds one block of
    # it and the 2N - 1 rows the next block overlaps
    n, h = 400_000, 1e-3
    times = np.arange(1, n + 1) * h
    states = np.column_stack(
        [10 * np.sin(2.1 * times), 12 * np.cos(1.3 * times), 25 + 8 * np.sin(0.7 * times)]
    )
    bank = build_split_bank("discrete", 100, h, 75)
    config = ExperimentConfig(mode="discrete", n=n, trials=1)
    drive = trial_drive(config, bank)
    shared = SharedArtifacts(states, bank, true_theta(), "pseudo_true", 75, drive)
    run_trial(config, 0, shared)  # fills the bank's spectra cache
    tracemalloc.start()
    try:
        result = run_trial(config, 1, shared)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.estimate.n_windows == n - 2 * 100 + 1
    assert peak < states.nbytes, peak


def test_array_estimate_holds_one_block():
    # an array's blocks are copied into the walk's one buffer, and a block's
    # rows are freed before the next block: at N = 100, p = 75 the traced
    # peak reads 1.01 MiB. It read 1.92 MiB when every block after the first
    # was a fresh concatenated copy and the first block's rows lived on
    # through the second; one more block copy would add 0.1 MiB.
    n, h = 100_000, 1e-3
    times = np.arange(1, n + 1) * h
    states = np.column_stack(
        [10 * np.sin(2.1 * times), 12 * np.cos(1.3 * times), 25 + 8 * np.sin(0.7 * times)]
    )
    config = ExperimentConfig(mode="discrete", n=n, trials=1)
    bank = build_split_bank("discrete", 100, h, 75)
    drive = trial_drive(config, bank).__getitem__
    estimate_series(states, config, bank, drive)  # fills the bank's spectra cache
    tracemalloc.start()
    try:
        result = estimate_series(states, config, bank, drive)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_windows == n - 2 * 100 + 1
    assert peak < 1.08 * 2**20, peak


FAULT_PROBE = """
import resource, sys
from dataclasses import replace
import numpy as np
sys.path.insert(0, sys.argv[1])
from ivsysid.dynamics import true_theta
from ivsysid.harness import ExperimentConfig, SharedArtifacts, run_monte_carlo, trial_drive
from ivsysid.splitfilters import build_split_bank

n, workers, trials = (int(v) for v in sys.argv[2:])
h = 1e-3
times = np.arange(1, n + 1) * h
states = np.column_stack([10 * np.sin(2.1 * times), 12 * np.cos(1.3 * times), 25 + times])
bank = build_split_bank("discrete", 100, h, 75)
config = ExperimentConfig(mode="discrete", n=n, trials=trials)
drive = trial_drive(config, bank)
shared = SharedArtifacts(states, bank, true_theta(), "pseudo_true", 75, drive)
run_monte_carlo(replace(config, trials=4), shared, workers)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_monte_carlo(config, shared, workers)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / trials)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
@pytest.mark.parametrize("n, workers, trials", [(100_000, 2, 24), (4_000, 1, 200)])
def test_trial_blocks_do_not_fault_in_memory(n, workers, trials):
    # in a fresh process, where nothing has raised glibc's thresholds yet:
    # with the defaults its arenas are trimmed and refilled after every
    # block, about 193 minor faults per trial at n = 4,000 on one worker; at
    # n = 1e5 on two workers a trial takes about 12 either way
    src = Path(harness.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE, str(src), str(n), str(workers), str(trials)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 50, proc.stdout


def test_unbuildable_degree_falls_back_with_warning():
    cfg = replace(SMALL, n=600, p=75, trials=2)
    with pytest.warns(RuntimeWarning, match="falling back"):
        shared = prepare_shared(cfg)
    results = run_monte_carlo(cfg, shared)
    summary = summary_dict(cfg, shared, results, summarize(results, shared.reference))
    assert (summary["p_requested"], summary["p_used"]) == (75, harness.FALLBACK_P)
    assert shared.p_used == harness.FALLBACK_P
    assert shared.bank.hat_G.spec.exactness_degree == harness.FALLBACK_P


def test_no_fallback_below_floor():
    # a degree at or below the fallback floor fails outright, no retry
    cfg = replace(SMALL, n=600, N=6, p=8, trials=2)
    with pytest.raises(FilterRankError):
        prepare_shared(cfg)


def test_failed_trials_are_recorded(small_shared, monkeypatch):
    real = harness.run_trial

    def flaky(config, trial_index, shared):
        if trial_index == 1:
            raise ValueError("injected failure")
        return real(config, trial_index, shared)

    monkeypatch.setattr(harness, "run_trial", flaky)
    results = run_monte_carlo(SMALL, shared=small_shared)
    assert len(results) == SMALL.trials
    assert results[1].error == "ValueError: injected failure"
    assert results[1].estimate is None
    stats = summarize(results, small_shared.reference, small_shared.reference_kind)
    assert stats.n_trials == SMALL.trials - 1
    assert stats.n_failed == 1
    summary = summary_dict(SMALL, small_shared, results, stats)
    assert summary["trials"]["failed"] == 1
    assert summary["failures"] == [
        {"trial_index": 1, "error": "ValueError: injected failure"}
    ]
    # too few successes: the error quotes the first recorded failure
    with pytest.raises(
        InsufficientDataError, match=r"got 1; first failure: ValueError: injected failure$"
    ):
        summarize(results[:2], small_shared.reference)


def test_trial_programming_errors_propagate(small_shared, monkeypatch):
    # only numerical and domain errors are trial data; a TypeError is a bug
    def broken(config, trial_index, shared):
        raise TypeError("injected bug")

    monkeypatch.setattr(harness, "run_trial", broken)
    with pytest.raises(TypeError, match="injected bug"):
        run_monte_carlo(SMALL, shared=small_shared)


def test_write_trials_csv_skips_failures(tmp_path, small_shared):
    ok = run_trial(SMALL, 0, small_shared)
    bad = TrialResult(1, None, error="ValueError: boom")
    path = tmp_path / "trials.csv"
    write_trials_csv(path, [ok, bad])
    lines = path.read_text().splitlines()
    assert len(lines) == 3  # header + iv row + ls row
    assert lines[1].startswith("0,iv,")
    assert lines[2].startswith("0,ls,")
    header = lines[0].split(",")
    assert header[:2] == ["trial_index", "estimator"]
    assert header[2] == "theta_0_0" and header[19] == "theta_5_2"
    assert header[-2:] == ["sigma_min_zx", "clipped_directions"]


def test_run_experiment_writes_reproducible_outputs(tmp_path):
    cfg = ExperimentConfig(
        mode="continuous",
        n=1500,
        N=16,
        p=3,
        eta=0.05,
        trials=10,
        master_seed=1,
        substeps=2,
    )
    summary = run_experiment(cfg, tmp_path / "a")
    for name in ("trials.csv", "summary.json", "kde.csv"):
        assert (tmp_path / "a" / name).exists()

    assert summary["reference"] == "ground_truth"
    assert summary["p_used"] == 3
    assert summary["trials"] == {"requested": 10, "succeeded": 10, "failed": 0}
    assert summary["n_windows"] == cfg.n - 2 * cfg.N + 1
    assert summary["window_vs_ideal"] == pytest.approx(cfg.N / ideal_window(cfg.h, 3))
    for method in ("iv", "ls"):
        stats = summary["stats"][method]
        assert stats["rmse_pct"] > 0
        assert stats["rmse_se"] is not None and stats["rmse_se"] > 0

    on_disk = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert on_disk == summary

    run_experiment(cfg, tmp_path / "b")
    for name in ("trials.csv", "summary.json", "kde.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_a_run_whose_clip_fires_reports_it(tmp_path, monkeypatch):
    # lam = 1 never clips: every trial's sigma_min(Z'X) is far above it. Taken
    # above the largest of them, lam clips every trial, and each clipped IV
    # is clip(Z'X)^-1 Z'Y of its own design's moments
    cfg = ExperimentConfig(
        mode="continuous", n=2000, N=20, p=4, eta=0.05, trials=6, master_seed=2, substeps=2
    )

    def iv_rows(out):
        with (out / "trials.csv").open(newline="") as fh:
            return [row for row in csv.DictReader(fh) if row["estimator"] == "iv"]

    plain = run_experiment(cfg, tmp_path / "plain")
    assert plain["excitation"]["trials_with_clipping"] == 0
    lam = 1.5 * max(float(row["sigma_min_zx"]) for row in iv_rows(tmp_path / "plain"))
    designs = []

    def capture(*args, **kwargs):
        designs.append(assemble_design(*args, **kwargs))
        return designs[-1]

    monkeypatch.setattr(harness, "assemble_design", capture)
    clipped = run_experiment(replace(cfg, lam=lam), tmp_path / "clipped")
    rows = iv_rows(tmp_path / "clipped")
    counts = [int(row["clipped_directions"]) for row in rows]
    assert len(rows) == len(designs) == cfg.trials
    assert all(count > 0 for count in counts), counts
    assert clipped["excitation"]["trials_with_clipping"] == sum(c > 0 for c in counts)
    assert clipped["excitation"]["all_satisfied"] is False
    design = designs[0]  # trial 0's: one worker runs the trials in order
    theta = np.array([float(rows[0][f"theta_{r}_{c}"]) for r in range(6) for c in range(3)])
    expected = np.linalg.solve(clip_singular_values(design.zx, lam), design.zy)
    np.testing.assert_allclose(theta.reshape(6, 3), expected, rtol=1e-10, atol=1e-12)
    assert not np.allclose(expected, np.linalg.solve(design.zx, design.zy), rtol=1e-6)


def test_discrete_experiment_uses_pseudo_true():
    cfg = ExperimentConfig(
        mode="discrete", n=1200, N=8, p=4, trials=3, master_seed=3, substeps=2
    )
    shared = prepare_shared(cfg)
    assert shared.reference_kind == "pseudo_true"
    assert shared.reference.shape == (6, 3)
    results = run_monte_carlo(cfg, shared=shared)
    stats = summarize(results, shared.reference, shared.reference_kind)
    assert stats.reference == "pseudo_true"
    assert np.isfinite(stats.iv.rmse_pct)


def test_discrete_setup_builds_one_bank(monkeypatch):
    # the reference reuses the experiment's bank: three stencils, not six, and
    # it is the LS estimate of the one estimate stage on the noiseless path.
    # It reads the trials' drive column, which gives the bits of the sine
    # computed block by block at the windows' times
    calls = []
    real = splitfilters.build_filter
    monkeypatch.setattr(
        splitfilters, "build_filter", lambda spec: calls.append(spec) or real(spec)
    )
    monkeypatch.setattr(splitfilters, "_BLOCK_WINDOWS", 64)
    for stride in (1, 3):
        cfg = ExperimentConfig(
            mode="discrete", n=1200, N=8, p=4, trials=1, substeps=2, stride=stride
        )
        calls.clear()
        shared = prepare_shared(cfg)
        assert len(calls) == 3
        states, bank = shared.states, shared.bank
        sine = lambda w: forcing(window_times(bank, w, cfg.h), cfg.forcing_freq)  # noqa: E731
        for drive in (shared.drive.__getitem__, sine):
            expected = estimate_series(states, cfg, bank, drive).ls.theta
            assert shared.reference.tobytes() == expected.tobytes(), stride


def test_eta_defaults_by_mode():
    assert ExperimentConfig(mode="continuous").eta == 0.1
    assert ExperimentConfig(mode="discrete").eta == 1.0
    assert ExperimentConfig(mode="discrete", eta=0.3).eta == 0.3


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(mode="hybrid")
    with pytest.raises(ValueError):
        ExperimentConfig(mode="continuous", n=0)
    with pytest.raises(ValueError):
        ExperimentConfig(mode="continuous", eta=-0.1)
    with pytest.raises(ValueError):
        ExperimentConfig(mode="continuous", x0=(1.0, 2.0))
    with pytest.raises(ValueError, match=r"^master_seed must be >= 0, got -1$"):
        ExperimentConfig(mode="continuous", master_seed=-1)


@pytest.mark.parametrize(
    "name", ["n", "N", "p", "trials", "stride", "substeps", "master_seed"]
)
@pytest.mark.parametrize("value", [20.0, True, "20"], ids=["float", "bool", "str"])
def test_config_rejects_non_integer_fields(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
        ExperimentConfig(mode="continuous", **{name: value})


@pytest.mark.parametrize("name", ["h", "eta", "lam", "mu", "forcing_freq"])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_config_rejects_non_finite_fields(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value!r}$"):
        ExperimentConfig(mode="continuous", **{name: value})


@pytest.mark.parametrize("name", ["h", "eta", "lam", "mu", "forcing_freq"])
@pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "str"])
def test_config_rejects_non_real_fields(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be a real number, got {value!r}$"):
        ExperimentConfig(mode="continuous", **{name: value})


def test_config_accepts_integer_reals():
    # a JSON manifest writes 1 for 1.0
    cfg = ExperimentConfig(mode="continuous", h=1, eta=0, lam=2, mu=300, forcing_freq=3)
    assert (cfg.h, cfg.eta, cfg.lam, cfg.mu, cfg.forcing_freq) == (1, 0, 2, 300, 3)


@pytest.mark.parametrize(
    "x0",
    [5, "abc", [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [math.nan, 0, 0], [0, math.inf, 0],
     [0, 0, "1"], [True, 0, 0]],
)
def test_config_rejects_bad_x0(x0):
    with pytest.raises(ValueError, match=r"^x0 must be three finite reals, got "):
        ExperimentConfig(mode="continuous", x0=x0)


def test_prepare_shared_rejects_series_shorter_than_a_window():
    cfg = ExperimentConfig(mode="continuous", n=39, N=20, p=4, trials=2)
    for mode in ("continuous", "discrete"):
        with pytest.raises(ValueError, match=r"^n=39 samples do not fill one window of 2N=40"):
            prepare_shared(replace(cfg, mode=mode))
    assert prepare_shared(replace(cfg, n=40)).states.shape == (40, 3)


def test_one_window_discrete_setup_reports_zero_sigma_min():
    # the pseudo-true solve sees one window for six features
    cfg = ExperimentConfig(mode="discrete", n=40, N=20, p=8, trials=2)
    with pytest.raises(SingularDesignError, match=r"sigma_min=0\.000e\+00, n_windows=1\)"):
        prepare_shared(cfg)


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="bogus"):
        config_from_dict({"mode": "continuous", "bogus": 1})
    with pytest.raises(ValueError, match="mode"):
        config_from_dict({"n": 100})


def _resolved(*argv):
    # manifests and overrides are read where the CLI builds its one config
    return _resolve_config(build_parser().parse_args(["benchmark", *argv, "--out", "unused"]))


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"mode": "discrete", "n": 5000, "trials": 12}))
    cfg = _resolved("--config", str(path))
    assert cfg == ExperimentConfig(mode="discrete", n=5000, trials=12)


def test_apply_overrides():
    out = _resolved("--mode", "continuous", "--set", "n=4000", "--set", "eta=0.2",
                    "--set", "mode=discrete")
    assert out.n == 4000 and out.eta == 0.2 and out.mode == "discrete"
    out2 = _resolved("--mode", "continuous", "--set", "x0=[1, 2, 3]")
    assert out2.x0 == (1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="key=value"):
        _resolved("--mode", "continuous", "--set", "n4000")
    with pytest.raises(ValueError, match="unknown config field"):
        _resolved("--mode", "continuous", "--set", "q=1")
