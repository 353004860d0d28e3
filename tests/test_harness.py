from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from ivsysid import harness
from ivsysid.bounds import ideal_window
from ivsysid.dynamics import true_theta
from ivsysid.harness import (
    ExperimentConfig,
    InsufficientDataError,
    TrialResult,
    apply_overrides,
    bootstrap_se,
    config_from_dict,
    kde_export,
    load_config,
    prepare_shared,
    run_experiment,
    run_monte_carlo,
    run_trial,
    summarize,
    summary_dict,
    trial_seed,
    write_trials_csv,
)
from ivsysid.polyfilter import FilterRankError

SMALL = ExperimentConfig(
    mode="continuous", n=2000, N=20, p=4, eta=0.05, trials=4, master_seed=7, substeps=2
)


@pytest.fixture(scope="module")
def small_shared():
    return prepare_shared(SMALL)


def _results_from(thetas: np.ndarray) -> list[TrialResult]:
    return [TrialResult(i, th.copy(), th.copy(), {}) for i, th in enumerate(thetas)]


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
    results.append(TrialResult(1, None, None, {}, error="ValueError: boom"))
    with pytest.raises(InsufficientDataError):
        summarize(results, ref)


def _gaussian_results(T: int, seed: int) -> list[TrialResult]:
    rng = np.random.default_rng(seed)
    ref = true_theta()
    return [
        TrialResult(
            i,
            ref + rng.normal(0, 0.05, size=(6, 3)),
            ref + rng.normal(0, 0.05, size=(6, 3)),
            {},
        )
        for i in range(T)
    ]


def test_bootstrap_zero_spread_gives_zero_se():
    ref = true_theta()
    ses = bootstrap_se(_results_from(np.stack([ref + 0.1] * 12)), ref, B=200, seed=4)
    # np.std of a constant array leaves ~1e-18 of reduction rounding
    for method in ("iv", "ls"):
        assert all(v < 1e-12 for v in ses[method].values())


def test_bootstrap_is_seeded():
    ref = true_theta()
    results = _gaussian_results(30, seed=5)
    a = bootstrap_se(results, ref, B=150, seed=9)
    b = bootstrap_se(results, ref, B=150, seed=9)
    assert a == b
    c = bootstrap_se(results, ref, B=150, seed=10)
    assert a != c


def test_bootstrap_se_shrinks_with_sample_size():
    ref = true_theta()
    small = bootstrap_se(_gaussian_results(50, seed=21), ref, B=400, seed=2)
    large = bootstrap_se(_gaussian_results(200, seed=22), ref, B=400, seed=2)
    # quadrupling the trials should roughly halve every standard error
    for method in ("iv", "ls"):
        for key in ("bias_se", "std_se", "rmse_se"):
            ratio = large[method][key] / small[method][key]
            assert 0.35 < ratio < 0.65, (method, key, ratio)


def test_bootstrap_validation():
    ref = true_theta()
    with pytest.raises(ValueError):
        bootstrap_se(_gaussian_results(10, seed=0), ref, B=50)
    with pytest.raises(InsufficientDataError):
        bootstrap_se([TrialResult(0, ref, ref, {})], ref)


def test_kde_densities_integrate_to_one():
    ref = true_theta()
    rows = kde_export(_gaussian_results(40, seed=13), ref, grid_points=256)
    assert len(rows) == 2 * 18 * 256
    by_group: dict[tuple, list[dict]] = {}
    for row in rows:
        by_group.setdefault(
            (row["estimator"], row["entry_row"], row["entry_col"]), []
        ).append(row)
    assert len(by_group) == 36
    for group in by_group.values():
        grid = np.array([r["grid_value"] for r in group])
        dens = np.array([r["density"] for r in group])
        assert abs(np.trapezoid(dens, grid) - 1.0) < 2e-3


def test_kde_degenerate_samples_peak_at_value():
    ref = true_theta()
    rows = kde_export(_results_from(np.stack([ref + 0.5] * 16)), ref)
    first = [r for r in rows if (r["estimator"], r["entry_row"], r["entry_col"]) == ("iv", 0, 0)]
    grid = np.array([r["grid_value"] for r in first])
    dens = np.array([r["density"] for r in first])
    value = ref[0, 0] + 0.5
    assert grid[np.argmax(dens)] == pytest.approx(value, abs=1e-6)
    assert abs(np.trapezoid(dens, grid) - 1.0) < 2e-3
    assert first[0]["reference_value"] == ref[0, 0]


def test_kde_needs_ten_trials():
    ref = true_theta()
    with pytest.raises(InsufficientDataError):
        kde_export(_gaussian_results(9, seed=1), ref)


def test_trial_seed_is_stable_and_distinct():
    assert trial_seed(0, 0) == trial_seed(0, 0)
    seeds = {trial_seed(0, i) for i in range(100)}
    assert len(seeds) == 100
    assert trial_seed(1, 0) != trial_seed(0, 0)


def test_noiseless_trials_recover_reference(small_shared):
    cfg = replace(SMALL, eta=0.0, trials=2)
    results = run_monte_carlo(cfg, shared=small_shared)
    assert all(r.error is None for r in results)
    assert np.array_equal(results[0].theta_iv, results[1].theta_iv)
    rel = np.linalg.norm(results[0].theta_iv - small_shared.reference) / np.linalg.norm(
        small_shared.reference
    )
    assert rel < 1e-3
    rel_ls = np.linalg.norm(results[0].theta_ls - small_shared.reference) / np.linalg.norm(
        small_shared.reference
    )
    assert rel_ls < 1e-3


def test_monte_carlo_is_reproducible(small_shared):
    a = run_monte_carlo(SMALL, shared=small_shared)
    b = run_monte_carlo(SMALL, shared=small_shared)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.theta_iv, rb.theta_iv)
        assert np.array_equal(ra.theta_ls, rb.theta_ls)
        assert ra.diagnostics["seed"] == rb.diagnostics["seed"]


def test_workers_do_not_change_results(small_shared):
    serial = run_monte_carlo(SMALL, shared=small_shared)
    threaded = run_monte_carlo(SMALL, workers=2, shared=small_shared)
    assert [r.trial_index for r in threaded] == [0, 1, 2, 3]
    for rs, rt in zip(serial, threaded):
        assert np.array_equal(rs.theta_iv, rt.theta_iv)
        assert np.array_equal(rs.theta_ls, rt.theta_ls)


def test_trial_diagnostics(small_shared):
    res = run_trial(SMALL, 0, small_shared)
    diag = res.diagnostics
    assert diag["n_windows"] == SMALL.n - 2 * SMALL.N + 1
    assert diag["sigma_min_zx"] > 0
    assert isinstance(diag["excitation_satisfied"], bool)
    assert diag["seed"] == trial_seed(SMALL.master_seed, 0)


def test_unbuildable_degree_falls_back_with_warning():
    cfg = replace(SMALL, n=600, p=75, trials=2)
    with pytest.warns(RuntimeWarning, match="falling back"):
        shared = prepare_shared(cfg)
    assert shared.p_requested == 75
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
    assert results[1].theta_iv is None
    stats = summarize(results, small_shared.reference, small_shared.reference_kind)
    assert stats.n_trials == SMALL.trials - 1
    assert stats.n_failed == 1
    summary = summary_dict(SMALL, small_shared, results, stats)
    assert summary["trials"]["failed"] == 1
    assert summary["failures"] == [
        {"trial_index": 1, "error": "ValueError: injected failure"}
    ]


def test_trial_programming_errors_propagate(small_shared, monkeypatch):
    # only numerical and domain errors are trial data; a TypeError is a bug
    def broken(config, trial_index, shared):
        raise TypeError("injected bug")

    monkeypatch.setattr(harness, "run_trial", broken)
    with pytest.raises(TypeError, match="injected bug"):
        run_monte_carlo(SMALL, shared=small_shared)


def test_write_trials_csv_skips_failures(tmp_path, small_shared):
    ok = run_trial(SMALL, 0, small_shared)
    bad = TrialResult(1, None, None, {}, error="ValueError: boom")
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


@pytest.mark.parametrize(
    "name", ["n", "N", "p", "trials", "stride", "substeps", "master_seed"]
)
@pytest.mark.parametrize("value", [20.0, True, "20"], ids=["float", "bool", "str"])
def test_config_rejects_non_integer_fields(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
        ExperimentConfig(mode="continuous", **{name: value})


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="bogus"):
        config_from_dict({"mode": "continuous", "bogus": 1})
    with pytest.raises(ValueError, match="mode"):
        config_from_dict({"n": 100})


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"mode": "discrete", "n": 5000, "trials": 12}))
    cfg = load_config(path)
    assert cfg == ExperimentConfig(mode="discrete", n=5000, trials=12)


def test_apply_overrides():
    cfg = ExperimentConfig(mode="continuous")
    out = apply_overrides(cfg, ["n=4000", "eta=0.2", "mode=discrete"])
    assert out.n == 4000 and out.eta == 0.2 and out.mode == "discrete"
    assert cfg.n == 100_000  # original untouched
    out2 = apply_overrides(cfg, ["x0=[1, 2, 3]"])
    assert out2.x0 == (1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="key=value"):
        apply_overrides(cfg, ["n4000"])
    with pytest.raises(ValueError, match="unknown config field"):
        apply_overrides(cfg, ["q=1"])
