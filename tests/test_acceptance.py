"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE <k> <name>: PASS|FAIL` line, so running
`pytest -s tests/test_acceptance.py` doubles as the release report. The two
replication tests run 200 Monte Carlo trials each at the full data scale and
dominate the runtime (about 20 s together on two cores).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time

import numpy as np

from ivsysid.bounds import GammaParams, corollary_rate, gamma, ideal_window, mc_check_gamma
from ivsysid.cli import main
from ivsysid.estimator import IvConfig, clip_singular_values, iv_estimate, ls_estimate
from ivsysid.harness import (
    ExperimentConfig,
    prepare_shared,
    run_monte_carlo,
    summarize,
)
from ivsysid.polyfilter import FilterSpec, build_filter
from ivsysid.splitfilters import DesignMatrices, rho_truncate

WORKERS = min(4, os.cpu_count() or 1)


def _report(number: int, name: str, checks: dict[str, bool]) -> None:
    verdict = "PASS" if all(checks.values()) else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {verdict}")
    assert all(checks.values()), {k: v for k, v in checks.items() if not v}


def _benchmark_stats(mode: str):
    config = ExperimentConfig(mode=mode, trials=200)
    shared = prepare_shared(config)
    results = run_monte_carlo(config, workers=WORKERS, shared=shared)
    return summarize(results, shared.reference, shared.reference_kind)


def test_continuous_replication_scaled():
    stats = _benchmark_stats("continuous")
    iv, ls = stats.iv, stats.ls
    checks = {
        f"iv bias {iv.bias_pct:.4f} <= 0.2": iv.bias_pct <= 0.2,
        f"ls bias {ls.bias_pct:.4f} in [1.8, 3.0]": 1.8 <= ls.bias_pct <= 3.0,
        f"iv rmse {iv.rmse_pct:.4f} <= 1.2": iv.rmse_pct <= 1.2,
        f"ls rmse {ls.rmse_pct:.4f} in [1.9, 3.0]": 1.9 <= ls.rmse_pct <= 3.0,
        f"bias ratio {ls.bias_pct / iv.bias_pct:.1f} >= 20": ls.bias_pct >= 20.0 * iv.bias_pct,
    }
    _report(1, "continuous-lorenz", checks)


def test_discrete_replication_scaled():
    stats = _benchmark_stats("discrete")
    iv, ls = stats.iv, stats.ls
    checks = {
        f"iv bias {iv.bias_pct:.4f} <= 0.05": iv.bias_pct <= 0.05,
        f"ls bias {ls.bias_pct:.4f} in [1.2, 1.9]": 1.2 <= ls.bias_pct <= 1.9,
        f"rmse ratio {ls.rmse_pct / iv.rmse_pct:.1f} >= 5": ls.rmse_pct >= 5.0 * iv.rmse_pct,
    }
    _report(2, "discrete-lorenz", checks)


def test_filter_exactness_fast():
    start = time.perf_counter()

    delta = build_filter(FilterSpec(5, 1.0, 3.0, 0, 5)).coefficients[0]
    delta_ok = bool(np.allclose(delta, [0, 0, 1, 0, 0], atol=1e-9))

    h = 0.1
    central = build_filter(FilterSpec(5, h, 3.0, 1, 5)).coefficients[1]
    central_ok = bool(
        np.allclose(central, np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h), rtol=1e-9)
    )

    # exactness: a degree-5 polynomial differentiated at an off-grid point
    spec = FilterSpec(9, 0.05, 4.6, 1, 6, max_derivative=1)
    w = build_filter(spec)
    poly = np.polynomial.Polynomial([0.4, -1.1, 0.6, 0.2, -0.05, 0.01])
    t = np.arange(1, 10) * spec.step
    value = w.coefficients[1] @ poly(t)
    exact_ok = bool(abs(value - poly.deriv()(4.6 * spec.step)) < 1e-8)

    # min-norm: the solved stencil is orthogonal to the constraint null space
    from scipy.linalg import null_space

    mn_spec = FilterSpec(12, 0.2, 5.3, 1, 5, max_derivative=1)
    D = build_filter(mn_spec).coefficients
    k = np.arange(1, 13)
    u = (2.0 * k - 13.0) / 11.0
    Z = null_space(np.polynomial.legendre.legvander(u, 4).T)
    min_norm_ok = bool(np.abs(D @ Z).max() < 1e-9 * np.linalg.norm(D))

    elapsed = time.perf_counter() - start
    checks = {
        "delta stencil": delta_ok,
        "central difference": central_ok,
        "polynomial exactness": exact_ok,
        "min-norm optimality": min_norm_ok,
        f"runtime {elapsed:.3f}s < 1s": elapsed < 1.0,
    }
    _report(3, "filter-exactness", checks)


def test_clip_and_truncate_properties():
    rng = np.random.default_rng(4)
    clip_ok = True
    for _ in range(1000):
        rows, cols = rng.integers(2, 9, size=2)
        A = rng.normal(size=(rows, cols)) * math.exp(rng.uniform(-3, 3))
        lam = math.exp(rng.uniform(-3, 2))
        C = clip_singular_values(A, lam)
        s = np.linalg.svd(C, compute_uv=False)
        clip_ok &= s.min() >= lam * (1 - 1e-9)
        clip_ok &= np.linalg.norm(A - C, 2) <= lam * (1 + 1e-9)

    rho_ok = True
    for _ in range(1000):
        dim = int(rng.integers(1, 13))
        x = rng.normal(size=dim) * math.exp(rng.uniform(-3, 4))
        mu = math.exp(rng.uniform(-3, 3))
        r = rho_truncate(x, mu)
        rho_ok &= np.linalg.norm(r) < mu
        rho_ok &= np.linalg.norm(r) <= np.linalg.norm(x) * (1 + 1e-12)

    checks = {"clip on 1000 matrices": bool(clip_ok), "rho on 1000 vectors": bool(rho_ok)}
    _report(4, "clip-truncate", checks)


def test_errors_in_variables_oracle():
    rng = np.random.default_rng(5)
    n = 10**6
    x_star = rng.normal(size=n)
    x = x_star + rng.normal(size=n)
    w = x_star + rng.normal(size=n)
    design = DesignMatrices(
        X=x[:, None], Y=x_star[:, None], Z=w[:, None],
        times=np.arange(n, dtype=float), window_span=1,
    )
    ls = ls_estimate(design).theta[0, 0]
    iv = iv_estimate(design, IvConfig(lam=1.0, mu=1.0)).theta[0, 0]
    checks = {
        f"ls {ls:.4f} within 2% of 0.5": abs(ls - 0.5) <= 0.01,
        f"iv {iv:.4f} within 2% of 1.0": abs(iv - 1.0) <= 0.02,
    }
    _report(5, "eiv-oracle", checks)


def test_gamma_bound_validity():
    head_ok = all(
        gamma(GammaParams(r=r, a=a, b=b, K=K)).head == 2.0 / b
        for r, a, b, K in [(1, 1.0, 4.0, 1.0), (2, 0.5, 2.5, 3.0), (4, 2.0, 30.0, 0.7)]
    )
    grid = list(itertools.product((1, 2, 4), (0.5, 2.0), (2.0, 10.0), (0.5, 2.0, 8.0)))
    worst = 0.0
    for i, (r, a, b_over_a, K) in enumerate(grid):
        params = GammaParams(r=r, a=a, b=a * b_over_a, K=K)
        worst = max(worst, mc_check_gamma(params, trials=10**5, seed=100 + i)["ratio"])
    checks = {
        "head equals 2/b": head_ok,
        f"grid size {len(grid)} >= 27": len(grid) >= 27,
        f"worst ratio {worst:.3f} <= 1": worst <= 1.0,
    }
    _report(6, "gamma-bound", checks)


def test_rate_formulas_and_convergence_trend():
    n, h, p = 100_000, 1e-3, 2
    expected_d1 = h ** (1.0 / 5.0) + math.sqrt(1.0 / (n * h ** (4.0 / 5.0)))
    expected_d0 = h ** (2.0 / 5.0) + math.sqrt(1.0 / (n * h ** (4.0 / 5.0)))
    subst_ok = (
        math.isclose(corollary_rate(n, h, p, 1), expected_d1, rel_tol=1e-12)
        and math.isclose(corollary_rate(n, h, p, 0), expected_d0, rel_tol=1e-12)
        and math.isclose(ideal_window(1e-3, 2), 10.0 ** 2.4, rel_tol=1e-12)
    )

    rmses = []
    for scale in (12_500, 25_000, 50_000):
        config = ExperimentConfig(mode="continuous", n=scale, trials=64)
        shared = prepare_shared(config)
        results = run_monte_carlo(config, workers=WORKERS, shared=shared)
        rmses.append(summarize(results, shared.reference, shared.reference_kind).iv.rmse_pct)

    checks = {
        "hand substitutions": subst_ok,
        f"iv rmse decreasing {[f'{r:.3f}' for r in rmses]}": rmses[0] > rmses[1] > rmses[2],
    }
    _report(7, "rate-formulas", checks)


def test_benchmark_determinism(tmp_path, capsys):
    manifest = {
        "mode": "continuous", "n": 3000, "h": 1e-3, "N": 20, "p": 8,
        "eta": 0.05, "lam": 1.0, "mu": 200.0, "trials": 3, "master_seed": 11,
        "stride": 1, "substeps": 2, "forcing_freq": 1.0, "x0": [-8.0, 8.0, 27.0],
    }
    config_path = tmp_path / "manifest.json"
    config_path.write_text(json.dumps(manifest))

    outputs = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        code = main(["benchmark", "--config", str(config_path), "--out", str(out_dir)])
        assert code == 0, capsys.readouterr().err
        outputs.append(out_dir)
    capsys.readouterr()

    same = {
        name: (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in ("trials.csv", "summary.json")
    }
    _report(8, "determinism", {f"{k} identical": v for k, v in same.items()})
