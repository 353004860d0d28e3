"""Monte Carlo experiment driver: configs, trials, statistics, file outputs.

An experiment is fully described by an ExperimentConfig (serializable to a
JSON manifest). The driver integrates the noiseless trajectory and builds the
filter bank once, then runs seeded trials that only differ in their noise
draw. Every output byte is a pure function of the config, so rerunning a
manifest reproduces results exactly.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .bounds import ideal_window
from .dynamics import (
    LorenzParams,
    Trajectory,
    add_noise,
    feature_map,
    integrate,
    pseudo_true_discrete,
    true_theta,
)
from .estimator import IvConfig, excitation_check, iv_estimate, ls_estimate
from .polyfilter import FilterConditioningError, FilterRankError
from .splitfilters import SplitFilterBank, assemble_design, build_split_bank


class InsufficientDataError(ValueError):
    """Fewer successful trials than the statistic needs."""


#: Exactness degree the driver retries with when the configured p is not
#: buildable on the half window.
FALLBACK_P = 8


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run. Defaults are the full-scale experiment values.

    eta defaults per mode (0.1 continuous, 1.0 discrete) when left None.
    """

    mode: str
    n: int = 100_000
    h: float = 1e-3
    N: int = 100
    p: int = 75
    eta: float | None = None
    lam: float = 1.0
    mu: float = 200.0
    trials: int = 2000
    master_seed: int = 0
    stride: int = 1
    substeps: int = 10
    forcing_freq: float = 1.0
    x0: tuple[float, float, float] = (-8.0, 8.0, 27.0)

    def __post_init__(self):
        if self.mode not in ("continuous", "discrete"):
            raise ValueError(f"mode must be 'continuous' or 'discrete', got {self.mode!r}")
        if self.eta is None:
            object.__setattr__(self, "eta", 0.1 if self.mode == "continuous" else 1.0)
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if len(self.x0) != 3:
            raise ValueError("x0 must have three components")
        for name in ("n", "N", "p", "trials", "stride", "substeps", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("n", "N", "p", "trials", "stride", "substeps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("h", "lam", "mu"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")


@dataclass
class TrialResult:
    trial_index: int
    theta_iv: np.ndarray | None
    theta_ls: np.ndarray | None
    diagnostics: dict
    error: str | None = None


@dataclass
class MethodStats:
    bias_pct: float
    std_pct: float
    rmse_pct: float
    bias_se: float | None = None
    std_se: float | None = None
    rmse_se: float | None = None


@dataclass
class SummaryStats:
    iv: MethodStats
    ls: MethodStats
    reference: str  # "ground_truth" or "pseudo_true"
    n_trials: int
    n_failed: int


@dataclass
class SharedArtifacts:
    """Per-experiment state reused across every trial."""

    trajectory: Trajectory
    bank: SplitFilterBank
    reference: np.ndarray
    reference_kind: str
    p_requested: int
    p_used: int


def prepare_shared(config: ExperimentConfig) -> SharedArtifacts:
    """Integrate the trajectory, build the bank, resolve the reference.

    If the configured exactness degree cannot be built on the split window
    (rank or conditioning failure), fall back to FALLBACK_P with a warning.
    """
    params = LorenzParams(forcing_freq=config.forcing_freq)
    trajectory = integrate(params, config.x0, config.h, config.n, config.substeps)
    p_used = config.p
    try:
        bank = build_split_bank(config.mode, config.N, config.h, config.p)
    except (FilterRankError, FilterConditioningError) as exc:
        if config.p <= FALLBACK_P:
            raise
        warnings.warn(
            f"exactness degree p={config.p} not buildable on window {config.N} "
            f"({exc}); falling back to p={FALLBACK_P}",
            RuntimeWarning,
            stacklevel=2,
        )
        p_used = FALLBACK_P
        bank = build_split_bank(config.mode, config.N, config.h, p_used)
    if config.mode == "continuous":
        reference = true_theta()
        kind = "ground_truth"
    else:
        reference = pseudo_true_discrete(replace(config, p=p_used), trajectory)
        kind = "pseudo_true"
    return SharedArtifacts(
        trajectory=trajectory,
        bank=bank,
        reference=reference,
        reference_kind=kind,
        p_requested=config.p,
        p_used=p_used,
    )


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Derive the per-trial noise seed; stable across platforms and runs."""
    ss = np.random.SeedSequence([master_seed, trial_index])
    return int(ss.generate_state(1, np.uint64)[0])


def run_trial(
    config: ExperimentConfig, trial_index: int, shared: SharedArtifacts
) -> TrialResult:
    """One seeded noise draw through the full pipeline, both estimators."""
    seed = trial_seed(config.master_seed, trial_index)
    measurements = add_noise(shared.trajectory, config.eta, seed)
    feats = lambda t, s: feature_map(t, s, config.forcing_freq)  # noqa: E731
    design = assemble_design(
        measurements.values, shared.bank, feats, config.mu, config.stride
    )
    iv = iv_estimate(design, IvConfig(lam=config.lam, mu=config.mu))
    ls = ls_estimate(design)
    excitation = excitation_check(design, config.lam)
    return TrialResult(
        trial_index=trial_index,
        theta_iv=iv.theta,
        theta_ls=ls.theta,
        diagnostics={
            "seed": seed,
            "sigma_min_zx": iv.sigma_min_zx,
            "clipped_directions": iv.clipped_directions,
            "excitation_satisfied": excitation["satisfied"],
            "excitation_margin": excitation["margin"],
            "ls_condition": ls.condition_number,
            "n_windows": design.X.shape[0],
        },
    )


def run_monte_carlo(
    config: ExperimentConfig,
    workers: int = 1,
    shared: SharedArtifacts | None = None,
) -> list[TrialResult]:
    """Run all configured trials; failures are recorded, never dropped.

    A trial that raises a ValueError (which covers LinAlgError,
    SingularDesignError and EmptyDesignError) or an ArithmeticError is
    recorded as failed; any other exception is a programming error and
    propagates.

    Trials are independent given their seeds, so any worker count produces
    identical per-trial output.
    """
    if shared is None:
        shared = prepare_shared(config)

    def one(i: int) -> TrialResult:
        try:
            return run_trial(config, i, shared)
        except (ValueError, ArithmeticError) as exc:  # numerical and domain errors are data
            return TrialResult(
                trial_index=i,
                theta_iv=None,
                theta_ls=None,
                diagnostics={},
                error=f"{type(exc).__name__}: {exc}",
            )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, range(config.trials)))
    else:
        results = [one(i) for i in range(config.trials)]
    return sorted(results, key=lambda r: r.trial_index)


def _stats(thetas: np.ndarray, reference: np.ndarray) -> tuple[float, float, float]:
    # bias: distance from the mean estimate to the reference; std: quadratic
    # mean distance to the mean; rmse: quadratic mean distance to the
    # reference. All normalized by ||reference||_F, in percent. These satisfy
    # bias^2 + std^2 = rmse^2 identically.
    refnorm = np.linalg.norm(reference)
    mean = thetas.mean(axis=0)
    bias = np.linalg.norm(mean - reference) / refnorm
    std = math.sqrt(np.mean(np.sum((thetas - mean) ** 2, axis=(1, 2)))) / refnorm
    rmse = math.sqrt(np.mean(np.sum((thetas - reference) ** 2, axis=(1, 2)))) / refnorm
    return 100.0 * bias, 100.0 * std, 100.0 * rmse


def summarize(
    results: list[TrialResult],
    reference: np.ndarray,
    reference_kind: str = "ground_truth",
) -> SummaryStats:
    """Normalized bias/std/rmse (percent) over the successful trials."""
    ok = [r for r in results if r.error is None]
    if len(ok) < 2:
        raise InsufficientDataError(
            f"need at least 2 successful trials, got {len(ok)}"
        )
    iv = np.stack([r.theta_iv for r in ok])
    ls = np.stack([r.theta_ls for r in ok])
    return SummaryStats(
        iv=MethodStats(*_stats(iv, reference)),
        ls=MethodStats(*_stats(ls, reference)),
        reference=reference_kind,
        n_trials=len(ok),
        n_failed=len(results) - len(ok),
    )


def bootstrap_se(
    results: list[TrialResult],
    reference: np.ndarray,
    B: int = 1000,
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Nonparametric bootstrap standard errors for the three statistics."""
    if B < 100:
        raise ValueError(f"need B >= 100 resamples, got {B}")
    ok = [r for r in results if r.error is None]
    if len(ok) < 2:
        raise InsufficientDataError(
            f"need at least 2 successful trials, got {len(ok)}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB5]))
    T = len(ok)
    idx = rng.integers(0, T, size=(B, T))
    # resample b as weights: weights[b, t] = (times trial t was drawn) / T
    flat = (idx + T * np.arange(B)[:, None]).ravel()
    weights = np.bincount(flat, minlength=B * T).reshape(B, T) / T
    refnorm = np.linalg.norm(reference)
    out: dict[str, dict[str, float]] = {}
    for name, thetas in (
        ("iv", np.stack([r.theta_iv for r in ok])),
        ("ls", np.stack([r.theta_ls for r in ok])),
    ):
        # deviations from the full-sample mean keep the resampled variance
        # E_w|d|^2 - |E_w d|^2 free of cancellation
        center = thetas.mean(axis=0)
        dev = (thetas - center).reshape(T, -1)  # (T, 18)
        dev_means = weights @ dev  # (B, 18)
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


def kde_export(
    results: list[TrialResult],
    reference: np.ndarray,
    grid_points: int = 256,
) -> list[dict]:
    """Gaussian kernel density per parameter entry and estimator.

    Bandwidth follows the normal-reference rule 1.06 * sd * T^(-1/5); the
    grid spans the sample mean +/- 4 sd. Degenerate (constant) samples get a
    single narrow peak at their value.
    """
    ok = [r for r in results if r.error is None]
    if len(ok) < 10:
        raise InsufficientDataError(f"need at least 10 trials for a density, got {len(ok)}")
    rows: list[dict] = []
    T = len(ok)
    for name, thetas in (
        ("iv", np.stack([r.theta_iv for r in ok])),
        ("ls", np.stack([r.theta_ls for r in ok])),
    ):
        for r_i in range(reference.shape[0]):
            for c_i in range(reference.shape[1]):
                samples = thetas[:, r_i, c_i]
                mean = float(samples.mean())
                sd = float(samples.std())
                scale = max(sd, max(abs(mean), 1.0) * 1e-9)
                bw = 1.06 * scale * T ** (-0.2)
                grid = np.linspace(mean - 4 * scale, mean + 4 * scale, grid_points)
                dens = np.exp(
                    -0.5 * ((grid[:, None] - samples[None, :]) / bw) ** 2
                ).sum(axis=1) / (T * bw * math.sqrt(2 * math.pi))
                ref_val = float(reference[r_i, c_i])
                rows.extend(
                    {
                        "entry_row": r_i,
                        "entry_col": c_i,
                        "estimator": name,
                        "grid_value": float(g),
                        "density": float(d),
                        "sample_mean": mean,
                        "reference_value": ref_val,
                    }
                    for g, d in zip(grid, dens)
                )
    return rows


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_trials_csv(path: Path, results: list[TrialResult]) -> None:
    header = ["trial_index", "estimator"]
    header += [f"theta_{r}_{c}" for r in range(6) for c in range(3)]
    header += ["sigma_min_zx", "clipped_directions"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for res in results:
            if res.error is not None:
                continue
            diag = res.diagnostics
            for name, theta in (("iv", res.theta_iv), ("ls", res.theta_ls)):
                row = [res.trial_index, name]
                row += [_fmt(v) for v in theta.ravel()]
                row += [_fmt(diag.get("sigma_min_zx", "")), diag.get("clipped_directions", "")]
                writer.writerow(row)


def write_kde_csv(path: Path, rows: list[dict]) -> None:
    fields = [
        "entry_row",
        "entry_col",
        "estimator",
        "grid_value",
        "density",
        "sample_mean",
        "reference_value",
    ]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(row[f]) for f in fields])


def summary_dict(
    config: ExperimentConfig,
    shared: SharedArtifacts,
    results: list[TrialResult],
    stats: SummaryStats,
) -> dict:
    ok = [r for r in results if r.error is None]
    ideal = ideal_window(config.h, shared.p_used)
    excitation = {
        "min_sigma_min_zx": min((r.diagnostics["sigma_min_zx"] for r in ok), default=None),
        "all_satisfied": all(r.diagnostics["excitation_satisfied"] for r in ok),
        "trials_with_clipping": sum(
            1 for r in ok if r.diagnostics["clipped_directions"] > 0
        ),
    }
    config_dict = asdict(config)
    config_dict["x0"] = list(config.x0)  # JSON round-trips tuples as lists
    return {
        "config": config_dict,
        "p_requested": shared.p_requested,
        "p_used": shared.p_used,
        "reference": shared.reference_kind,
        "reference_norm": float(np.linalg.norm(shared.reference)),
        "n_windows": ok[0].diagnostics["n_windows"] if ok else 0,
        "ideal_window": ideal,
        "window_vs_ideal": config.N / ideal,
        "stats": {
            "iv": asdict(stats.iv),
            "ls": asdict(stats.ls),
        },
        "trials": {
            "requested": config.trials,
            "succeeded": stats.n_trials,
            "failed": stats.n_failed,
        },
        "failures": [
            {"trial_index": r.trial_index, "error": r.error}
            for r in results
            if r.error is not None
        ],
        "excitation": excitation,
    }


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path,
    workers: int = 1,
    kde_grid_points: int = 256,
) -> dict:
    """Full benchmark: trials, statistics, bootstrap SEs, CSV/JSON outputs.

    Writes trials.csv, summary.json and kde.csv into out_dir and returns the
    summary dict.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shared = prepare_shared(config)
    results = run_monte_carlo(config, workers=workers, shared=shared)
    stats = summarize(results, shared.reference, shared.reference_kind)
    ses = bootstrap_se(results, shared.reference, seed=config.master_seed)
    stats.iv = replace(stats.iv, **ses["iv"])
    stats.ls = replace(stats.ls, **ses["ls"])

    write_trials_csv(out / "trials.csv", results)
    summary = summary_dict(config, shared, results, stats)
    with (out / "summary.json").open("w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    ok = [r for r in results if r.error is None]
    if len(ok) >= 10:
        write_kde_csv(out / "kde.csv", kde_export(results, shared.reference, kde_grid_points))
    return summary


def load_config(path: str | Path) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON manifest."""
    with Path(path).open() as fh:
        raw = json.load(fh)
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    valid = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(raw) - valid
    if unknown:
        raise ValueError(
            f"unknown config keys {sorted(unknown)}; valid keys: {sorted(valid)}"
        )
    if "mode" not in raw:
        raise ValueError("config must set 'mode'")
    return ExperimentConfig(**raw)


def apply_overrides(config: ExperimentConfig, assignments: list[str]) -> ExperimentConfig:
    """Apply --set key=value overrides; values parse as JSON, else strings."""
    updates = {}
    for item in assignments:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"override {item!r} is not of the form key=value")
        if key not in ExperimentConfig.__dataclass_fields__:
            raise ValueError(f"unknown config field {key!r}")
        try:
            updates[key] = json.loads(value)
        except json.JSONDecodeError:
            updates[key] = value
    return replace(config, **updates)
