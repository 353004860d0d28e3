"""Monte Carlo experiment driver: configs, trials, statistics, file outputs.

An experiment is fully described by an ExperimentConfig (serializable to a
JSON manifest). The driver integrates the noiseless trajectory and builds the
filter bank once, then runs seeded trials that only differ in their noise
draw. Every output byte is a pure function of the config, so rerunning a
manifest reproduces results exactly.
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import numbers
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .bounds import ideal_window
from .dynamics import add_noise, feature_map, forcing, integrate, true_theta
from .estimator import Estimate, IvConfig, excitation_check, iv_estimate, ls_estimate
from .polyfilter import FilterConditioningError, FilterRankError
from .splitfilters import SplitFilterBank, assemble_design, build_split_bank, window_times


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
        for name in ("n", "N", "p", "trials", "stride", "substeps", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("n", "N", "p", "trials", "stride", "substeps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.N % 2:
            raise ValueError(f"N must be even for the parity split, got {self.N}")
        for name in ("h", "eta", "lam", "mu", "forcing_freq"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("h", "lam", "mu"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        x0 = tuple(self.x0) if isinstance(self.x0, (list, tuple)) else ()
        if len(x0) != 3 or not all(_is_real(v) and math.isfinite(v) for v in x0):
            raise ValueError(f"x0 must be three finite reals, got {self.x0!r}")
        object.__setattr__(self, "x0", tuple(float(v) for v in x0))


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class SeriesEstimate:
    """Both estimators on one measurement series, with the excitation check."""

    iv: Estimate
    ls: Estimate
    excitation: dict
    n_windows: int


@dataclass(slots=True)
class TrialResult:
    """What a run's outputs read of one trial, all that a run keeps of it.

    thetas stacks the IV and LS estimates to (2, 6, 3); sigma_min_zx and
    clipped_directions are the IV's, satisfied the excitation check's. A
    failed trial has thetas None and its error.
    """

    trial_index: int
    thetas: np.ndarray | None
    sigma_min_zx: float = math.nan
    clipped_directions: int = 0
    satisfied: bool = False
    n_windows: int = 0
    error: str | None = None


@dataclass
class MethodStats:
    bias_pct: float
    std_pct: float
    rmse_pct: float


@dataclass
class SummaryStats:
    iv: MethodStats
    ls: MethodStats
    reference: str  # "ground_truth" or "pseudo_true"
    n_trials: int
    n_failed: int


@dataclass
class SharedArtifacts:
    """Per-experiment state reused across every trial.

    states are the (n, 3) noiseless states that integrate gives. drive is
    the forcing at the regression time of each window offset of a
    config.n-row record (see trial_drive); the reference and the trials read
    it through drive.__getitem__, each block at the offsets the walk places.
    """

    states: np.ndarray
    bank: SplitFilterBank
    reference: np.ndarray
    reference_kind: str
    p_used: int
    drive: np.ndarray


def prepare_shared(config: ExperimentConfig) -> SharedArtifacts:
    """Integrate the states, build the bank, resolve the reference and the drive.

    If the configured exactness degree cannot be built on the split window
    (rank or conditioning failure), fall back to FALLBACK_P with a warning;
    where the window holds fewer than FALLBACK_P samples, raise its error.
    It sets the malloc thresholds first (see keep_block_memory), so the
    discrete reference's walk keeps its block memory as a trial's does.
    """
    if config.n < 2 * config.N:
        raise ValueError(
            f"n={config.n} samples do not fill one window of 2N={2 * config.N} samples"
        )
    keep_block_memory()
    states = integrate(config.x0, config.h, config.n, config.substeps, config.forcing_freq)
    p_used = config.p
    try:
        bank = build_split_bank(config.mode, config.N, config.h, config.p)
    except (FilterRankError, FilterConditioningError) as exc:
        if config.p <= FALLBACK_P or config.N < FALLBACK_P:
            raise  # no lower degree, or none the window holds
        warnings.warn(
            f"exactness degree p={config.p} not buildable on window {config.N} "
            f"({exc}); falling back to p={FALLBACK_P}",
            RuntimeWarning,
            stacklevel=2,
        )
        p_used = FALLBACK_P
        bank = build_split_bank(config.mode, config.N, config.h, p_used)
    drive = trial_drive(config, bank)
    if config.mode == "continuous":
        reference = true_theta()
        kind = "ground_truth"
    else:
        reference = pseudo_true_discrete(config, states, bank, drive.__getitem__)
        kind = "pseudo_true"
    return SharedArtifacts(
        states=states,
        bank=bank,
        reference=reference,
        reference_kind=kind,
        p_used=p_used,
        drive=drive,
    )


def trial_drive(config: ExperimentConfig, bank: SplitFilterBank) -> np.ndarray:
    """The forcing at the regression time of each window offset 0 ... n - 2N, read-only.

    Row 0 sits at t = h, as integrate places it. The column holds one value
    per offset, 0.8 MB at n = 1e5, and the sine is taken in place of the
    times. It is the same in every trial, and each block of the walk reads
    its offsets from it as a view, whatever their step.
    """
    times = window_times(bank, slice(0, config.n - 2 * config.N + 1, 1), config.h)
    drive = forcing(times, config.forcing_freq, out=times)
    drive.flags.writeable = False
    return drive


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Derive the per-trial noise seed; stable across platforms and runs."""
    ss = np.random.SeedSequence([master_seed, trial_index])
    return int(ss.generate_state(1, np.uint64)[0])


def estimate_series(
    values, config: ExperimentConfig, bank: SplitFilterBank, drive: Callable[[slice], np.ndarray]
) -> SeriesEstimate:
    """Filter one (n, 3) series with bank and solve IV and LS on its moments.

    values is an (n, 3) array or a record, such as a trial's NoisyRecord:
    an object of 3 columns whose open() starts a forward pass of reads that
    ends at the first short one (see assemble_design). drive(w) gives the
    forcing at the window offsets of w, the slice of a block's offsets that
    assemble_design hands its feature map: a trial reads
    SharedArtifacts.drive[w], and estimate computes the sine at
    window_times(bank, w, t0).
    """
    feats = lambda w, s: feature_map(drive(w), s)  # noqa: E731
    design = assemble_design(values, bank, feats, config.mu, config.stride)
    iv = iv_estimate(design, IvConfig(lam=config.lam, mu=config.mu))
    return SeriesEstimate(
        iv=iv,
        ls=ls_estimate(design),
        excitation=excitation_check(iv, config.lam),
        n_windows=design.n_windows,
    )


def pseudo_true_discrete(
    config: ExperimentConfig, states: np.ndarray, bank: SplitFilterBank, drive: Callable
) -> np.ndarray:
    """Zero-noise least-squares reference for the discrete-time model.

    The discrete pipeline estimates the one-step transition map, for which no
    closed-form parameter matrix exists; the convention is to measure
    estimation error against the value the least-squares estimator converges
    to on the noiseless `states`, filtered with the experiment's `bank`.
    drive is estimate_series's.
    """
    return estimate_series(states, config, bank, drive).ls.theta


@dataclass(frozen=True)
class NoisyRecord:
    """One trial's measurements, states plus N(0, eta I) noise, as a record for assemble_design.

    Each pass, started by open(), draws on a fresh generator from seed, so
    consecutive reads from row 0 give the bits of one add_noise draw of the
    whole record, and passes share no state. read(a, b, out) draws the rows
    of a to b - 1 that the states hold straight into out (the walk's block
    buffer) and returns their count, so no pass draws past the last row.
    """

    states: np.ndarray
    eta: float
    seed: int

    columns = property(lambda self: self.states.shape[1])

    def open(self):
        rng = np.random.default_rng(self.seed)

        def read(a: int, b: int, out: np.ndarray) -> int:
            rows = self.states[a:b]
            return len(add_noise(rows, self.eta, rng, out[: len(rows)]))

        return read


def trial_record(config: ExperimentConfig, trial_index: int, states: np.ndarray) -> NoisyRecord:
    """The noisy record trial trial_index measures from the noiseless states."""
    return NoisyRecord(states, config.eta, trial_seed(config.master_seed, trial_index))


def run_trial(
    config: ExperimentConfig, trial_index: int, shared: SharedArtifacts
) -> TrialResult:
    """One seeded noise draw through the full pipeline, both estimators.

    The design draws the noise into its block buffer as it reads the record,
    so a trial holds one block of it, not the whole noisy record. It reads
    the drive from shared, whose length run_monte_carlo checks.
    """
    record = trial_record(config, trial_index, shared.states)
    est = estimate_series(record, config, shared.bank, shared.drive.__getitem__)
    return TrialResult(
        trial_index, np.stack([est.iv.theta, est.ls.theta]), est.iv.sigma_min_zx,
        est.iv.clipped_directions, est.excitation["satisfied"], est.n_windows,
    )


def keep_block_memory() -> None:
    """Keep a block walk's freed temporaries in the process's malloc arenas.

    glibc starts its mmap and trim thresholds at 128 KB and raises them only
    when a large mapped block is freed, which no walk does. Below them it
    returns an arena's freed top to the system after a block of windows,
    and the next block faults it back in. Short records pay for it: a
    continuous trial at n = 4,000 on one worker took about 193 minor faults
    and ran 594-717 trials/s without the thresholds, against 1 fault and
    985-1,002 trials/s with them (2-core x86_64, numpy 2.4). A published
    discrete trial takes about 12 either way. 2 and 4 MiB sit above a
    block's temporaries at 4,096 windows (a published trial's traced peak
    is 1.0 MiB per worker). Without glibc's mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(-3, 2 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 4 << 20)  # M_TRIM_THRESHOLD


def run_monte_carlo(
    config: ExperimentConfig,
    shared: SharedArtifacts,
    workers: int = 1,
) -> list[TrialResult]:
    """Run all configured trials; failures are recorded, never dropped.

    A trial that raises a ValueError (which covers LinAlgError,
    SingularDesignError and EmptyDesignError) or an ArithmeticError is
    recorded as failed; any other exception is a programming error and
    propagates.

    Trials are independent given their seeds, so any worker count produces
    identical per-trial output. It sets the process's malloc thresholds
    first (see keep_block_memory). A shared drive without one entry per
    window offset of a config.n-row record raises ValueError before any
    trial runs.
    """
    offsets = config.n - 2 * config.N + 1
    if len(shared.drive) != offsets:
        raise ValueError(f"drive has {len(shared.drive)} entries for {offsets} window offsets")

    def one(i: int) -> TrialResult:
        try:
            return run_trial(config, i, shared)
        except (ValueError, ArithmeticError) as exc:  # numerical and domain errors are data
            return TrialResult(i, None, error=f"{type(exc).__name__}: {exc}")

    keep_block_memory()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, range(config.trials)))  # in input order
    return [one(i) for i in range(config.trials)]


def _trial_table(thetas: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_weighted_stats's table of (T, 6, 3) estimates and its offset, in percent of ||reference||.

    Row t holds trial t's 18 deviations from the sample mean, which keep
    E_w|d|^2 - |E_w d|^2 free of cancellation, their squared norm and the
    squared norm of its error. The offset is the sample mean's error.
    """
    scale = 100.0 / np.linalg.norm(reference)
    center = thetas.mean(axis=0)
    dev = (thetas - center).reshape(len(thetas), -1) * scale
    err = (thetas - reference).reshape(len(thetas), -1) * scale
    squares = np.einsum("tk,tk->t", dev, dev), np.einsum("tk,tk->t", err, err)
    return np.column_stack([dev, *squares]), (center - reference).ravel() * scale


def _weighted_stats(weights: np.ndarray, table: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Bias, std and rmse in percent under each row of weights, as a (3, rows) array.

    weights is a (rows, T) block whose rows each sum to 1; table and offset
    are _trial_table's. bias is the distance from the weighted mean estimate
    to the reference, std the quadratic mean distance to that mean and rmse
    the quadratic mean distance to the reference, so bias^2 + std^2 = rmse^2.
    Every reduction is an einsum without optimize, which calls no BLAS, so a
    row's bits depend neither on the BLAS threads nor on the rows beside it.
    """
    means = np.einsum("bt,tk->bk", weights, table)
    dev_means, bias_vec = means[:, :-2], means[:, :-2] + offset
    var = means[:, -2] - np.einsum("bk,bk->b", dev_means, dev_means)
    return np.sqrt([np.einsum("bk,bk->b", bias_vec, bias_vec), np.maximum(var, 0.0), means[:, -1]])


#: Successful trials needed for the statistics and bootstrap SEs, and for the KDE.
_MIN_TRIALS = 2
_KDE_MIN_TRIALS = 10
#: Points on each KDE curve's grid.
_KDE_GRID_POINTS = 256


def _successful(results: list[TrialResult], need: int) -> tuple[np.ndarray, np.ndarray]:
    """The IV and LS estimates of the successful trials, each stacked to (T, 6, 3)."""
    ok = [r.thetas for r in results if r.error is None]
    if len(ok) < need:
        first = next((f"; first failure: {r.error}" for r in results if r.error is not None), "")
        raise InsufficientDataError(
            f"need at least {need} successful trials, got {len(ok)}{first}"
        )
    return np.stack([t[0] for t in ok]), np.stack([t[1] for t in ok])


def summarize(
    results: list[TrialResult],
    reference: np.ndarray,
    reference_kind: str = "ground_truth",
) -> SummaryStats:
    """Normalized bias/std/rmse (percent) over the successful trials."""
    iv, ls = _successful(results, _MIN_TRIALS)
    uniform = np.full((1, len(iv)), 1.0 / len(iv))
    iv_stats, ls_stats = (_weighted_stats(uniform, *_trial_table(t, reference)) for t in (iv, ls))
    return SummaryStats(
        iv=MethodStats(*iv_stats[:, 0].tolist()),
        ls=MethodStats(*ls_stats[:, 0].tolist()),
        reference=reference_kind,
        n_trials=len(iv),
        n_failed=len(results) - len(iv),
    )


#: Bootstrap resamples B.
_BOOTSTRAP_RESAMPLES = 1000
#: (row, trial) entries in the summary stage's one block: the bootstrap's
#: resample weights and the KDE's kernel are formed max(1, this // T) rows
#: at a time, so the block takes about 0.25 MB whatever the trial count T.
#: It sets memory only: no output's bits depend on it.
_SUMMARY_BLOCK_ENTRIES = 32_768


def bootstrap_se(
    results: list[TrialResult],
    reference: np.ndarray,
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Nonparametric bootstrap standard errors for the three statistics.

    The B = _BOOTSTRAP_RESAMPLES resamples are reduced in blocks of rows
    (see _SUMMARY_BLOCK_ENTRIES), whose weights are filled one resample at
    a time into one (rows, T) buffer; the draws are those of one (B, T)
    call, since the generator's stream does not depend on how it is split.
    Each resample's bias, std and rmse, from summarize's _weighted_stats, go
    into a (3, B) array per estimator, and the SEs are taken from those.
    """
    B = _BOOTSTRAP_RESAMPLES
    iv, ls = _successful(results, _MIN_TRIALS)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB5]))
    T = len(iv)
    tables = {"iv": _trial_table(iv, reference), "ls": _trial_table(ls, reference)}
    resampled = {name: np.empty((3, B)) for name in tables}  # bias, std, rmse
    rows = max(1, _SUMMARY_BLOCK_ENTRIES // T)
    buffer = np.empty((min(rows, B), T))
    for b0 in range(0, B, rows):
        b1 = min(b0 + rows, B)
        weights = buffer[: b1 - b0]
        # resample b as weights: weights[b, t] = (times trial t was drawn) / T
        for row in weights:
            np.divide(np.bincount(rng.integers(0, T, size=T), minlength=T), T, out=row)
        for name, table in tables.items():
            resampled[name][:, b0:b1] = _weighted_stats(weights, *table)
    return {
        name: {
            key: float(stat.std(ddof=1))
            for key, stat in zip(("bias_se", "std_se", "rmse_se"), stats)
        }
        for name, stats in resampled.items()
    }


def kde_export(
    results: list[TrialResult],
    reference: np.ndarray,
) -> list[tuple]:
    """Gaussian kernel density per parameter entry and estimator.

    Bandwidth follows the normal-reference rule 1.06 * sd * T^(-1/5); the
    grid spans the sample mean +/- 4 sd. Degenerate (constant) samples get a
    single narrow peak at their value. Returns one curve per entry and
    estimator: (entry_row, entry_col, estimator, grid, density, sample_mean,
    reference_value), with the grid and the density as arrays. Each curve's
    kernel is formed for blocks of grid points in one reused buffer of
    about 0.25 MB (see _SUMMARY_BLOCK_ENTRIES); a grid point's density is the
    same sum whatever its block.
    """
    iv, ls = _successful(results, _KDE_MIN_TRIALS)
    curves: list[tuple] = []
    T = len(iv)
    rows = max(1, _SUMMARY_BLOCK_ENTRIES // T)
    buffer = np.empty((min(rows, _KDE_GRID_POINTS), T))
    for name, thetas in (("iv", iv), ("ls", ls)):
        for r_i in range(reference.shape[0]):
            for c_i in range(reference.shape[1]):
                samples = thetas[:, r_i, c_i]
                mean = float(samples.mean())
                sd = float(samples.std())
                scale = max(sd, max(abs(mean), 1.0) * 1e-9)
                bw = 1.06 * scale * T ** (-0.2)
                grid = np.linspace(mean - 4 * scale, mean + 4 * scale, _KDE_GRID_POINTS)
                dens = np.empty(_KDE_GRID_POINTS)
                for g0 in range(0, _KDE_GRID_POINTS, rows):
                    g1 = min(g0 + rows, _KDE_GRID_POINTS)
                    # exp(-0.5 * ((grid - samples) / bw) ** 2), in the one reused buffer
                    kernel = buffer[: g1 - g0]
                    np.subtract.outer(grid[g0:g1], samples, out=kernel)
                    kernel /= bw
                    kernel *= kernel
                    kernel *= -0.5
                    dens[g0:g1] = np.exp(kernel, out=kernel).sum(axis=1)
                dens /= T * bw * math.sqrt(2 * math.pi)
                curves.append((r_i, c_i, name, grid, dens, mean, float(reference[r_i, c_i])))
    return curves


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write a header and rows as CSV, floats as .17g and other cells as str() gives them.

    .17g reads back to the same float, so every output round-trips exactly.
    """
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)


def json_text(data) -> str:
    """data as indented JSON with sorted keys and a closing newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_trials_csv(path: Path, results: list[TrialResult]) -> None:
    header = ["trial_index", "estimator"]
    header += [f"theta_{r}_{c}" for r in range(6) for c in range(3)]
    header += ["sigma_min_zx", "clipped_directions"]
    rows = (
        [res.trial_index, name, *theta.ravel().tolist(), res.sigma_min_zx, res.clipped_directions]
        for res in results
        if res.error is None
        for name, theta in zip(("iv", "ls"), res.thetas)
    )
    write_csv(path, header, rows)


def write_kde_csv(path: Path, curves: list[tuple]) -> None:
    fields = [
        "entry_row",
        "entry_col",
        "estimator",
        "grid_value",
        "density",
        "sample_mean",
        "reference_value",
    ]
    # one row per grid point of each curve, made as it is written
    rows = (
        (r_i, c_i, name, g, d, mean, ref)
        for r_i, c_i, name, grid, dens, mean, ref in curves
        for g, d in zip(grid.tolist(), dens.tolist())
    )
    write_csv(path, fields, rows)


def summary_dict(
    config: ExperimentConfig,
    shared: SharedArtifacts,
    results: list[TrialResult],
    stats: SummaryStats,
    ses: dict[str, dict[str, float]],
) -> dict:
    """summary.json's content; ses is bootstrap_se's, merged into each estimator's stats."""
    ok = [r for r in results if r.error is None]
    ideal = ideal_window(config.h, shared.p_used)
    excitation = {
        "min_sigma_min_zx": min((r.sigma_min_zx for r in ok), default=None),
        "all_satisfied": all(r.satisfied for r in ok),
        "trials_with_clipping": sum(1 for r in ok if r.clipped_directions > 0),
    }
    config_dict = asdict(config)
    config_dict["x0"] = list(config.x0)  # JSON round-trips tuples as lists
    return {
        "config": config_dict,
        "p_requested": config.p,
        "p_used": shared.p_used,
        "reference": shared.reference_kind,
        "reference_norm": float(np.linalg.norm(shared.reference)),
        "n_windows": ok[0].n_windows if ok else 0,
        "ideal_window": ideal,
        "window_vs_ideal": config.N / ideal,
        "stats": {name: {**asdict(getattr(stats, name)), **ses[name]} for name in ("iv", "ls")},
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
) -> dict:
    """Full benchmark: trials, statistics, bootstrap SEs, CSV/JSON outputs.

    Writes trials.csv, summary.json and kde.csv (given at least
    _KDE_MIN_TRIALS successes) into out_dir and returns the summary dict.
    config.h must be below 1, for summary.json's ideal window; that is
    checked before anything runs. out_dir is created only once every output
    is computed, so a failed run leaves no directory behind.
    """
    if not config.h < 1:
        raise ValueError(f"benchmark needs h < 1 for summary.json's ideal window, got {config.h}")
    shared = prepare_shared(config)
    results = run_monte_carlo(config, workers=workers, shared=shared)
    stats = summarize(results, shared.reference, shared.reference_kind)
    ses = bootstrap_se(results, shared.reference, seed=config.master_seed)
    summary = summary_dict(config, shared, results, stats, ses)
    curves = kde_export(results, shared.reference) if stats.n_trials >= _KDE_MIN_TRIALS else None

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trials_csv(out / "trials.csv", results)
    (out / "summary.json").write_text(json_text(summary))
    if curves is not None:
        write_kde_csv(out / "kde.csv", curves)
    return summary


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
