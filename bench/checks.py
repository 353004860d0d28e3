"""Correctness checks on a workload's outputs, made with plain numpy.

Nothing here compares against a saved copy of earlier output: each check is
against the known Lorenz parameters, an identity the statistics must satisfy,
or a property of the method. Every check appends a message to `problems`
when it fails; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

#: relative agreement required between summary.json and a recomputation
REL_TOL = 1e-9
#: IV bias must be below this share of LS bias
BIAS_SHARE = 0.2
#: the discrete pseudo-true map, as a finite difference, against the truth
DISCRETE_CONSISTENCY_PCT = 3.0
#: a KDE density must integrate to 1 within this over its grid
KDE_MASS_TOL = 0.01


def stats(thetas: np.ndarray, reference: np.ndarray) -> dict[str, float]:
    """Bias, std and RMSE in percent of ||reference||, as the paper defines them."""
    scale = 100.0 / np.linalg.norm(reference)
    mean = thetas.mean(axis=0)
    return {
        "bias_pct": scale * np.linalg.norm(mean - reference),
        "std_pct": scale * math.sqrt(np.mean(np.sum((thetas - mean) ** 2, axis=(1, 2)))),
        "rmse_pct": scale * math.sqrt(np.mean(np.sum((thetas - reference) ** 2, axis=(1, 2)))),
    }


def bias_ratio(iv: dict, ls: dict, count: int) -> float:
    """LS bias over IV bias, with IV bias floored at its resolution.

    With `count` estimates the mean carries sampling error of RMS size
    std / sqrt(count); an IV bias below twice that is not resolved, so the
    floor stands in for it. The result is the bias reduction the estimates
    can certify.
    """
    floor = 2.0 * iv["std_pct"] / math.sqrt(count)
    return ls["bias_pct"] / max(iv["bias_pct"], floor)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-12)


def read_trials(path: Path) -> dict[str, np.ndarray]:
    thetas: dict[str, list] = {"iv": [], "ls": []}
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            thetas[row["estimator"]].append(
                [float(row[f"theta_{r}_{c}"]) for r in range(6) for c in range(3)]
            )
    return {k: np.asarray(v).reshape(-1, 6, 3) for k, v in thetas.items()}


def check_kde(path: Path, problems: list[str]) -> None:
    groups: dict[tuple, list[tuple[float, float]]] = {}
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["entry_row"], row["entry_col"], row["estimator"])
            groups.setdefault(key, []).append((float(row["grid_value"]), float(row["density"])))
    if len(groups) != 36:
        problems.append(f"kde.csv has {len(groups)} densities, expected 36")
    for key, points in groups.items():
        grid, dens = np.asarray(points).T
        mass = float(np.sum(np.diff(grid) * (dens[1:] + dens[:-1]) / 2.0))
        if abs(mass - 1.0) > KDE_MASS_TOL:
            problems.append(f"kde density {key} integrates to {mass:.4f}")


def check_monte_carlo(
    out_dir: Path,
    summary: dict,
    reference: np.ndarray,
    truth: np.ndarray,
    h: float,
    problems: list[str],
) -> dict[str, dict[str, float]]:
    """Check one run_experiment output directory; return recomputed stats."""
    thetas = read_trials(out_dir / "trials.csv")
    succeeded = summary["trials"]["succeeded"]
    for name in ("iv", "ls"):
        rows = thetas[name].shape[0]
        if rows != succeeded:
            problems.append(f"trials.csv has {rows} {name} rows, expected {succeeded}")
    recomputed = {name: stats(thetas[name], reference) for name in ("iv", "ls")}
    for name, mine in recomputed.items():
        theirs = summary["stats"][name]
        for key, value in mine.items():
            if not _close(value, theirs[key]):
                problems.append(f"summary {name}.{key} = {theirs[key]!r}, recomputed {value!r}")
        if not _close(theirs["bias_pct"] ** 2 + theirs["std_pct"] ** 2, theirs["rmse_pct"] ** 2):
            problems.append(f"summary {name}: bias^2 + std^2 != rmse^2")
    if not _close(summary["reference_norm"], float(np.linalg.norm(reference))):
        problems.append("summary reference_norm does not match the reference")
    check_kde(out_dir / "kde.csv", problems)

    if summary["reference"] == "ground_truth":
        if not np.allclose(reference, truth, rtol=0, atol=1e-12):
            problems.append("continuous reference differs from the known Lorenz parameters")
    else:
        # x_{k+1} = x_k + h f(x_k) + O(h^2): strip the identity, divide by h
        embed = np.zeros((6, 3))
        embed[1:4] = np.eye(3)
        drift = (reference - embed) / h
        err = 100.0 * np.linalg.norm(drift - truth) / np.linalg.norm(truth)
        if not err < DISCRETE_CONSISTENCY_PCT:
            problems.append(f"pseudo-true map is {err:.2f}% from the Lorenz parameters")
    iv, ls = recomputed["iv"], recomputed["ls"]
    if not iv["rmse_pct"] < ls["rmse_pct"]:
        problems.append(f"IV RMSE {iv['rmse_pct']:.4f}% is not below LS RMSE {ls['rmse_pct']:.4f}%")
    if not iv["bias_pct"] < BIAS_SHARE * ls["bias_pct"]:
        problems.append(
            f"IV bias {iv['bias_pct']:.4f}% is not well below LS bias {ls['bias_pct']:.4f}%"
        )
    return recomputed


def file_errors(result: dict, truth: np.ndarray) -> dict[str, float]:
    """IV and LS error of one `estimate` result, in percent of ||truth||."""
    norm = np.linalg.norm(truth)
    return {
        name: 100.0 * float(np.linalg.norm(np.asarray(result[name]["theta"]) - truth) / norm)
        for name in ("iv", "ls")
    }
