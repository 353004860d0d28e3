"""Command line interface.

Subcommands: simulate (trajectory/measurement CSV), filters (stencil CSV),
estimate (one dataset to estimate JSON), benchmark (full Monte Carlo run),
bounds (error-bound values as JSON). Results print to stdout as JSON; errors
print to stderr as JSON with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .bounds import GammaParams, corollary_rate, gamma, ideal_window, mc_check_gamma
# Nothing here reads feature_map, assemble_design or the estimators; they stay
# bound because bench/spans.py wraps them on this module (ROADMAP item 1).
from .dynamics import add_noise, feature_map, integrate
from .estimator import excitation_check, iv_estimate, ls_estimate
from .harness import (
    ExperimentConfig,
    apply_overrides,
    estimate_series,
    load_config,
    run_experiment,
    trial_seed,
    write_csv,
)
from .polyfilter import FilterSpec, build_filter
from .splitfilters import assemble_design, build_split_bank


class CliError(ValueError):
    """Bad invocation or bad input data."""


class _Parser(argparse.ArgumentParser):
    # argparse's default error() exits with usage text; we want error JSON
    def error(self, message):
        raise CliError(message)


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON manifest with experiment fields")
    sub.add_argument("--mode", choices=["continuous", "discrete"], help="model class")
    sub.add_argument("--trials", type=int, help="override trial count")
    sub.add_argument("--seed", type=int, help="override master seed")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override any config field (repeatable)",
    )


def _resolve_config(args) -> ExperimentConfig:
    if args.config and args.mode:
        raise CliError("pass either --config or --mode, not both")
    if args.config:
        cfg = load_config(args.config)
    elif args.mode:
        cfg = ExperimentConfig(mode=args.mode)
    else:
        raise CliError("either --config or --mode is required")
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    return apply_overrides(cfg, args.overrides)


def _cmd_simulate(args) -> dict:
    cfg = _resolve_config(args)
    traj = integrate(cfg.x0, cfg.h, cfg.n, cfg.substeps, cfg.forcing_freq)
    header = ["t", "x1", "x2", "x3"]
    columns = [traj.times, *traj.states.T]
    if cfg.eta > 0:
        noisy = add_noise(traj, cfg.eta, trial_seed(cfg.master_seed, 0))
        header += ["z1", "z2", "z3"]
        columns += [*noisy.T]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "trajectory.csv"
    write_csv(path, header, zip(*columns))
    return {"written": [str(path)], "rows": cfg.n, "noisy": cfg.eta > 0}


def _cmd_filters(args) -> dict:
    spec = FilterSpec(
        window_size=args.N,
        step=args.h,
        location=args.location,
        derivative_order=args.derivative,
        exactness_degree=args.p,
        max_derivative=args.max_derivative,
    )
    weights = build_filter(spec)
    m = weights.coefficients.shape[0] - 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "stencil.csv"
    header = ["k"] + [f"weight_d{d}" for d in range(m + 1)]
    write_csv(path, header, zip(range(args.N), *weights.coefficients))
    return {
        "written": [str(path)],
        "window_size": args.N,
        "exactness_degree": args.p,
        "norms": {f"d{d}": float(np.linalg.norm(weights.coefficients[d])) for d in range(m + 1)},
    }


def _read_measurements(path: str) -> tuple[np.ndarray, np.ndarray]:
    # utf-8-sig drops a leading byte-order mark; header names may be padded
    with open(path, newline="", encoding="utf-8-sig") as fh:
        fields = [name.strip() for name in fh.readline().split(",")]
        if "t" not in fields:
            raise CliError(f"{path} has no 't' column (found {fields})")
        if all(c in fields for c in ("z1", "z2", "z3")):
            cols = ("t", "z1", "z2", "z3")
        elif all(c in fields for c in ("x1", "x2", "x3")):
            cols = ("t", "x1", "x2", "x3")
        else:
            raise CliError(f"{path} needs columns z1..z3 or x1..x3 (found {fields})")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a file without data rows is rejected below
                data = np.loadtxt(
                    fh, delimiter=",", usecols=[fields.index(c) for c in cols], ndmin=2
                )
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from exc
    if data.shape[0] < 2:
        raise CliError(f"{path} has {data.shape[0]} data rows; need at least 2")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise CliError(
            f"{path}: column {cols[col]!r} has a non-finite value "
            f"({data[row, col]}) at data row {row + 1}"
        )
    t = data[:, 0]
    steps = np.diff(t)
    h = float(steps[0])
    if h <= 0 or not np.allclose(steps, h, rtol=1e-9, atol=0):
        raise CliError(f"{path} time column is not a uniform positive grid")
    return t, data[:, 1:]


def _cmd_estimate(args) -> dict:
    cfg = _resolve_config(args)
    times, values = _read_measurements(args.input)
    # the file is authoritative for sample count and step
    cfg = replace(cfg, n=len(times), h=float(times[1] - times[0]))
    bank = build_split_bank(cfg.mode, cfg.N, cfg.h, cfg.p)
    result = asdict(estimate_series(values, cfg, bank, t0=float(times[0])))
    for name in ("iv", "ls"):
        result[name]["theta"] = result[name]["theta"].tolist()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "estimate.json"
        with path.open("w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        result["written"] = [str(path)]
    return result


def _cmd_benchmark(args) -> dict:
    if args.workers < 1:
        raise CliError(f"--workers must be >= 1, got {args.workers}")
    cfg = _resolve_config(args)
    return run_experiment(cfg, args.out, workers=args.workers)


def _cmd_bounds(args) -> dict:
    gamma_flags = (args.r, args.a, args.b, args.K)
    rate_flags = (args.n, args.h, args.p, args.d)
    result: dict = {}
    if any(v is not None for v in gamma_flags):
        if any(v is None for v in gamma_flags):
            raise CliError("the moment bound needs all of --r --a --b --K")
        params = GammaParams(r=args.r, a=args.a, b=args.b, K=args.K)
        value = gamma(params)
        result["gamma"] = {
            "head": value.head,
            "body": value.body,
            "tail": value.tail,
            "total": value.total,
        }
        if args.mc_trials:
            result["mc"] = mc_check_gamma(params, args.mc_trials, seed=args.seed or 0)
    if any(v is not None for v in rate_flags):
        if any(v is None for v in rate_flags):
            raise CliError("the rate evaluation needs all of --n --h --p --d")
        result["corollary_rate"] = corollary_rate(args.n, args.h, args.p, args.d)
        result["ideal_window"] = ideal_window(args.h, args.p)
    if not result:
        raise CliError("nothing to compute: pass --r/--a/--b/--K and/or --n/--h/--p/--d")
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ivsysid", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="integrate the benchmark system to CSV")
    _add_config_flags(sim)
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    filt = subs.add_parser("filters", help="dump a filter stencil to CSV")
    filt.add_argument("--N", type=int, required=True, help="window size (taps)")
    filt.add_argument("--h", type=float, required=True, help="sample step")
    filt.add_argument("--location", type=float, required=True, help="target location in steps")
    filt.add_argument("--p", type=int, required=True, help="polynomial exactness degree")
    filt.add_argument("--derivative", type=int, default=0, help="derivative order (default 0)")
    filt.add_argument("--max-derivative", type=int, default=None, help="highest row to emit")
    filt.add_argument("--out", required=True, help="output directory")
    filt.set_defaults(func=_cmd_filters)

    est = subs.add_parser("estimate", help="estimate parameters from one measurement CSV")
    _add_config_flags(est)
    est.add_argument("--input", required=True, help="CSV with t and z1..z3 (or x1..x3) columns")
    est.add_argument("--out", help="optional output directory for estimate.json")
    est.set_defaults(func=_cmd_estimate)

    bench = subs.add_parser("benchmark", help="run the Monte Carlo benchmark")
    _add_config_flags(bench)
    bench.add_argument("--out", required=True, help="output directory")
    bench.add_argument("--workers", type=int, default=1, help="thread count (default 1)")
    bench.set_defaults(func=_cmd_benchmark)

    bnd = subs.add_parser("bounds", help="evaluate moment bound and rate formulas")
    bnd.add_argument("--r", type=float, help="moment order")
    bnd.add_argument("--a", type=float, help="clipping floor")
    bnd.add_argument("--b", type=float, help="target level")
    bnd.add_argument("--K", type=float, help="noise scale")
    bnd.add_argument("--mc-trials", type=int, help="Monte Carlo check sample count")
    bnd.add_argument("--seed", type=int, help="Monte Carlo check seed")
    bnd.add_argument("--n", type=int, help="sample count for the rate")
    bnd.add_argument("--h", type=float, help="sample step for the rate")
    bnd.add_argument("--p", type=int, help="exactness degree for the rate")
    bnd.add_argument("--d", type=int, help="derivative order for the rate")
    bnd.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result = args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except Exception as exc:  # noqa: BLE001 - boundary: everything becomes error JSON
        json.dump(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
