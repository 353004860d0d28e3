"""Command line interface.

Subcommands: simulate (trajectory/measurement CSV), filters (stencil CSV),
estimate (one dataset to estimate JSON), benchmark (full Monte Carlo run),
bounds (error-bound values as JSON). Results print to stdout as JSON; errors
print to stderr as JSON with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .bounds import GammaParams, corollary_rate, gamma, ideal_window, mc_check_gamma
# Nothing here reads feature_map, assemble_design or the estimators; they stay
# bound because bench/spans.py wraps them on this module (ROADMAP item 1).
from .dynamics import feature_map, forcing, integrate
from .estimator import excitation_check, iv_estimate, ls_estimate
from .harness import (
    ExperimentConfig,
    config_from_dict,
    estimate_series,
    json_text,
    keep_block_memory,
    run_experiment,
    trial_record,
    write_csv,
)
from .polyfilter import FilterSpec, build_filter
from .splitfilters import assemble_design, build_split_bank, window_times


class CliError(ValueError):
    """Bad invocation or bad input data."""


class _Parser(argparse.ArgumentParser):
    # argparse's default error() exits with usage text; we want error JSON
    def error(self, message):
        raise CliError(message)


#: The config fields `simulate` reads: it integrates and draws trial 0's noise.
_SIMULATE_FIELDS = ("mode", "n", "h", "eta", "master_seed", "substeps", "forcing_freq", "x0")
#: The config fields `estimate` reads: the file gives h and the rows, and it
#: draws no noise and runs no trials.
_ESTIMATE_FIELDS = ("mode", "N", "p", "lam", "mu", "stride", "forcing_freq")


def _add_config_flags(sub: argparse.ArgumentParser, fields: tuple[str, ...]) -> None:
    sub.set_defaults(fields=fields)  # the config fields the command reads
    sub.add_argument("--config", help="JSON manifest with experiment fields")
    sub.add_argument("--mode", choices=["continuous", "discrete"], help="model class")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override a config field; VALUE parses as JSON, else as a string (repeatable)",
    )


def _resolve_config(args) -> ExperimentConfig:
    # one dict, built once: a default that depends on a field (eta on mode) sees its final value
    if args.config and args.mode:
        raise CliError("pass either --config or --mode, not both")
    if args.config:
        with Path(args.config).open() as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CliError(f"{args.config} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise CliError(f"{args.config} must hold a JSON object of config fields")
    elif args.mode:
        raw = {"mode": args.mode}
    else:
        raise CliError("either --config or --mode is required")
    if getattr(args, "trials", None) is not None:
        raw["trials"] = args.trials
    if getattr(args, "seed", None) is not None:
        raw["master_seed"] = args.seed
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise CliError(f"override {item!r} is not of the form key=value")
        if key in ExperimentConfig.__dataclass_fields__ and key not in args.fields:
            fields = ", ".join(args.fields)
            raise CliError(f"{args.command} does not read --set {key}; it takes only {fields}")
        try:
            raw[key] = json.loads(value)
        except json.JSONDecodeError:
            raw[key] = value
    return config_from_dict(raw)


def _cmd_simulate(args) -> dict:
    cfg = _resolve_config(args)
    states = integrate(cfg.x0, cfg.h, cfg.n, cfg.substeps, cfg.forcing_freq)
    header = ["t", "x1", "x2", "x3"]
    columns = [np.arange(1, cfg.n + 1) * cfg.h, *states.T]  # row i at t = (i + 1) h
    if cfg.eta > 0:
        # trial 0's record, as the benchmark's first trial measures it
        noisy = np.empty_like(states)
        trial_record(cfg, 0, states).open()(0, cfg.n, noisy)
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


def _read_measurements(fh, usecols: list[int], rows: int) -> np.ndarray:
    """Parse up to `rows` more rows of an open CSV: (k, len(usecols)) floats, k <= rows."""
    with warnings.catch_warnings():
        # the notices that skipped lines do not count towards max_rows, and
        # that a read at the end of the file found no rows
        warnings.filterwarnings("ignore", "Input line", UserWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(fh, delimiter=",", usecols=usecols, ndmin=2, max_rows=rows)


class _CsvRecord:
    """A measurement CSV as a record for assemble_design, parsed block by block.

    columns counts the measured columns. Each pass that open() starts parses
    the rows as the design reads them, so a pass holds one block, not the
    file, and copies the parsed block into the walk's buffer; the file ends
    at the first read that parses fewer rows than it asks for. Every block
    is checked: values finite, and each time step, the one from the block
    before included, equal to the first step to a relative 1e-9. The first
    2 rows, which give t0 and h, are parsed and checked here. A pass's first
    read parses and checks a whole block, so the faults of a file shorter
    than one window are reported before its length.
    """

    def __init__(self, path: str):
        self.path = path
        # utf-8-sig drops a leading byte-order mark; header names may be padded
        with open(path, newline="", encoding="utf-8-sig") as fh:
            self.fields = fields = [name.strip() for name in fh.readline().split(",")]
            if "t" not in fields:
                raise CliError(f"{path} has no 't' column (found {fields})")
            if all(c in fields for c in ("z1", "z2", "z3")):
                self.names = ("t", "z1", "z2", "z3")
            elif all(c in fields for c in ("x1", "x2", "x3")):
                self.names = ("t", "x1", "x2", "x3")
            else:
                raise CliError(f"{path} needs columns z1..z3 or x1..x3 (found {fields})")
            self.usecols = [fields.index(c) for c in self.names]
            first = self._parse(fh, 0, 2)
        if len(first) < 2:
            raise CliError(f"{path} has {len(first)} data rows; need at least 2")
        self.columns = len(self.names) - 1
        self.t0, self.h = float(first[0, 0]), float(first[1, 0] - first[0, 0])
        self._check(first, 0, None)

    def open(self):
        """Start a pass; it closes the file at its short read or at a fault."""
        fh = open(self.path, newline="", encoding="utf-8-sig")
        fh.readline()
        before = None  # the time of the row before the next read

        def read(a: int, b: int, out: np.ndarray) -> int:
            nonlocal before
            try:
                block = self._parse(fh, a, b - a)
                if len(block):
                    self._check(block, a, before)
                    before = block[-1, 0]
            except BaseException:
                fh.close()
                raise
            if len(block) < b - a:
                fh.close()
            out[: len(block)] = block[:, 1:]
            return len(block)

        return read

    def _parse(self, fh, first: int, rows: int) -> np.ndarray:
        """Up to `rows` rows from data row first + 1 on; a fault names its data row and column."""
        try:
            return _read_measurements(fh, self.usecols, rows)
        except ValueError as exc:
            text = str(exc)
            # np.loadtxt counts the rows of this call from 0 and the file's columns from 1 here,
            if place := re.search(r" at row (\d+), column (\d+)\.$", text):
                row, col, cause = int(place[1]) + 1, int(place[2]) - 1, text[: place.start()]
            # and the rows from 1 and the file's columns from 0 here
            elif place := re.fullmatch(
                r"invalid column index (\d+) at row (\d+) with (\d+) columns", text
            ):
                row, col = int(place[2]), int(place[1])
                cause = f"a short row ({place[3]} of {len(self.fields)} fields) has no value"
            else:
                raise CliError(
                    f"{self.path}: {exc} (in data rows {first + 1} to {first + rows})"
                ) from exc
            raise CliError(
                f"{self.path}: {cause} in column {self.fields[col]!r} at data row {first + row}"
            ) from exc

    def _check(self, block: np.ndarray, first: int, before: float | None) -> None:
        """Raise at the first fault of data rows first + 1 .. first + len(block)."""
        if not np.isfinite(block).all():
            row, col = np.argwhere(~np.isfinite(block))[0]
            raise CliError(
                f"{self.path}: column {self.names[col]!r} has a non-finite value "
                f"({block[row, col]}) at data row {first + row + 1}"
            )
        t, h = block[:, 0], self.h
        tol = 1e-9 * abs(h)
        steps = np.diff(t)
        steps -= h
        np.abs(steps, out=steps)  # np.allclose(steps, h, rtol=1e-9, atol=0), in place
        if not 0 < h < np.inf:
            bad = 1
        elif before is not None and not abs(t[0] - before - h) <= tol:
            bad = 0
        elif len(steps) and not steps.max() <= tol:
            bad = int(np.argmax(steps > tol)) + 1
        else:
            return
        step = t[bad] - (t[bad - 1] if bad else before)
        raise CliError(
            f"{self.path}: time column 't' is not a uniform positive grid: the step to "
            f"data row {first + bad + 1} is {step!r}, the first step {h!r}"
        )


def _cmd_estimate(args) -> dict:
    cfg = _resolve_config(args)
    keep_block_memory()
    record = _CsvRecord(args.input)
    # the file is authoritative for the step; its rows end where it does
    cfg = replace(cfg, h=record.h)
    bank = build_split_bank(cfg.mode, cfg.N, cfg.h, cfg.p)
    drive = lambda w: forcing(window_times(bank, w, record.t0), cfg.forcing_freq)  # noqa: E731
    result = asdict(estimate_series(record, cfg, bank, drive))
    for name in ("iv", "ls"):
        result[name]["theta"] = result[name]["theta"].tolist()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "estimate.json"
        path.write_text(json_text(result))
        result["written"] = [str(path)]
    return result


def _cmd_benchmark(args) -> dict:
    import os

    # the pool starts up to min(workers, trials) threads, each with its block buffers
    cpus = os.cpu_count() or 1
    if args.workers < 1:
        raise CliError(f"--workers must be >= 1, got {args.workers}")
    if args.workers > 4 * cpus:
        raise CliError(
            f"--workers must be <= {4 * cpus}, 4 per CPU on {cpus} CPUs, got {args.workers}"
        )
    cfg = _resolve_config(args)
    return run_experiment(cfg, args.out, workers=args.workers)


def _cmd_bounds(args) -> dict:
    gamma_flags = (args.r, args.a, args.b, args.K)
    rate_flags = (args.n, args.h, args.p, args.d)
    result: dict = {}
    for flag, value in (("--mc-trials", args.mc_trials), ("--seed", args.seed)):
        if value is not None and any(v is None for v in gamma_flags):
            raise CliError(f"{flag} needs the moment bound: pass all of --r --a --b --K")
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
        if args.mc_trials is not None:
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
    _add_config_flags(sim, _SIMULATE_FIELDS)
    sim.add_argument("--seed", type=int, help="override master seed (trial 0's noise)")
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
    _add_config_flags(est, _ESTIMATE_FIELDS)
    est.add_argument("--input", required=True, help="CSV with t and z1..z3 (or x1..x3) columns")
    est.add_argument("--out", help="optional output directory for estimate.json")
    est.set_defaults(func=_cmd_estimate)

    bench = subs.add_parser("benchmark", help="run the Monte Carlo benchmark")
    _add_config_flags(bench, tuple(ExperimentConfig.__dataclass_fields__))
    bench.add_argument("--trials", type=int, help="override trial count")
    bench.add_argument("--seed", type=int, help="override master seed")
    bench.add_argument("--out", required=True, help="output directory")
    bench.add_argument("--workers", type=int, default=1, help="threads, <= 4 per CPU (default 1)")
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
    sys.stdout.write(json_text(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
