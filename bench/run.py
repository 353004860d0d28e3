"""Benchmark of the ivsysid package: three workloads, checked outputs, a traced run.

Run from the root of a checkout (the package is imported from ./src):

    python3 bench/run.py --workload discrete-full --seed 1 --seconds 10 --trace 0

It prints each end-to-end metric with its unit and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 1 the workload runs again with spans around every
layer, and the metrics are the per-layer figures. bench/README.md describes
the workloads, metrics and reference figures.
"""

import os

# One BLAS thread per process: the workloads' worker threads are the only
# parallelism, so two workers on two cores do not contend with BLAS threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

# The published geometry (manifests/*.json): n = 1e5, N = 100, p = 75.
PUBLISHED = {
    "h": 1e-3, "N": 100, "p": 75, "lam": 1.0, "mu": 200.0, "stride": 1,
    "substeps": 10, "forcing_freq": 1.0, "x0": [-8.0, 8.0, 27.0],
}

# trials: the Monte Carlo run whose whole pipeline (run_experiment) is timed.
# round_trials: further run_monte_carlo rounds, run only until the operation
# stage has lasted --seconds. tol_pct: largest IV error a whole file may give.
WORKLOADS = {
    "discrete-full": {
        "config": {**PUBLISHED, "mode": "discrete", "n": 100_000, "eta": 1.0, "trials": 240},
        "workers": 2,
        "round_trials": 20,
    },
    "many-short": {
        "config": {**PUBLISHED, "mode": "continuous", "n": 4000, "eta": 0.1, "trials": 2000},
        "workers": 1,
        "round_trials": 200,
    },
    "estimate-csv": {
        "files": {"n": 100_000, "eta": 0.1, "trajectories": 4, "draws": 7, "cut_steps": 500},
        "tol_pct": 3.0,
    },
}

# --tiny: the same code paths at sizes that run in seconds (bench/selfcheck.py)
TINY = {
    "discrete-full": {"config": {"n": 10_000, "trials": 12}, "round_trials": 4},
    "many-short": {"config": {"trials": 200}, "round_trials": 50},
    "estimate-csv": {"files": {"n": 20_000, "trajectories": 1, "draws": 2}, "tol_pct": 4.0},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "iv_rmse_pct": "%",
    "bias_ratio": "ratio",
}


def workload_spec(name: str, tiny: bool) -> dict:
    spec = {k: (dict(v) if isinstance(v, dict) else v) for k, v in WORKLOADS[name].items()}
    if tiny:
        for key, value in TINY[name].items():
            if isinstance(value, dict):
                spec[key].update(value)
            else:
                spec[key] = value
    return spec


def import_program() -> dict:
    """Import the package from ./src and return its modules by short name."""
    import ivsysid.cli
    import ivsysid.dynamics
    import ivsysid.harness
    import ivsysid.splitfilters

    modules = {
        name: sys.modules[f"ivsysid.{name}"]
        for name in ("cli", "dynamics", "harness", "splitfilters")
    }
    if not Path(modules["harness"].__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: ivsysid was imported from {modules['harness'].__file__}, not {SRC}")
    return modules


def _run_child(argv: list[str], timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def setup_probe(spec: dict, seed: int) -> float:
    """Import the package and prepare the shared artifacts, as a fresh process."""
    start = time.perf_counter()
    harness = import_program()["harness"]
    if "config" in spec:
        harness.prepare_shared(harness.config_from_dict({**spec["config"], "master_seed": seed}))
    return time.perf_counter() - start


def prepare_inputs(spec: dict, seed: int, tiny: bool) -> Path | None:
    """Generate (or reuse) this seed's estimate-csv files; keep no other seed's."""
    if "files" not in spec:
        return None
    root = OUT / "inputs"
    target = root / f"estimate-csv-s{seed}{'-tiny' if tiny else ''}"
    if (target / "manifest.json").is_file():
        return target
    if root.is_dir():
        for old in root.iterdir():
            shutil.rmtree(old)
    files = spec["files"]
    argv = [str(BENCH / "inputs.py"), "--seed", str(seed), "--out", str(target)]
    for key in ("n", "eta", "trajectories", "draws", "cut_steps"):
        argv += [f"--{key.replace('_', '-')}", str(files[key])]
    _run_child(argv, timeout=170)
    return target


class Run:
    """What one in-process execution of a workload measured and found."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.details: dict = {}


def monte_carlo(modules, tracer, captured, spec, seed, seconds, out_dir, import_s) -> Run:
    import checks
    import numpy as np
    import spans
    from inputs import true_theta

    harness = modules["harness"]
    run = Run()
    config = harness.config_from_dict({**spec["config"], "master_seed": seed})
    if out_dir.exists():
        shutil.rmtree(out_dir)

    start = time.perf_counter()
    summary = harness.run_experiment(config, out_dir, workers=spec["workers"])
    run.metrics["wall_s"] = import_s + time.perf_counter() - start
    run.metrics["setup_s"] = import_s + tracer.durations("harness.prepare_shared")[0]
    run.attempted = config.trials
    run.failed = summary["trials"]["failed"]

    shared = captured["shared"]
    rounds = 0
    while sum(tracer.durations("harness.run_monte_carlo")) < seconds:
        rounds += 1
        extra = replace(config, trials=spec["round_trials"], master_seed=(seed << 16) + rounds)
        results = harness.run_monte_carlo(extra, workers=spec["workers"], shared=shared)
        run.attempted += len(results)
        run.failed += sum(r.error is not None for r in results)
    run.metrics["ops_per_s"] = run.attempted / sum(tracer.durations("harness.run_monte_carlo"))
    run.metrics["peak_rss_mb"] = spans.maxrss_mb()

    truth = np.asarray(true_theta())
    recomputed = checks.check_monte_carlo(
        out_dir, summary, shared.reference, truth, config.h, run.problems
    )
    run.metrics["iv_rmse_pct"] = recomputed["iv"]["rmse_pct"]
    run.metrics["bias_ratio"] = checks.bias_ratio(
        recomputed["iv"], recomputed["ls"], summary["trials"]["succeeded"]
    )
    run.details = {
        "stats": recomputed, "raw_iv_bias_pct": recomputed["iv"]["bias_pct"],
        "extra_rounds": rounds,
    }
    return run


def _estimate(cli, path: Path) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of one `estimate` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["estimate", "--mode", "continuous", "--input", str(path)])
    return rc, out.getvalue(), err.getvalue()


def estimate_csv(modules, tracer, spec, seconds, input_dir, import_s) -> Run:
    import checks
    import numpy as np
    import spans

    cli = modules["cli"]
    run = Run()
    manifest = json.loads((input_dir / "manifest.json").read_text())
    truth = np.asarray(manifest["theta"])
    files = manifest["files"]

    rounds: list[tuple[float, list]] = []
    stage_start = time.perf_counter()
    while not rounds or time.perf_counter() - stage_start < seconds:
        round_start = time.perf_counter()
        outcomes = [_estimate(cli, input_dir / f["file"]) for f in files]
        rounds.append((time.perf_counter() - round_start, outcomes))
    stage_s = time.perf_counter() - stage_start
    run.metrics["setup_s"] = import_s
    run.metrics["wall_s"] = import_s + rounds[0][0]
    run.metrics["ops_per_s"] = len(files) * len(rounds) / stage_s
    run.metrics["peak_rss_mb"] = spans.maxrss_mb()

    per_file, thetas = [], {"iv": [], "ls": []}
    for f, (rc, out, err) in zip(files, rounds[0][1]):
        entry = {"file": f["file"], "t0": f["t0"], "whole": f["whole"], "rc": rc}
        if rc == 0:
            result = json.loads(out)
            entry.update(checks.file_errors(result, truth))
            entry["ok"] = entry["iv"] <= spec["tol_pct"] and entry["iv"] < entry["ls"]
            if f["whole"]:
                for name in thetas:
                    thetas[name].append(result[name]["theta"])
        else:
            entry.update(ok=False, error=err.strip())
        if f["whole"] and not entry["ok"]:
            run.problems.append(f"{f['file']} (starts at t={f['t0']}) failed: {entry}")
        per_file.append(entry)
    # Estimates must not depend on what ran before in the process. A round
    # takes longer than --seconds today, so besides comparing any further
    # rounds with the first, estimate the first whole and the first cut file
    # once more: untimed, untraced and not counted as operations. Standard
    # error is left out: Python prints a given warning only once.
    repeats = [(i, outcomes[i]) for _, outcomes in rounds[1:] for i in range(len(files))]
    tracer.recording = False
    for want in (True, False):
        i = next((i for i, f in enumerate(files) if f["whole"] is want), None)
        if i is not None:
            repeats.append((i, _estimate(cli, input_dir / files[i]["file"])))
    tracer.recording = True
    for i, (rc, out, _) in repeats:
        if (rc, out) != rounds[0][1][i][:2]:
            run.problems.append(f"{files[i]['file']} gave a different estimate when repeated")
    run.attempted = len(files) * len(rounds)
    run.failed = len(rounds) * sum(not e["ok"] for e in per_file)

    if len(thetas["iv"]) < 2:
        sys.exit("error: fewer than two whole files gave an estimate:\n" + "\n".join(run.problems))
    iv, ls = (checks.stats(np.asarray(thetas[name]), truth) for name in ("iv", "ls"))
    run.metrics["iv_rmse_pct"] = iv["rmse_pct"]
    run.metrics["bias_ratio"] = checks.bias_ratio(iv, ls, len(thetas["iv"]))
    run.details.update(
        stats={"iv": iv, "ls": ls}, raw_iv_bias_pct=iv["bias_pct"],
        files=per_file, rounds=len(rounds),
    )
    return run


def execute(name: str, spec: dict, seed: int, seconds: float, input_dir, trace: bool):
    """Run the workload in this process; return (Run, Tracer)."""
    start = time.perf_counter()
    modules = import_program()
    import_s = time.perf_counter() - start

    import spans

    harness = modules["harness"]
    tracer = spans.Tracer()
    prepare, captured = harness.prepare_shared, {}

    def prepare_and_keep(config):
        captured["shared"] = prepare(config)
        return captured["shared"]

    harness.prepare_shared = prepare_and_keep
    if trace:
        spans.instrument(tracer, modules)
    else:
        # stage timers only: set-up and the operation stage
        tracer.wrap(harness, "prepare_shared", "harness.prepare_shared")
        tracer.wrap(harness, "run_monte_carlo", "harness.run_monte_carlo")

    if "config" in spec:
        out_dir = OUT / "runs" / f"{name}-s{seed}{'-traced' if trace else ''}"
        run = monte_carlo(modules, tracer, captured, spec, seed, seconds, out_dir, import_s)
    else:
        run = estimate_csv(modules, tracer, spec, seconds, input_dir, import_s)
    return run, tracer


def report(name: str, seed: int, trace: bool, run: Run, metrics: dict, units: dict) -> None:
    correct = not run.problems
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {
        "workload": name, "seed": seed, "trace": trace, "correct": correct,
        "attempted": run.attempted, "failed": run.failed, "metrics": metrics,
        "problems": run.problems, **run.details,
    }
    path = results / f"{name}-s{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(detail, indent=1, default=float) + "\n")

    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"workload {name}, seed {seed}, trace {int(trace)}")
    for key, value in metrics.items():
        print(f"  {key:<34} {value:14.6g} {units[key]}")
    print(f"  operations attempted {run.attempted}, failed {run.failed}, correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True, help="length of the operation stage"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-check sizes")
    parser.add_argument(
        "--probes", type=int, default=4,
        help="extra set-up samples, each in a fresh process, half before the workload",
    )
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "ivsysid" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'ivsysid'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    spec = workload_spec(args.workload, args.tiny)
    if args.probe:
        print(json.dumps({"setup_s": setup_probe(spec, args.seed)}))
        return

    input_dir = prepare_inputs(spec, args.seed, args.tiny)
    common = [
        str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ] + (["--tiny"] if args.tiny else [])

    if args.trace:
        untraced = _run_child(common + ["--trace", "0", "--probes", "0"], timeout=170)
        baseline = json.loads(untraced.strip().splitlines()[-1])
        run, tracer = execute(args.workload, spec, args.seed, args.seconds, input_dir, True)
        if not baseline["correct"]:
            run.problems.append("the untraced run failed its checks")
        import spans

        overhead = run.metrics["wall_s"] - baseline["metrics"]["wall_s"]["value"]
        tracer.write(OUT / "traces" / f"{args.workload}-s{args.seed}.json")
        metrics = spans.layer_metrics(
            tracer, spec.get("workers", 1), overhead, run.details["raw_iv_bias_pct"]
        )
        report(args.workload, args.seed, True, run, metrics, spans.LAYER_UNITS)
        return

    def probe() -> float:
        return json.loads(_run_child(common + ["--probe"], timeout=170))["setup_s"]

    # set-up samples before and after the workload's own, so that they span
    # the run rather than one moment of it
    samples = [probe() for _ in range(args.probes // 2)]
    run, _ = execute(args.workload, spec, args.seed, args.seconds, input_dir, False)
    samples.append(run.metrics["setup_s"])
    samples += [probe() for _ in range(args.probes - args.probes // 2)]
    run.metrics["setup_s"] = statistics.median(samples)
    run.details["setup_samples"] = samples
    metrics = {key: run.metrics[key] for key in END_TO_END_UNITS}
    report(args.workload, args.seed, False, run, metrics, END_TO_END_UNITS)


if __name__ == "__main__":
    main()
