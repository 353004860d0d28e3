"""Fast self-check of the benchmark's own code: every workload, tiny sizes.

    python3 bench/selfcheck.py

Runs each workload untraced and traced at the --tiny sizes, checks the
result line against BENCHMARK.json (keys, metric names and units, the share
of failed operations), and checks that the benchmark fails without printing
a result when the package is missing. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import END_TO_END_UNITS, OUT, WORKLOADS, workload_spec
from spans import LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
        "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def expected_failed_share(workload: str) -> float:
    files = workload_spec(workload, tiny=True).get("files")
    return 1.0 / (files["draws"] + 1) if files else 0.0


def check_result(workload: str, trace: int, proc, declared: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append("correct is not true:\n" + proc.stdout)
    if not result["attempted"] >= 1:
        problems.append("nothing attempted")
    elif result["failed"] / result["attempted"] != expected_failed_share(workload):
        problems.append(f"{result['failed']} of {result['attempted']} operations failed")
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"metrics {got} differ from {units}")
    if declared.get(trace) is not None and declared[trace] != units:
        problems.append("BENCHMARK.json declares other metrics or units")
    return problems


def check_missing_program() -> list[str]:
    """With only BENCHMARK.json and bench/, the benchmark must fail quietly."""
    bare = OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench" / path.name)
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "many-short", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/ it exited {proc.returncode} and printed {proc.stdout!r}"]
    return []


def main() -> int:
    declared = {}
    if (ROOT / "BENCHMARK.json").is_file():
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            print("FAIL BENCHMARK.json workloads differ from bench/run.py")
            return 1
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check_result(workload, trace, run_bench(ROOT, workload, trace), declared)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace {trace}")
            for problem in problems:
                print(f"     {problem}")
    problems = check_missing_program()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} fails without the package")
    for problem in problems:
        print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
