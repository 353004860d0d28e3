"""bench/spans.py wraps program functions by name; they must stay where it looks.

`python3 bench/run.py --trace 1` replaces module attributes of ivsysid with
timing wrappers, and reads `design.X` from every assembled design. Moving or
renaming one of those names makes the traced run exit with AttributeError,
and a name the program stops calling leaves its span empty. This test
instruments a fresh interpreter as the traced run does, runs a tiny discrete
experiment and the `simulate` and `estimate` commands, and checks that every
span the bench sums was recorded. It only reads bench/.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import contextlib, io, json, sys, tempfile
from pathlib import Path

sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
import ivsysid.cli, ivsysid.dynamics, ivsysid.harness, ivsysid.splitfilters

modules = {n: sys.modules["ivsysid." + n] for n in ("cli", "dynamics", "harness", "splitfilters")}
tracer = spans.Tracer()
spans.instrument(tracer, modules)
harness, cli = modules["harness"], modules["cli"]
small = ["--set", "N=16", "--set", "p=3"]
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    config = harness.ExperimentConfig(
        mode="discrete", n=1500, N=16, p=3, trials=10, substeps=2
    )
    harness.run_experiment(config, Path(tmp) / "run")
    codes = [
        cli.main(["simulate", "--mode", "continuous",
                  "--set", "n=1500", "--set", "substeps=2", "--out", tmp]),
        cli.main(["estimate", "--mode", "continuous", *small,
                  "--input", str(Path(tmp) / "trajectory.csv")]),
    ]
missing = [name for name in spans._INCLUSIVE if not tracer.durations(name)]
rows = tracer.counts.get("splitfilters.rows", 0)
print(json.dumps({"codes": codes, "missing": missing, "rows": rows}))
"""


def test_traced_bench_run_records_every_span():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", PROBE, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["missing"] == []
    assert report["rows"] > 0
