"""Golden outputs: the CLI calls below write the bytes that were recorded.

tests/golden/digests.json holds the sha256 of every file the calls write,
with the numpy and Python versions and the machine that recorded them. A
change that is meant to move an output reruns `python tests/golden/update.py`
and names each changed file and the reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import warnings
from pathlib import Path

import numpy as np

from ivsysid.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "golden" / "digests.json"
_MANIFESTS = ROOT / "manifests"
_SMALL = ["--trials", "24", "--set", "n=20001", "--workers", "2"]

#: (output directory, argv without --out); the estimate calls read the
#: simulate call's file, and "late" reads it without its first 37 data rows
CALLS = [
    ("continuous", ["benchmark", "--config", str(_MANIFESTS / "continuous_p8.json"), *_SMALL]),
    ("discrete", ["benchmark", "--config", str(_MANIFESTS / "discrete_p8.json"), *_SMALL]),
    (
        "discrete-stride3",
        ["benchmark", "--config", str(_MANIFESTS / "discrete_p8.json"), *_SMALL,
         "--set", "stride=3"],
    ),
    (
        "continuous-stride201",
        ["benchmark", "--config", str(_MANIFESTS / "continuous_p8.json"), "--trials", "12",
         "--set", "n=20001", "--set", "stride=201"],
    ),
    (
        "continuous-many-short",
        ["benchmark", "--config", str(_MANIFESTS / "continuous_p8.json"), "--trials", "2000",
         "--set", "n=4000"],
    ),
    (
        "discrete-fallback",
        ["benchmark", "--mode", "discrete", "--trials", "12", "--set", "n=600",
         "--set", "N=16", "--set", "p=75", "--set", "substeps=2"],
    ),
    ("simulate", ["simulate", "--mode", "discrete", "--set", "n=30001"]),
    ("estimate", ["estimate", "--mode", "discrete", "--input", "{simulate}"]),
    ("estimate-stride57", ["estimate", "--mode", "discrete", "--input", "{simulate}",
                           "--set", "stride=57"]),
    ("estimate-late", ["estimate", "--mode", "discrete", "--input", "{late}",
                       "--set", "stride=7"]),
]


def versions() -> dict[str, str]:
    """What the digests depend on besides the code."""
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def write_outputs(out: Path, inputs: Path) -> None:
    """Run CALLS in process, each into its own directory under out; inputs holds the cut file."""
    simulated = out / "simulate" / "trajectory.csv"
    late = inputs / "late.csv"
    for name, argv in CALLS:
        argv = [a.format(simulate=simulated, late=late) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings():
                # the fallback run's notice that p drops to 8
                warnings.filterwarnings("ignore", "exactness degree p=75", RuntimeWarning)
                rc = main([*argv, "--out", str(out / name)])
        assert rc == 0, f"{name}: {stderr.getvalue()}"
        if name == "simulate":
            inputs.mkdir(parents=True, exist_ok=True)
            lines = simulated.read_bytes().splitlines(keepends=True)
            late.write_bytes(b"".join([lines[0], *lines[38:]]))


def digests(out: Path) -> dict[str, str]:
    """sha256 of every file under out, keyed by its path relative to out."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_outputs_match_the_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    moved = {
        key: f"{recorded['versions'].get(key)} -> {value}"
        for key, value in versions().items()
        if recorded["versions"].get(key) != value
    }
    assert not moved, (
        f"the digests were recorded under other versions {moved}; rerun "
        "tests/golden/update.py and record the change"
    )
    write_outputs(tmp_path / "out", tmp_path / "inputs")
    got = digests(tmp_path / "out")
    want = recorded["digests"]
    changed = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not changed, f"these outputs differ from the recorded digests: {changed}"
