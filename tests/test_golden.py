"""Golden outputs: the CLI calls below write the bytes that were recorded.

tests/golden/digests.json holds the sha256 of every file the calls write,
with the numpy and Python versions and the machine that recorded them, and
the OpenBLAS core and thread count they ran on. The versions must match; the
BLAS values only help to explain a mismatch, since no output may depend on
them. A change that is meant to move an output reruns
`python tests/golden/update.py` and names each changed file and the reason
in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
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


def blas() -> dict[str, object]:
    """The core and thread count of numpy's bundled OpenBLAS; "unknown" where a symbol is absent."""
    found: dict[str, object] = {"corename": "unknown", "threads": "unknown"}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(path))
        for key, symbol, restype in (
            ("corename", "scipy_openblas_get_corename64_", ctypes.c_char_p),
            ("threads", "scipy_openblas_get_num_threads64_", ctypes.c_int),
        ):
            if (read := getattr(lib, symbol, None)) is not None:
                read.argtypes, read.restype = [], restype
                value = read()
                found[key] = value.decode() if isinstance(value, bytes) else value
    return found


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


def recorded() -> dict:
    """digests.json, once its versions are checked against the running ones."""
    record = json.loads(DIGESTS.read_text())
    moved = {
        key: f"{record['versions'].get(key)} -> {value}"
        for key, value in versions().items()
        if record["versions"].get(key) != value
    }
    assert not moved, (
        f"the digests were recorded under other versions {moved}; rerun "
        "tests/golden/update.py and record the change"
    )
    return record


def assert_recorded(got: dict[str, str], want: dict[str, str], record: dict, running: dict) -> None:
    """got and want name the same outputs with the same digests; a failure names both BLAS runs."""
    changed = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not changed, (
        f"these outputs differ from the recorded digests: {changed}; OpenBLAS recorded "
        f"{record.get('blas')}, running {running}"
    )


def test_outputs_match_the_recorded_digests(tmp_path):
    record = recorded()
    write_outputs(tmp_path / "out", tmp_path / "inputs")
    assert_recorded(digests(tmp_path / "out"), record["digests"], record, blas())


#: Runs one CLI call from argv, then prints blas() of the process that ran it.
_ONE_CALL = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from ivsysid.cli import main
from tests.test_golden import blas
assert main(sys.argv[3:]) == 0
print(json.dumps(blas()))
"""


def test_summary_does_not_follow_the_blas_thread_count(tmp_path):
    # at T = 2,000 a GEMM in the bootstrap's reductions rounds differently on
    # one OpenBLAS thread than on two, and moves a last bit of summary.json
    record = recorded()
    name, argv = next(call for call in CALLS if call[0] == "continuous-many-short")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _ONE_CALL, str(ROOT / "src"), str(ROOT),
         *argv, "--out", str(tmp_path / name)],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    running_blas = json.loads(proc.stdout.splitlines()[-1])
    assert running_blas["threads"] in (1, "unknown"), running_blas
    want = {key: v for key, v in record["digests"].items() if key.startswith(f"{name}/")}
    assert_recorded(digests(tmp_path), want, record, running_blas)


def test_update_names_each_changed_digest():
    from tests.golden.update import changes

    old = {"a": "1", "b": "2", "c": "3"}
    assert changes(old, {"a": "1", "b": "9", "d": "4"}) == ["changed b", "dropped c", "added d"]
    assert changes(old, old) == []
