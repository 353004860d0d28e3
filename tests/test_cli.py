from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivsysid import cli, harness, splitfilters
from ivsysid.bounds import GammaParams, corollary_rate, gamma, ideal_window
from ivsysid.cli import _resolve_config, build_parser, main
from ivsysid.dynamics import forcing, integrate
from ivsysid.harness import (
    ExperimentConfig,
    estimate_series,
    json_text,
    prepare_shared,
    run_trial,
)
from ivsysid.splitfilters import build_split_bank, window_times


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_json(text):
    return json.loads(text)


def test_simulate_noiseless(tmp_path, capsys):
    rc, out, err = run_cli(
        capsys,
        "simulate",
        "--mode", "continuous",
        "--set", "n=50",
        "--set", "eta=0",
        "--set", "substeps=2",
        "--out", str(tmp_path),
    )
    assert rc == 0 and err == ""
    info = parse_json(out)
    assert info["rows"] == 50 and info["noisy"] is False
    with (tmp_path / "trajectory.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "x2", "x3"]
    assert len(rows) == 51
    # row i sits at t = (i + 1) h, so the initial condition is not a row
    assert float(rows[1][0]) == 1e-3
    assert float(rows[50][0]) == 50 * 1e-3


def test_simulate_noise_is_seeded(tmp_path, capsys):
    args = [
        "simulate", "--mode", "continuous",
        "--set", "n=30", "--set", "substeps=1",
    ]
    rc, _, _ = run_cli(capsys, *args, "--seed", "5", "--out", str(tmp_path / "a"))
    assert rc == 0
    rc, _, _ = run_cli(capsys, *args, "--seed", "5", "--out", str(tmp_path / "b"))
    assert rc == 0
    rc, _, _ = run_cli(capsys, *args, "--seed", "6", "--out", str(tmp_path / "c"))
    assert rc == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    assert a == (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a != (tmp_path / "c" / "trajectory.csv").read_bytes()
    header = a.decode().splitlines()[0].split(",")
    assert header == ["t", "x1", "x2", "x3", "z1", "z2", "z3"]


def test_filters_stencil_csv(tmp_path, capsys):
    rc, out, err = run_cli(
        capsys,
        "filters",
        "--N", "5", "--h", "0.1", "--location", "3",
        "--p", "5", "--derivative", "1",
        "--out", str(tmp_path),
    )
    assert rc == 0
    info = parse_json(out)
    assert info["window_size"] == 5
    with (tmp_path / "stencil.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "weight_d0", "weight_d1"]
    d0 = np.array([float(r[1]) for r in rows[1:]])
    d1 = np.array([float(r[2]) for r in rows[1:]])
    assert d0 == pytest.approx([0, 0, 1, 0, 0], abs=1e-12)
    assert d1 == pytest.approx(np.array([1, -8, 0, 8, -1]) / 1.2, abs=1e-10)


def test_estimate_matches_library_pipeline(tmp_path, capsys):
    cfg = ExperimentConfig(
        mode="continuous", n=2000, N=20, p=4, eta=0.05, trials=1, substeps=2
    )
    filters = ["--mode", "continuous", "--set", "N=20", "--set", "p=4"]
    rc, _, _ = run_cli(
        capsys, "simulate", "--mode", "continuous",
        "--set", "n=2000", "--set", "eta=0.05", "--set", "substeps=2",
        "--out", str(tmp_path),
    )
    assert rc == 0

    # the file gives n and h; estimate takes only the filter and estimator fields
    rc, out, err = run_cli(
        capsys,
        "estimate", *filters,
        "--input", str(tmp_path / "trajectory.csv"),
        "--out", str(tmp_path / "est"),
    )
    assert rc == 0, err
    result = parse_json(out)

    expected = run_trial(cfg, 0, prepare_shared(cfg))
    # the CSV round-trips floats exactly, so the numbers must match bitwise
    assert np.array_equal(np.array([result["iv"]["theta"], result["ls"]["theta"]]), expected.thetas)
    assert result["n_windows"] == expected.n_windows
    assert result["iv"]["sigma_min_zx"] == expected.sigma_min_zx
    assert result["iv"]["clipped_directions"] == expected.clipped_directions
    assert result["excitation"]["satisfied"] == expected.satisfied

    on_disk = json.loads((tmp_path / "est" / "estimate.json").read_text())
    assert on_disk["iv"]["theta"] == result["iv"]["theta"]


_ESTIMATE_NEVER_READS = [
    (["--trials", "7"], "--trials"),
    (["--trials", "-5"], "--trials"),
    (["--seed", "3"], "--seed"),
    (["--set", "n=3000"], "--set n"),
    (["--set", "h=0.01"], "--set h"),
    (["--set", "eta=5"], "--set eta"),
    (["--set", "trials=2"], "--set trials"),
    (["--set", "master_seed=1"], "--set master_seed"),
    (["--set", "substeps=3"], "--set substeps"),
    (["--set", "x0=[1, 2, 3]"], "--set x0"),
]
_SIMULATE_NEVER_READS = [
    (["--set", "lam=7"], "--set lam"),
    (["--set", "N=16"], "--set N"),
    (["--set", "p=3"], "--set p"),
    (["--set", "trials=5"], "--set trials"),
]


@pytest.mark.parametrize(
    "command, flag, named",
    [
        *(pytest.param("estimate", f, n, id=f"flag{i}-{n}")
          for i, (f, n) in enumerate(_ESTIMATE_NEVER_READS)),
        *(pytest.param("simulate", f, n, id=f"simulate-{n}") for f, n in _SIMULATE_NEVER_READS),
    ],
)
def test_estimate_rejects_flags_it_never_reads(tmp_path, capsys, command, flag, named):
    # and so does simulate: rejected before the input is read, so no file is
    # needed, and before anything is written
    out = tmp_path / "out"
    source = ["--input", str(tmp_path / "missing.csv")] if command == "estimate" else []
    rc, stdout, err = run_cli(
        capsys, command, "--mode", "continuous", *flag, *source, "--out", str(out)
    )
    assert rc == 1 and stdout == ""
    error = parse_json(err)["error"]
    assert error["type"] == "CliError"
    assert named in error["message"], error
    assert not out.exists()


def test_estimate_reads_its_fields_from_a_full_manifest(tmp_path, capsys):
    # a manifest may carry run fields (n, eta, trials, ...); estimate ignores them
    rc, _, _ = run_cli(
        capsys, "simulate", "--mode", "continuous", "--set", "n=400",
        "--set", "substeps=1", "--out", str(tmp_path),
    )
    assert rc == 0
    path = str(tmp_path / "trajectory.csv")
    manifest = Path(__file__).resolve().parents[1] / "manifests" / "continuous.json"
    rc, out, err = run_cli(capsys, "estimate", "--config", str(manifest), "--input", path)
    assert rc == 0, err
    rc, want, err = run_cli(
        capsys, "estimate", "--mode", "continuous", "--set", "lam=1.0", "--set", "mu=200.0",
        "--set", "stride=1", "--set", "forcing_freq=1.0", "--input", path,
    )
    assert rc == 0, err
    assert parse_json(out) == parse_json(want)


def test_estimate_rejects_nonuniform_grid(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("t,x1,x2,x3\n0.1,1,2,3\n0.2,1,2,3\n0.4,1,2,3\n")
    rc, out, err = run_cli(
        capsys, "estimate", "--mode", "continuous", "--input", str(path)
    )
    assert rc == 1
    assert "uniform" in parse_json(err)["error"]["message"]


def test_estimate_honours_time_origin(tmp_path, capsys):
    # a noiseless record whose first sample sits at t = 0.251, not at h
    h, skip, n = 1e-3, 250, 20_000
    states = integrate((-8.0, 8.0, 27.0), h, skip + n, substeps=10)
    path = tmp_path / "late.csv"
    np.savetxt(
        path, np.column_stack([np.arange(1, skip + n + 1) * h, states])[skip:],
        fmt="%.17g", delimiter=",", header="t,x1,x2,x3", comments="",
    )
    rc, out, err = run_cli(capsys, "estimate", "--mode", "continuous", "--input", str(path))
    assert rc == 0, err
    drive = parse_json(out)["ls"]["theta"][0][2]
    assert drive == pytest.approx(1.0, abs=1e-6)


def test_estimate_rejects_nonfinite_values(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    rows = ["t,z1,z2,z3"] + [f"{(i + 1) * 1e-3!r},1,2,3" for i in range(300)]
    rows[7] = rows[7].replace(",2,", ",nan,")
    path.write_text("\n".join(rows) + "\n")
    rc, _, err = run_cli(capsys, "estimate", "--mode", "continuous", "--input", str(path))
    assert rc == 1
    error = parse_json(err)["error"]
    assert error["type"] == "CliError"
    assert str(path) in error["message"]
    assert "'z2'" in error["message"] and "data row 7" in error["message"]


@pytest.mark.parametrize(
    "prefix, header",
    [("\ufeff", "t,z1,z2,z3"), ("", "t, z1, z2, z3"), ("\ufeff", " t , z1,z2 ,z3 ")],
)
def test_estimate_accepts_bom_and_padded_header(tmp_path, capsys, prefix, header):
    # a spreadsheet export: byte-order mark and spaces around the names
    common = ["--mode", "continuous", "--set", "N=20", "--set", "p=4"]
    rng = np.random.default_rng(3)
    t = (np.arange(3000) + 1) * 1e-3
    z = np.column_stack([np.sin(t), np.cos(2 * t), t]) + 0.01 * rng.normal(size=(3000, 3))
    body = "".join(f"{a!r},{b!r},{c!r},{d!r}\n" for a, b, c, d in np.column_stack([t, z]).tolist())
    plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
    plain.write_text("t,z1,z2,z3\n" + body, encoding="utf-8")
    odd.write_text(prefix + header + "\n" + body, encoding="utf-8")
    rc, want, err = run_cli(capsys, "estimate", *common, "--input", str(plain))
    assert rc == 0, err
    rc, got, err = run_cli(capsys, "estimate", *common, "--input", str(odd))
    assert rc == 0, err
    assert parse_json(got) == parse_json(want)


def _measurement_rows(n: int) -> list[str]:
    """Data rows of a noisy n-sample record on the simulator's grid, as CSV lines."""
    t = (np.arange(n) + 1) * 1e-3
    noise = 0.01 * np.random.default_rng(3).normal(size=(n, 3))
    z = np.column_stack([np.sin(t), np.cos(2 * t), t]) + noise
    return [f"{a!r},{b!r},{c!r},{d!r}" for a, b, c, d in np.column_stack([t, z]).tolist()]


def _inserted(lines: list[str], at: int, line: str) -> list[str]:
    return lines[:at] + [line] + lines[at:]


#: Files np.loadtxt reads as the plain file, by the change they make to it
_ODD_FILES = {
    "trailing-blank": lambda rows: "t,z1,z2,z3\n" + "\n".join(rows) + "\n\n",
    "no-final-newline": lambda rows: "t,z1,z2,z3\n" + "\n".join(rows),
    "crlf": lambda rows: "t,z1,z2,z3\r\n" + "\r\n".join(rows) + "\r\n",
    "bom-padded-header": lambda rows: "\ufeff t , z1,z2 ,z3 \n" + "\n".join(rows) + "\n",
    "blank-inside": lambda rows: "\n".join(["t,z1,z2,z3", *_inserted(rows, 1500, "")]) + "\n",
    "comment-inside": (
        lambda rows: "\n".join(["t,z1,z2,z3", *_inserted(rows, 1500, "# a comment")]) + "\n"
    ),
}


@pytest.mark.parametrize("name", list(_ODD_FILES))
def test_estimate_counts_the_rows_loadtxt_reads(tmp_path, capsys, monkeypatch, name):
    # blocks of 256 windows put the odd line and the file's end inside a block
    monkeypatch.setattr(splitfilters, "_BLOCK_WINDOWS", 256)
    common = ["--mode", "continuous", "--set", "N=20", "--set", "p=4"]
    rows = _measurement_rows(3000)
    plain, odd = tmp_path / "plain.csv", tmp_path / f"{name}.csv"
    plain.write_bytes(("t,z1,z2,z3\n" + "\n".join(rows) + "\n").encode())
    odd.write_bytes(_ODD_FILES[name](rows).encode())
    rc, want, err = run_cli(capsys, "estimate", *common, "--input", str(plain))
    assert rc == 0, err
    rc, got, err = run_cli(capsys, "estimate", *common, "--input", str(odd))
    assert rc == 0, err
    assert got == want


@pytest.mark.parametrize("block", [64, 4096])
@pytest.mark.parametrize("stride", [1, 3, 41])
def test_streamed_estimate_equals_the_array_estimate(tmp_path, capsys, monkeypatch, block, stride):
    # N = 20: stride 41 = 2N + 1 also skips rows between blocks
    monkeypatch.setattr(splitfilters, "_BLOCK_WINDOWS", block)
    path = tmp_path / "record.csv"
    path.write_text("t,z1,z2,z3\n" + "\n".join(_measurement_rows(10_003)) + "\n")
    rc, out, err = run_cli(
        capsys, "estimate", "--mode", "continuous", "--set", "N=20", "--set", "p=4",
        "--set", f"stride={stride}", "--input", str(path),
    )
    assert rc == 0, err
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    h = float(data[1, 0] - data[0, 0])
    cfg = ExperimentConfig(mode="continuous", n=len(data), h=h, N=20, p=4, stride=stride)
    bank = build_split_bank("continuous", 20, h, 4)
    drive = lambda w: forcing(window_times(bank, w, float(data[0, 0])))  # noqa: E731
    want = asdict(estimate_series(data[:, 1:], cfg, bank, drive))
    for name in ("iv", "ls"):
        want[name]["theta"] = want[name]["theta"].tolist()
    assert out == json_text(want)


@pytest.mark.parametrize(
    "fault, flags, named",
    [
        # a NaN in the third block of 64 windows
        pytest.param("nan-late", [], ["'z3'", "data row 250"], id="nan-late"),
        # t jumps by h/2 at the first row of the second block: only the step
        # across the boundary is off
        pytest.param("step-at-boundary", [], ["uniform", "data row 104"], id="step-at-boundary"),
        # (305 - 40) % 7 = 6: no window reads the last six rows
        pytest.param(
            "nan-after-last-window", ["--set", "stride=7"], ["'z1'", "data row 305"],
            id="nan-after-last-window",
        ),
        # a value np.loadtxt cannot parse, named by its global data row and header
        pytest.param(
            "text-first-block", [], ["'abc'", "column 'z2' at data row 10"],
            id="text-first-block",
        ),
        pytest.param(
            "text-third-block", [], ["'abc'", "column 'z3' at data row 200"],
            id="text-third-block",
        ),
        # a row of two fields: the file's first missing column and the global data row
        pytest.param(
            "short-row-third-block", [], ["(2 of 4 fields)", "column 'z2' at data row 200"],
            id="short-row-third-block",
        ),
    ],
)
def test_estimate_checks_every_block(tmp_path, capsys, monkeypatch, fault, flags, named):
    monkeypatch.setattr(splitfilters, "_BLOCK_WINDOWS", 64)  # N = 20: the first read is 103 rows
    t = (np.arange(305) + 1) * 1e-3
    z = np.column_stack([np.sin(t), np.cos(t), t])
    if fault == "nan-late":
        z[249, 2] = np.nan
    elif fault == "step-at-boundary":
        t[103:] += 0.5e-3
    elif fault == "nan-after-last-window":
        z[304, 0] = np.nan
    path = tmp_path / "bad.csv"
    rows = [[repr(v) for v in row] for row in np.column_stack([t, z]).tolist()]
    if fault.startswith("text"):
        row, col = (9, 2) if fault == "text-first-block" else (199, 3)
        rows[row][col] = "abc"
    elif fault == "short-row-third-block":
        rows[199] = rows[199][:2]
    rows = [",".join(row) for row in rows]
    path.write_text("t,z1,z2,z3\n" + "\n".join(rows) + "\n")
    rc, out, err = run_cli(
        capsys, "estimate", "--mode", "continuous", "--set", "N=20", "--set", "p=4",
        *flags, "--input", str(path),
    )
    assert rc == 1 and out == ""
    error = parse_json(err)["error"]
    assert error["type"] == "CliError"
    for part in named:
        assert part in error["message"], error


#: The property tests' record: N = 16 and blocks of 32 windows put block
#: ends at data rows 63, 95, 127, ... of its 300 rows
_LAYOUT_ARGS = ["estimate", "--mode", "continuous", "--set", "N=16", "--set", "p=3"]
_LAYOUT_NAMES = ("t", "z1", "z2", "z3")
_LAYOUT_ROWS = [row.split(",") for row in _measurement_rows(300)]


def _estimate_text(text: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `estimate` on a file holding text, in blocks of 32 windows."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitfilters, "_BLOCK_WINDOWS", 32)
        path = Path(tmp) / "record.csv"
        path.write_bytes(text.encode())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*_LAYOUT_ARGS, "--input", str(path)])
    return rc, out.getvalue(), err.getvalue()


def _plain_text(rows: list[list[str]]) -> str:
    return "\n".join(",".join(row) for row in [list(_LAYOUT_NAMES), *rows]) + "\n"


@st.composite
def _layouts(draw) -> tuple[list[str], list[list[str]]]:
    """A random header of the record's columns, padded, permuted and with extras, and its rows."""
    extra = draw(st.lists(st.sampled_from(["x1", "note", "w", "t2"]), max_size=2, unique=True))
    order = draw(st.permutations([*_LAYOUT_NAMES, *extra]))
    pad = st.sampled_from(["", " ", "  "])
    header = [draw(pad) + name + draw(pad) for name in order]
    # no filler is empty, so a row cut to its first cell is not a blank line
    filler = {"x1": "1.5", "note": "abc", "w": "7", "t2": "-0.25"}
    rows = [[dict(zip(_LAYOUT_NAMES, row), **filler)[name] for name in order] for row in _LAYOUT_ROWS]
    return header, rows


def _layout_text(draw, header: list[str], rows: list[list[str]]) -> str:
    """The file's text: a BOM or none, blank and # lines, LF or CRLF, a final newline or none."""
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "# a comment", "#t,z1,z2,z3"])))
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from([sep, ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + sep.join([",".join(header), *lines]) + end


@given(st.data())
def test_estimate_does_not_depend_on_the_file_layout(data):
    # blank and # lines, CRLF, a byte-order mark, padded, permuted and extra
    # columns and the final newline change the text, not the record
    rc, want, err = _estimate_text(_plain_text(_LAYOUT_ROWS))
    assert rc == 0, err
    header, rows = data.draw(_layouts())
    rc, got, err = _estimate_text(_layout_text(data.draw, header, rows))
    assert rc == 0, err
    assert got == want


@given(st.data())
def test_estimate_names_the_data_row_and_header_of_a_bad_cell(data):
    # one corrupted cell in any block, on any layout: text, a non-finite
    # value, an empty cell, a row cut before the cell, or a row of only
    # spaces or tabs, which is a data row and not a skipped empty line
    header, rows = data.draw(_layouts())
    names = [name.strip() for name in header]
    row = data.draw(st.integers(0, len(rows) - 1))
    column = data.draw(st.sampled_from(_LAYOUT_NAMES))
    kind = data.draw(st.sampled_from(["abc", "nan", "-inf", "", "cut", "blank"]))
    if kind == "blank":
        # its one field is no number, and np.loadtxt reads t first
        rows[row] = [data.draw(st.sampled_from([" ", "   ", "\t", " \t "]))]
        column = "t"
    elif kind == "cut":
        # the row keeps its cells before column's, and at least one; np.loadtxt
        # names the first missing column it reads, in the order t, z1, z2, z3
        keep = max(1, names.index(column))
        rows[row] = rows[row][:keep]
        column = next(name for name in _LAYOUT_NAMES if names.index(name) >= keep)
    else:
        rows[row][names.index(column)] = kind
    rc, out, err = _estimate_text(_layout_text(data.draw, header, rows))
    assert rc == 1 and out == ""
    message = json.loads(err)["error"]["message"]
    assert f"column {column!r}" in message, message
    assert re.search(rf"data row {row + 1}\b", message), message


class _CountedFile:
    """A file whose reads add the length of what they return to a list."""

    def __init__(self, fh, counts: list[int]):
        self.fh, self.counts = fh, counts

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __iter__(self):
        return self

    def __next__(self):
        return self._counted(next(self.fh))

    def read(self, *args):
        return self._counted(self.fh.read(*args))

    def readline(self, *args):
        return self._counted(self.fh.readline(*args))

    def _counted(self, data):
        self.counts.append(len(data))
        return data


def test_estimate_reads_its_file_once(tmp_path, capsys, monkeypatch):
    # the header and the 2 rows that give t0 and h, then the file once
    path = tmp_path / "record.csv"
    rows = _measurement_rows(10_003)
    path.write_text("t,z1,z2,z3\n" + "\n".join(rows) + "\n")
    counts: list[int] = []
    monkeypatch.setattr(
        cli, "open", lambda *args, **kw: _CountedFile(open(*args, **kw), counts), raising=False
    )
    rc, _, err = run_cli(
        capsys, "estimate", "--mode", "continuous", "--set", "N=20", "--set", "p=4",
        "--input", str(path),
    )
    assert rc == 0, err
    head = len("t,z1,z2,z3\n") + sum(len(row) + 1 for row in rows[:2])
    assert 0 < sum(counts) <= path.stat().st_size + head


def _estimate_peak(capsys, path: Path) -> int:
    tracemalloc.start()
    try:
        rc, _, err = run_cli(
            capsys, "estimate", "--mode", "continuous", "--set", "N=20", "--set", "p=4",
            "--input", str(path),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, err
    return peak


def test_estimate_memory_does_not_grow_with_the_record(tmp_path, capsys):
    # the whole-file reader held every parsed row: 4 times the peak at 4 times the rows
    paths = {}
    for n in (50_000, 200_000):
        paths[n] = tmp_path / f"{n}.csv"
        paths[n].write_text("t,z1,z2,z3\n" + "\n".join(_measurement_rows(n)) + "\n")
    _estimate_peak(capsys, paths[50_000])  # first-call allocations
    short, long = (_estimate_peak(capsys, paths[n]) for n in (50_000, 200_000))
    assert long <= 1.25 * short, (short, long)


def test_benchmark_manifest_and_overrides(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "mode": "continuous", "n": 1200, "N": 16, "p": 3,
        "eta": 0.05, "trials": 6, "substeps": 2,
    }))
    rc, out, err = run_cli(
        capsys,
        "benchmark", "--config", str(manifest),
        "--trials", "4", "--out", str(tmp_path / "res"),
    )
    assert rc == 0, err
    summary = parse_json(out)
    assert summary["trials"] == {"requested": 4, "succeeded": 4, "failed": 0}
    assert summary["p_used"] == 3
    assert (tmp_path / "res" / "trials.csv").exists()
    assert (tmp_path / "res" / "summary.json").exists()
    assert not (tmp_path / "res" / "kde.csv").exists()  # below the density cutoff


def test_benchmark_rejects_non_integer_field(tmp_path, capsys):
    out = tmp_path / "d"
    rc, _, err = run_cli(
        capsys,
        "benchmark", "--mode", "continuous", "--trials", "3",
        "--set", "n=3000", "--set", "N=20.0", "--out", str(out),
    )
    assert rc == 1
    error = parse_json(err)["error"]
    assert error == {"type": "ValueError", "message": "N must be an integer, got 20.0"}
    assert not out.exists()


def test_benchmark_rejects_non_finite_field(tmp_path, capsys):
    out = tmp_path / "d"
    rc, _, err = run_cli(
        capsys,
        "benchmark", "--mode", "continuous", "--trials", "3",
        "--set", "n=3000", "--set", "N=20", "--set", "p=8",
        "--set", "eta=Infinity", "--out", str(out),
    )
    assert rc == 1
    error = parse_json(err)["error"]
    assert error == {"type": "ValueError", "message": "eta must be finite, got inf"}
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (['h="abc"'], "h must be a real number, got 'abc'"),
        (["eta=true"], "eta must be a real number, got True"),
        (["forcing_freq=NaN"], "forcing_freq must be finite, got nan"),
        (["x0=5"], "x0 must be three finite reals, got 5"),
        (["x0=[NaN,0,0]"], "x0 must be three finite reals, got [nan, 0, 0]"),
        (["N=21"], "N must be even for the parity split, got 21"),
        (["n=30", "N=20"], "n=30 samples do not fill one window of 2N=40 samples"),
        (["h=1.0"], "benchmark needs h < 1 for summary.json's ideal window, got 1.0"),
    ],
    ids=["str", "bool", "nan-freq", "scalar-x0", "nan-x0", "odd-N", "short-n", "h-1"],
)
def test_benchmark_rejects_bad_field(tmp_path, capsys, monkeypatch, overrides, message):
    # each is rejected before the states are integrated
    monkeypatch.setattr(harness, "integrate", lambda *a, **k: pytest.fail("integrated"))
    out = tmp_path / "d"
    sets = [arg for item in ["p=8", *overrides] for arg in ("--set", item)]
    rc, _, err = run_cli(
        capsys, "benchmark", "--mode", "continuous", "--trials", "3", *sets, "--out", str(out)
    )
    assert rc == 1
    assert parse_json(err)["error"] == {"type": "ValueError", "message": message}
    assert not out.exists()


def test_benchmark_failure_leaves_no_output_dir(tmp_path, capsys):
    out = tmp_path / "d"
    rc, _, err = run_cli(
        capsys,
        "benchmark", "--mode", "continuous", "--trials", "3",
        "--set", "n=3000", "--set", "N=4", "--set", "p=8", "--out", str(out),
    )
    assert rc == 1
    assert parse_json(err)["error"]["type"] == "FilterRankError"
    assert not out.exists()


def test_fallback_the_window_cannot_hold_fails_with_the_configured_p(tmp_path, capsys):
    # N = 6 holds neither p = 10 nor the fallback degree 8: the error names
    # the p that was set, and no fallback is announced
    out = tmp_path / "d"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _, err = run_cli(
            capsys,
            "benchmark", "--mode", "continuous", "--trials", "3",
            "--set", "N=6", "--set", "p=10", "--set", "n=300", "--out", str(out),
        )
    assert rc == 1
    assert parse_json(err)["error"] == {
        "type": "FilterRankError",
        "message": "exactness degree p=10 needs at least p samples, window has 6",
    }
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not out.exists()


def test_benchmark_summary_failure_leaves_no_output_dir(tmp_path, capsys, monkeypatch):
    # every trial has run when the summary fails; trials.csv is not written yet
    def broken(*args):
        raise ValueError("injected summary fault")

    monkeypatch.setattr(harness, "summary_dict", broken)
    out = tmp_path / "d"
    rc, _, err = run_cli(
        capsys,
        "benchmark", "--mode", "continuous", "--trials", "3",
        "--set", "n=3000", "--set", "N=16", "--set", "p=8", "--out", str(out),
    )
    assert rc == 1
    assert parse_json(err)["error"] == {"type": "ValueError", "message": "injected summary fault"}
    assert not out.exists()


def test_simulate_rejects_trials(tmp_path, capsys):
    # simulate draws trial 0's noise only, so it has no trial count to take
    out = tmp_path / "s"
    rc, stdout, err = run_cli(
        capsys, "simulate", "--mode", "continuous", "--trials", "5", "--out", str(out)
    )
    assert rc == 1 and stdout == ""
    assert parse_json(err)["error"] == {
        "type": "CliError",
        "message": "unrecognized arguments: --trials 5",
    }
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3", "9"])
def test_benchmark_rejects_workers_below_one(tmp_path, capsys, monkeypatch, workers):
    # and above 4 per CPU: the pool would start a thread for each pending trial
    import ivsysid.cli as cli

    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran the benchmark"))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = tmp_path / "d"
    rc, _, err = run_cli(
        capsys, "benchmark", "--mode", "continuous", "--workers", workers, "--out", str(out)
    )
    assert rc == 1
    message = (
        f"--workers must be >= 1, got {workers}" if int(workers) < 1
        else f"--workers must be <= 8, 4 per CPU on 2 CPUs, got {workers}"
    )
    assert parse_json(err)["error"] == {"type": "CliError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("cpus", [None, 2])
def test_benchmark_takes_up_to_four_workers_per_cpu(tmp_path, capsys, monkeypatch, cpus):
    # os.cpu_count() may not know, and counts as 1 then
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg, out, workers: ran.append(workers) or {})
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    rc, _, err = run_cli(
        capsys, "benchmark", "--mode", "continuous", "--workers", str(4 * (cpus or 1)),
        "--out", str(tmp_path),
    )
    assert rc == 0, err
    assert ran == [4 * (cpus or 1)]


def test_estimate_rejects_file_shorter_than_a_window(tmp_path, capsys):
    path = tmp_path / "short.csv"
    rows = ["t,z1,z2,z3"] + [f"{(i + 1) * 1e-3!r},1,2,3" for i in range(30)]
    path.write_text("\n".join(rows) + "\n")
    rc, _, err = run_cli(
        capsys, "estimate", "--mode", "continuous", "--set", "N=20", "--set", "p=4",
        "--input", str(path),
    )
    assert rc == 1
    message = parse_json(err)["error"]["message"]
    assert "40 samples" in message and "got 30" in message


def test_benchmark_reruns_byte_identical(tmp_path, capsys):
    args = [
        "benchmark", "--mode", "continuous", "--trials", "10", "--seed", "2",
        "--set", "n=1200", "--set", "N=16", "--set", "p=3",
        "--set", "eta=0.05", "--set", "substeps=2",
    ]
    rc, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    assert rc == 0
    rc, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    assert rc == 0
    for name in ("trials.csv", "summary.json", "kde.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_bounds_gamma_and_rate(capsys):
    rc, out, err = run_cli(
        capsys,
        "bounds",
        "--r", "2", "--a", "1", "--b", "10", "--K", "1",
        "--mc-trials", "20000", "--seed", "5",
        "--n", "100000", "--h", "0.001", "--p", "2", "--d", "1",
    )
    assert rc == 0, err
    result = parse_json(out)
    value = gamma(GammaParams(r=2, a=1, b=10, K=1))
    assert result["gamma"]["head"] == value.head
    assert result["gamma"]["total"] == value.total
    assert result["mc"]["ratio"] <= 1.0
    assert result["corollary_rate"] == corollary_rate(100000, 0.001, 2, 1)
    assert result["ideal_window"] == ideal_window(0.001, 2)


def test_bounds_partial_flags_error(capsys):
    rc, out, err = run_cli(capsys, "bounds", "--r", "2", "--a", "1")
    assert rc == 1
    assert parse_json(err)["error"]["type"] == "CliError"


@pytest.mark.parametrize("flag", [["--mc-trials", "20000"], ["--seed", "5"]], ids=["mc", "seed"])
def test_bounds_mc_flags_need_the_moment_flags(capsys, flag):
    rate = ["--n", "100000", "--h", "0.001", "--p", "8", "--d", "1"]
    for moment in ([], ["--r", "2", "--a", "1"]):
        rc, out, err = run_cli(capsys, "bounds", *rate, *moment, *flag)
        assert rc == 1 and out == ""
        error = parse_json(err)["error"]
        assert error["type"] == "CliError"
        assert flag[0] in error["message"], error


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--mc-trials", "0"], "need at least 1e4 trials, got 0"),
        (["--mc-trials", "20000", "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
    ids=["zero-trials", "negative-seed"],
)
def test_bounds_mc_check_rejects_bad_values(capsys, flags, message):
    moment = ["--r", "2", "--a", "1", "--b", "10", "--K", "1"]
    rc, out, err = run_cli(capsys, "bounds", *moment, *flags)
    assert rc == 1 and out == ""
    assert parse_json(err)["error"] == {"type": "ValueError", "message": message}


def _benchmark_config(*argv):
    # the config `ivsysid benchmark` would run with these flags
    return _resolve_config(build_parser().parse_args(["benchmark", *argv, "--out", "unused"]))


def test_manifest_flags_and_overrides_build_one_config(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"mode": "discrete", "n": 5000, "trials": 12}))
    assert _benchmark_config("--config", str(path)) == ExperimentConfig(
        mode="discrete", n=5000, trials=12
    )
    cfg = _benchmark_config(
        "--config", str(path), "--trials", "3", "--seed", "4",
        "--set", "n=4000", "--set", "eta=0.2", "--set", "x0=[1, 2, 3]",
        "--set", "mode=continuous",
    )
    assert cfg == ExperimentConfig(
        mode="continuous", n=4000, trials=3, master_seed=4, eta=0.2, x0=(1.0, 2.0, 3.0)
    )
    # --set applies after --trials and --seed
    cfg = _benchmark_config("--mode", "discrete", "--trials", "3", "--set", "trials=5")
    assert cfg.trials == 5


def test_set_mode_takes_the_final_modes_eta_default(tmp_path):
    assert _benchmark_config("--mode", "continuous", "--set", "mode=discrete").eta == 1.0
    assert _benchmark_config("--mode", "discrete", "--set", "mode=continuous").eta == 0.1
    bare, explicit = tmp_path / "bare.json", tmp_path / "explicit.json"
    bare.write_text(json.dumps({"mode": "continuous"}))
    explicit.write_text(json.dumps({"mode": "continuous", "eta": 0.1}))
    assert _benchmark_config("--config", str(bare), "--set", "mode=discrete").eta == 1.0
    # an eta the manifest states wins over the mode's default
    assert _benchmark_config("--config", str(explicit), "--set", "mode=discrete").eta == 0.1


@pytest.mark.parametrize(
    "manifest, message",
    [
        (["discrete"], "must hold a JSON object"),
        ({"n": 100}, "config must set 'mode'"),
        ('{"mode": "discrete",}', "is not valid JSON: Expecting property name enclosed in double "
         "quotes: line 1 column 21 (char 20)"),
    ],
    ids=["list", "no-mode", "not-json"],
)
def test_bad_manifest_errors(tmp_path, capsys, manifest, message):
    path = tmp_path / "manifest.json"
    path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
    rc, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path))
    assert rc == 1
    error = parse_json(err)["error"]
    assert message in error["message"]
    if isinstance(manifest, str):
        assert error["type"] == "CliError" and error["message"].startswith(str(path))


@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_negative_seed_fails_at_the_boundary(tmp_path, capsys, command):
    out = tmp_path / "out"
    rc, _, err = run_cli(
        capsys, command, "--mode", "continuous", "--seed", "-1",
        "--set", "n=3000", "--out", str(out),
    )
    assert rc == 1
    error = parse_json(err)["error"]
    assert error == {"type": "ValueError", "message": "master_seed must be >= 0, got -1"}
    assert not out.exists()


def test_config_and_mode_conflict(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"mode": "discrete"}))
    rc, _, err = run_cli(
        capsys, "simulate", "--config", str(manifest), "--mode", "continuous",
        "--out", str(tmp_path),
    )
    assert rc == 1
    assert "not both" in parse_json(err)["error"]["message"]


def test_missing_mode_errors(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "simulate", "--out", str(tmp_path))
    assert rc == 1
    assert parse_json(err)["error"]["type"] == "CliError"


def test_unknown_override_errors(tmp_path, capsys):
    rc, _, err = run_cli(
        capsys, "simulate", "--mode", "continuous",
        "--set", "q=1", "--out", str(tmp_path),
    )
    assert rc == 1
    error = parse_json(err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("unknown config keys ['q']; valid keys: ['N', "), error


def test_malformed_override_errors(tmp_path, capsys):
    rc, _, err = run_cli(
        capsys, "simulate", "--mode", "continuous", "--set", "n4000", "--out", str(tmp_path),
    )
    assert rc == 1
    assert parse_json(err)["error"] == {
        "type": "CliError",
        "message": "override 'n4000' is not of the form key=value",
    }


def test_invalid_filter_spec_errors(tmp_path, capsys):
    rc, _, err = run_cli(
        capsys, "filters",
        "--N", "4", "--h", "0.1", "--location", "2", "--p", "9",
        "--out", str(tmp_path),
    )
    assert rc == 1
    assert parse_json(err)["error"]["type"] == "FilterRankError"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "simulate" in out and "benchmark" in out


def test_no_subcommand_errors(capsys):
    rc = main([])
    err = capsys.readouterr().err
    assert rc == 1
    assert parse_json(err)["error"]["type"] == "CliError"