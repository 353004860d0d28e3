from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from ivsysid.bounds import GammaParams, corollary_rate, gamma, ideal_window
from ivsysid.cli import main
from ivsysid.dynamics import integrate
from ivsysid.harness import ExperimentConfig, prepare_shared, run_trial


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
    assert float(rows[1][0]) == pytest.approx(1e-3)
    assert float(rows[50][0]) == pytest.approx(50e-3)


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
    common = [
        "--mode", "continuous",
        "--set", "n=2000", "--set", "N=20", "--set", "p=4",
        "--set", "eta=0.05", "--set", "substeps=2",
    ]
    rc, _, _ = run_cli(capsys, "simulate", *common, "--out", str(tmp_path))
    assert rc == 0

    rc, out, err = run_cli(
        capsys,
        "estimate", *common,
        "--input", str(tmp_path / "trajectory.csv"),
        "--out", str(tmp_path / "est"),
    )
    assert rc == 0, err
    result = parse_json(out)

    expected = run_trial(cfg, 0, prepare_shared(cfg))
    # the CSV round-trips floats exactly, so the numbers must match bitwise
    est = expected.estimate
    assert np.array_equal(np.array(result["iv"]["theta"]), est.iv.theta)
    assert np.array_equal(np.array(result["ls"]["theta"]), est.ls.theta)
    assert result["n_windows"] == est.n_windows
    assert result["excitation"] == est.excitation

    on_disk = json.loads((tmp_path / "est" / "estimate.json").read_text())
    assert on_disk["iv"]["theta"] == result["iv"]["theta"]


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
    traj = integrate((-8.0, 8.0, 27.0), h, skip + n, substeps=10)
    path = tmp_path / "late.csv"
    np.savetxt(
        path, np.column_stack([traj.times, traj.states])[skip:],
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
    ],
    ids=["str", "bool", "nan-freq", "scalar-x0", "nan-x0", "odd-N", "short-n"],
)
def test_benchmark_rejects_bad_field(tmp_path, capsys, overrides, message):
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


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_benchmark_rejects_workers_below_one(tmp_path, capsys, monkeypatch, workers):
    import ivsysid.cli as cli

    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran the benchmark"))
    out = tmp_path / "d"
    rc, _, err = run_cli(
        capsys, "benchmark", "--mode", "continuous", "--workers", workers, "--out", str(out)
    )
    assert rc == 1
    assert parse_json(err)["error"] == {
        "type": "CliError", "message": f"--workers must be >= 1, got {workers}"
    }
    assert not out.exists()


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
    assert "unknown config field" in parse_json(err)["error"]["message"]


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