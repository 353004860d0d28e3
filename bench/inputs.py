"""Measurement files for the estimate-csv workload, made apart from ivsysid.

The trajectories come from scipy's DOP853 integrator and the noise from
numpy, so the truth the benchmark checks against does not depend on the
program's own RK4 simulator. Run as a script it writes one seed's file set
and a manifest.json describing it; bench/run.py runs it with the sizes of
the estimate-csv workload:

    python3 bench/inputs.py --seed 3 --out bench/out/inputs/estimate-csv-s3 \
        --n 100000 --eta 0.1 --trajectories 4 --draws 7 --cut-steps 500
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

SIGMA, RHO, BETA, FORCING_FREQ = 10.0, 28.0, 8.0 / 3.0, 1.0
#: sample step of every record, the published h
STEP = 1e-3

#: initial states of the trajectories; the first is the published x0. They do
#: not depend on the seed, as in the Monte Carlo workloads, so the seed moves
#: the noise and not how well a trajectory excites the parameters.
INITIAL_STATES = ((-8.0, 8.0, 27.0), (5.0, 5.0, 20.0), (-5.0, -7.0, 22.0), (10.0, 12.0, 30.0))


def true_theta() -> list[list[float]]:
    """Known parameters over the features (drive, x1, x2, x3, x1*x2, x1*x3)."""
    return [
        [0.0, 0.0, 1.0],
        [-SIGMA, RHO, 0.0],
        [SIGMA, -1.0, 0.0],
        [0.0, 0.0, -BETA],
        [0.0, 0.0, 1.0],
        [0.0, -1.0, 0.0],
    ]


def _lorenz(t, x):
    drive = math.sin(2.0 * math.pi * FORCING_FREQ * t)
    return [
        SIGMA * (x[1] - x[0]),
        x[0] * (RHO - x[2]) - x[1],
        drive + x[0] * x[1] - BETA * x[2],
    ]


def _write_csv(path: Path, times: np.ndarray, values: np.ndarray) -> None:
    # the bytes np.savetxt(fmt="%.17g", delimiter=",") writes, formatted in one
    # C-level % operation, which takes about half as long
    table = np.column_stack([times, values])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    path.write_text("t,z1,z2,z3\n" + (row * len(table)) % tuple(table.ravel().tolist()))


def generate(
    seed: int,
    out: Path,
    *,
    n: int,
    eta: float,
    trajectories: int,
    draws: int,
    cut_steps: int,
) -> dict:
    """Write `trajectories` x (`draws` whole + 1 cut) noisy CSV records.

    The seed draws the noise. A whole record holds samples at t = h, 2h,
    ..., n*h, with h = STEP. A cut record holds n samples of the same
    trajectory starting cut_steps steps later, at t = (cut_steps + 1) * h,
    with its own noise draw.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1C5]))
    out.mkdir(parents=True, exist_ok=True)
    files = []
    total = n + cut_steps
    grid = np.arange(1, total + 1) * STEP
    for k, x0 in enumerate(INITIAL_STATES[:trajectories]):
        sol = solve_ivp(
            _lorenz, (0.0, grid[-1]), x0, method="DOP853",
            t_eval=grid, rtol=1e-10, atol=1e-10,
        )
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        states = sol.y.T
        records = [("whole", d, 0) for d in range(draws)] + [("cut", 0, cut_steps)]
        for kind, d, start in records:
            noisy = states[start:start + n] + rng.normal(0.0, math.sqrt(eta), size=(n, 3))
            name = f"traj{k}-{kind}{d}.csv"
            _write_csv(out / name, grid[start:start + n], noisy)
            files.append({"file": name, "t0": float(grid[start]), "whole": kind == "whole"})
    manifest = {
        "seed": seed, "n": n, "h": STEP, "eta": eta,
        "theta": true_theta(), "files": files,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--eta", type=float, required=True)
    parser.add_argument("--trajectories", type=int, required=True)
    parser.add_argument("--draws", type=int, required=True)
    parser.add_argument("--cut-steps", type=int, required=True)
    args = parser.parse_args()
    generate(
        args.seed, Path(args.out), n=args.n, eta=args.eta,
        trajectories=args.trajectories, draws=args.draws, cut_steps=args.cut_steps,
    )


if __name__ == "__main__":
    main()
