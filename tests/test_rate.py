"""The sqrt(n) rate of the IV estimator at the published window and degree.

The acceptance suite checks only that the IV RMSE falls as n grows. Here the
slope of log RMSE on log n must be near -1/2, over 64 trials at n = 12,500,
25,000 and 50,000 with the published N = 100 and p = 75, about 3 s per mode
on two workers. With h and N fixed the filter bias does not shrink with n,
so the slope flattens once the IV bias nears the RMSE; at these n it is
still far below it. LS is bias-bound, so its RMSE barely moves.
"""

from __future__ import annotations

import numpy as np
import pytest

from ivsysid.harness import ExperimentConfig, prepare_shared, run_monte_carlo, summarize

SAMPLE_COUNTS = (12_500, 25_000, 50_000)


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_iv_rmse_falls_at_the_root_n_rate(mode):
    iv, ls = [], []
    for n in SAMPLE_COUNTS:
        config = ExperimentConfig(mode=mode, n=n, trials=64, master_seed=0)
        shared = prepare_shared(config)
        stats = summarize(run_monte_carlo(config, workers=2, shared=shared), shared.reference)
        iv.append(stats.iv.rmse_pct)
        ls.append(stats.ls.rmse_pct)
    log_n = np.log(SAMPLE_COUNTS)
    iv_slope = np.polyfit(log_n, np.log(iv), 1)[0]
    ls_slope = np.polyfit(log_n, np.log(ls), 1)[0]
    # measured -0.48 to -0.59 over master seeds 0-4 in both modes
    assert -0.65 <= iv_slope <= -0.35, iv_slope
    assert ls_slope > -0.15, ls_slope
