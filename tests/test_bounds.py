from __future__ import annotations

import math

import numpy as np
import pytest

from ivsysid.bounds import (
    GammaParams,
    GammaValue,
    corollary_rate,
    gamma,
    ideal_window,
    mc_check_gamma,
)


def test_gamma_head_term():
    for r in (1.0, 2.0, 4.0):
        for K in (0.5, 1.0, 2.0):
            assert gamma(GammaParams(r=r, a=1.0, b=4.0, K=K)).head == 0.5


def test_gamma_tail_term():
    for K in (1.5, 2.0, 3.0):
        g = gamma(GammaParams(r=1.0, a=1.0, b=K, K=K))
        assert g.tail == pytest.approx(math.exp(-1.0))


def test_gamma_head_dominated_regime():
    g = gamma(GammaParams(r=2.0, a=1.0, b=10.0, K=1.0))
    assert g.head == pytest.approx(0.2)
    assert g.tail < 1e-20
    # the crossover term is the only non-negligible correction here
    assert (g.total - g.head) / g.head < 1.1e-2
    assert g.total == g.head + g.body + g.tail


def test_gamma_monotone_in_b():
    for K in (0.5, 2.0):
        totals = [
            gamma(GammaParams(r=2.0, a=0.5, b=b, K=K)).total
            for b in np.linspace(0.6, 50.0, 200)
        ]
        assert all(x >= y - 1e-15 for x, y in zip(totals, totals[1:]))


def test_gamma_param_validation():
    with pytest.raises(ValueError):
        GammaParams(r=0.5, a=1.0, b=2.0, K=1.0)
    with pytest.raises(ValueError):
        GammaParams(r=1.0, a=2.0, b=1.0, K=1.0)
    with pytest.raises(ValueError):
        GammaParams(r=1.0, a=1.0, b=2.0, K=0.0)


def test_gamma_saturates_instead_of_overflowing():
    g = gamma(GammaParams(r=2.0, a=1.0, b=2.0, K=50.0))
    assert g.body == math.inf and g.total == math.inf


def test_mc_concentrates_at_inverse_b():
    res = mc_check_gamma(GammaParams(r=2.0, a=1.0, b=20.0, K=1.0), 1_000_000, seed=3)
    # X sits near 1/(a + b - W) with W = O(K), so slightly below 1/b
    assert res["empirical_Lr"] == pytest.approx(1.0 / 20.0, rel=0.03)
    assert res["ratio"] <= 1.0


def test_mc_saturates_at_inverse_a():
    res = mc_check_gamma(GammaParams(r=2.0, a=1.0, b=2.0, K=10.0), 1_000_000, seed=3)
    assert 0.5 < res["empirical_Lr"] < 1.0
    assert res["ratio"] <= 1.0


def test_mc_requires_enough_trials():
    with pytest.raises(ValueError):
        mc_check_gamma(GammaParams(r=1.0, a=1.0, b=2.0, K=1.0), 100, seed=0)


def test_corollary_rate_hand_substitution():
    n, h, p = 100_000, 1e-3, 2
    expected_d1 = h ** (1.0 / 5.0) + math.sqrt(1.0 / (n * h ** (4.0 / 5.0)))
    assert corollary_rate(n, h, p, 1) == pytest.approx(expected_d1, rel=1e-12)
    expected_d0 = h ** (2.0 / 5.0) + math.sqrt(1.0 / (n * h ** (4.0 / 5.0)))
    assert corollary_rate(n, h, p, 0) == pytest.approx(expected_d0, rel=1e-12)
    assert corollary_rate(n, h, p, 0) <= corollary_rate(n, h, p, 1)


def test_corollary_rate_vanishes_along_coupled_scaling():
    values = [corollary_rate(round(h**-3.0), h, 2, 1) for h in (1e-2, 1e-3, 1e-4)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 0.2


def test_corollary_rate_validation():
    with pytest.raises(ValueError):
        corollary_rate(10, 0.1, 2, 2)
    with pytest.raises(ValueError):
        corollary_rate(10, 0.1, 1, 1)
    with pytest.raises(ValueError):
        corollary_rate(0, 0.1, 2, 0)


def test_ideal_window_values():
    assert ideal_window(1e-3, 2) == pytest.approx(10.0 ** (12.0 / 5.0))
    # exponent tends to -1: the window approaches 1/h
    assert ideal_window(1e-3, 500) == pytest.approx(1e3, rel=0.02)
    with pytest.raises(ValueError):
        ideal_window(1.5, 2)


def test_gamma_value_total():
    v = GammaValue(head=1.0, body=0.25, tail=0.05)
    assert v.total == pytest.approx(1.3)
