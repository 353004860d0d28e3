from __future__ import annotations

import pytest
from hypothesis import settings

from ivsysid.dynamics import integrate

# fixed examples and no per-example deadline: reruns draw the same cases, and
# a slow shared machine does not turn into a failure
settings.register_profile("ivsysid", derandomize=True, deadline=None)
settings.load_profile("ivsysid")


@pytest.fixture(scope="session")
def lorenz_trajectory():
    # the benchmark-sized noiseless (n, 3) states; integrated once per test session
    return integrate((-8.0, 8.0, 27.0), 1e-3, 100_000, substeps=10)
