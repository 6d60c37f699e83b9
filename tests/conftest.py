"""Shared fixtures and parameter strategies."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from econlife import AssetParams, interior_minimum_age

# Sampling ranges used for randomized checks: acquisition in [1, 1e4],
# full-depreciation age in [0.1, 50] years, rate in [0.01, 1], maintenance
# slope in [0.01, 1e3].  Instances whose scaled interior age would approach
# the search's scan limit (rate * age = 686) are rejected where a brute-force
# scan is involved.
MAX_SCALED_AGE = 460.0


@st.composite
def asset_params(draw):
    acquisition = draw(st.floats(1.0, 1e4))
    dep_age = draw(st.floats(0.1, 50.0))
    rate = draw(st.floats(0.01, 1.0))
    slope = draw(st.floats(0.01, 1e3))
    return AssetParams(acquisition, slope, acquisition / dep_age, rate)


def draw_params(rng: np.random.Generator, scan_safe: bool = False) -> AssetParams:
    """One random instance; optionally keep the interior optimum scannable."""
    while True:
        acquisition = rng.uniform(1.0, 1e4)
        dep_age = rng.uniform(0.1, 50.0)
        rate = rng.uniform(0.01, 1.0)
        slope = 10.0 ** rng.uniform(-2.0, 3.0)
        params = AssetParams(acquisition, slope, acquisition / dep_age, rate)
        if not scan_safe:
            return params
        if rate * interior_minimum_age(params) <= MAX_SCALED_AGE:
            return params


def draw_wide_params(rng: np.random.Generator) -> AssetParams:
    """draw_params's price and rate, with the cost ratio log-uniform in
    [1e-20, 1e2] and the full-depreciation age log-uniform in [1e-12, 50] y."""
    base = draw_params(rng)
    A, r = base.acquisition_cost, base.interest_rate
    c = 10.0 ** rng.uniform(-20.0, 2.0)
    junction = 10.0 ** rng.uniform(-12.0, math.log10(50.0))
    return AssetParams(A, A * r * r / c, A / junction, r)


@pytest.fixture
def rng():
    return np.random.default_rng(186252711)


# Representative instances, one per reachable regime (plus the knife-edge
# slope == depreciation * rate line).
INSTANCE_C1 = AssetParams(100.0, 10.0, 20.0, 0.1)
INSTANCE_C4_1 = AssetParams(100.0, 5.0, 20.0, 0.1)
INSTANCE_C4_3 = AssetParams(40.0, 5.0, 20.0, 0.1)
INSTANCE_C5 = AssetParams(100.0, 1.0, 20.0, 0.1)
INSTANCE_FLAT = AssetParams(100.0, 2.0, 20.0, 0.1)
