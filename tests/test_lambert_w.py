import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.special import lambertw as scipy_lambertw

from econlife.lambert_w import BRANCH_POINT, w0, w0_inverse, w0_series


def bisect_root(z: float, tol: float = 1e-14) -> float:
    """Independent solution of w * e^w = z on [-1, 0] by pure bisection."""
    lo, hi = -1.0, 0.0

    def f(w):
        return w * math.exp(w) - z

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_anchor_points():
    assert w0(0.0) == 0.0
    assert w0(BRANCH_POINT) == -1.0
    assert abs(w0(math.e) - 1.0) <= 1e-15


def test_negative_region_matches_bisection():
    # frozen from bisect_root(-0.2), interval width 1e-14
    assert w0(-0.2) == pytest.approx(-0.2591711018190743, abs=1e-13)
    for z in (-0.05, -0.2, -0.3, -0.36):
        assert w0(z) == pytest.approx(bisect_root(z), abs=1e-13)


def test_residual_identity_on_log_grid():
    # offsets from the branch point span 15 decades up to z ~ 1e6
    offsets = np.logspace(-9, math.log10(1e6 - BRANCH_POINT), 200)
    for z in BRANCH_POINT + offsets:
        w = w0(float(z))
        assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))


def test_branch_and_sign():
    for z in (-0.367, -0.1, -1e-9, 1e-9, 0.2, 5.0, 1e4):
        w = w0(z)
        assert w >= -1.0
        assert (w < 0.0) == (z < 0.0)


@given(
    st.floats(min_value=BRANCH_POINT + 1e-9, max_value=1e6),
    st.floats(min_value=BRANCH_POINT + 1e-9, max_value=1e6),
)
def test_strictly_increasing(z1, z2):
    assume(abs(z2 - z1) > 1e-9 * max(1.0, abs(z1)))
    lo, hi = min(z1, z2), max(z1, z2)
    assert w0(lo) < w0(hi)


@given(st.floats(min_value=-0.9, max_value=12.0))
def test_inverse_round_trip(w):
    z = w0_inverse(w)
    assert w0(z) == pytest.approx(w, rel=1e-12, abs=1e-12)


def test_inverse_values_and_domain():
    assert w0_inverse(0.0) == 0.0
    assert w0_inverse(1.0) == pytest.approx(math.e, rel=1e-15)
    with pytest.raises(ValueError):
        w0_inverse(-1.0)
    with pytest.raises(ValueError):
        w0_inverse(-1.5)


def test_w0_at_inf_is_its_limit():
    assert w0(math.inf) == math.inf
    # Within 1/705 of the largest double, w e^w itself overflows.
    for z in (1e308, 1.7975e308, math.nextafter(sys.float_info.max, 0.0), sys.float_info.max):
        assert w0(z) == pytest.approx(scipy_lambertw(z).real, rel=1e-15)
    assert w0_inverse(math.inf) == math.inf


@pytest.mark.parametrize("w", [703.3, 709.0, 800.0, 1e300])
def test_inverse_past_the_float_range_is_refused(w):
    with pytest.raises(ValueError, match="overflows the float range"):
        w0_inverse(w)


def test_domain_error_reports_argument():
    with pytest.raises(ValueError, match="-0.5"):
        w0(-0.5)
    with pytest.raises(ValueError):
        w0(float("nan"))


def test_series_basics():
    for k in (1, 5, 40):
        assert w0_series(0.0, k) == 0.0
    for z in (-0.2, 0.015, 0.3):
        assert w0_series(z, 1) == z
    assert w0_series(0.1, 40) == pytest.approx(w0(0.1), abs=1e-12)


def test_series_agreement_inside_radius():
    # 60 terms leave ~1e-8 of truncation at |z| = 0.3; a 250-term sum is
    # converged to rounding level there.
    for z in np.linspace(-0.3, 0.3, 41):
        z = float(z)
        assert abs(w0_series(z, 250) - w0(z)) <= 1e-13
    assert abs(w0_series(0.25, 60) - w0(0.25)) <= 1e-10


def test_series_domain_errors():
    with pytest.raises(ValueError):
        w0_series(0.5, 10)
    with pytest.raises(ValueError):
        w0_series(-1.0 / math.e, 10)
    with pytest.raises(ValueError):
        w0_series(0.1, 0)


def test_agrees_with_scipy_away_from_branch_point():
    for z in (-0.36, -0.2, -1e-3, 1e-3, 0.3, 0.9, 2.7, 50.0, 1e6):
        reference = float(scipy_lambertw(z).real)
        assert w0(z) == pytest.approx(reference, rel=5e-14, abs=5e-15)
