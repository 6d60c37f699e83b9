"""Shared fixtures and parameter strategies."""

import functools
import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import strategies as st

from econlife import AssetParams, NumericError

# Sampling ranges used for randomized checks: acquisition in [1, 1e4],
# full-depreciation age in [0.1, 50] years, rate in [0.01, 1], maintenance
# slope in [0.01, 1e3].


@st.composite
def asset_params(draw):
    acquisition = draw(st.floats(1.0, 1e4))
    dep_age = draw(st.floats(0.1, 50.0))
    rate = draw(st.floats(0.01, 1.0))
    slope = draw(st.floats(0.01, 1e3))
    return AssetParams(acquisition, slope, acquisition / dep_age, rate)


def draw_params(rng: np.random.Generator) -> AssetParams:
    """One random instance."""
    acquisition = rng.uniform(1.0, 1e4)
    dep_age = rng.uniform(0.1, 50.0)
    rate = rng.uniform(0.01, 1.0)
    slope = 10.0 ** rng.uniform(-2.0, 3.0)
    return AssetParams(acquisition, slope, acquisition / dep_age, rate)


def draw_wide_params(rng: np.random.Generator) -> AssetParams:
    """draw_params's price and rate, with the cost ratio log-uniform in
    [1e-20, 1e2] and the full-depreciation age log-uniform in [1e-12, 50] y."""
    base = draw_params(rng)
    A, r = base.acquisition_cost, base.interest_rate
    c = 10.0 ** rng.uniform(-20.0, 2.0)
    junction = 10.0 ** rng.uniform(-12.0, math.log10(50.0))
    return AssetParams(A, A * r * r / c, A / junction, r)


def reference_costs(params: AssetParams, t: float) -> tuple[Decimal, Decimal]:
    """Capital and maintenance cost at age t >= 0 from their cash-flow definitions,

        g(t) = (e^r - 1)(A - S(t) e^(-x)) / (1 - e^(-x)),
        f(t) = (e^r - 1)(a/r^2)(1 - e^(-x)(1 + x)) / (1 - e^(-x)),

    with x = r t and resale value S(t) = max(A - b t, 0), in decimal
    arithmetic; at t = 0 their limits (e^r - 1)(A r + b)/r and 0.  Below
    x = 1 both differences from 1 are summed as series, and A - S(t) e^(-x)
    is formed as min(A, b t) + S(t)(1 - e^(-x)), so nothing cancels there.
    e^r - 1 still loses -log10(r) digits, so the precision grows with it: a
    rate of 1e-210 needs well over 210 digits.
    """
    A, a, b, r, t = (Decimal(v) for v in (params.acquisition_cost, params.maint_slope,
                                           params.depreciation_rate, params.interest_rate, t))
    prec = 40 + max(0, -r.adjusted())
    with localcontext(Context(prec=prec, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        i_eff = r.exp() - 1
        x = r * t
        if not x:
            return i_eff * (A * r + b) / r, Decimal(0)
        if x < 1:
            # 1 - e^(-x) = sum_k>=1 (-1)^(k+1) x^k/k!  and
            # 1 - e^(-x)(1 + x) = sum_k>=2 -(k - 1) (-1)^(k+1) x^k/k!
            u = term = x
            v, k = Decimal(0), 1
            while True:
                k += 1
                term = -term * x / k
                u += term
                v -= (k - 1) * term
                if k * abs(term) <= v.scaleb(-prec):
                    break
        else:
            discount = (-x).exp()
            u, v = 1 - discount, 1 - discount * (1 + x)
        resale = max(A - b * t, Decimal(0))
        g = i_eff * (min(A, b * t) + resale * u) / u
        f = i_eff * a / (r * r) * v / u
        return g, f


# Quadrature panels: 20-node Gauss-Legendre, their count doubled at most
# _MAX_DOUBLINGS times, until two estimates agree within _QUADRATURE_RTOL.
_MAX_DOUBLINGS = 8
_QUADRATURE_RTOL = 16.0 * np.finfo(float).eps


@functools.cache
def _gauss_legendre():
    """The 20 nodes and weights, read-only.

    Made on first use, since ``bench/gen.py`` loads this file for
    ``draw_params`` and numpy.polynomial would add 1.3 MB to that process,
    whose resident size the benchmark's ``peak_rss_mb`` includes.
    """
    pair = np.polynomial.legendre.leggauss(20)
    for array in pair:
        array.setflags(write=False)
    return pair


def integrate_discounted_maintenance(params: AssetParams, t: float) -> float:
    """Discounted upkeep accumulated to age t, by Gauss-Legendre quadrature.

    Integrates maint_slope * s * e**(-rate*s) over [0, t] with 20-node
    Gauss-Legendre panels of equal width, at most 4 / rate wide to start,
    doubling the panel count until two estimates agree at rounding level, to
    16 units of 2^-52: the integrand is positive, so its sum cannot cancel.
    Past rate * s = 750 the integrand is below the double range, so the
    panels end there.  An estimate past the double range is inf, and so is
    the integral.
    Independent of the closed-form antiderivative, which the tests compare
    against.
    """
    if not t >= 0.0:
        raise ValueError("integration age must be >= 0")
    if t == 0.0:
        return 0.0
    a = params.maint_slope
    r = params.interest_rate
    end = min(float(t), 750.0 / r)
    panels = max(1, math.ceil(r * end / 4.0))
    nodes, weights = _gauss_legendre()
    previous = None
    for _ in range(_MAX_DOUBLINGS + 1):
        half = 0.5 * end / panels
        s = (2.0 * np.arange(panels) + 1.0)[:, None] * half + half * nodes
        with np.errstate(over="ignore"):
            estimate = half * float(np.sum((a * s * np.exp(-r * s)) @ weights))
        if estimate == math.inf:
            return estimate
        if previous is not None and abs(estimate - previous) <= _QUADRATURE_RTOL * estimate:
            return estimate
        previous = estimate
        panels *= 2
    raise NumericError(
        f"quadrature on [0, {end!r}] did not converge after {_MAX_DOUBLINGS} panel doublings"
    )


def reference_cost(params: AssetParams, t: float) -> Decimal:
    """The yearly ownership cost at age t >= 0, capital plus maintenance, in decimal."""
    g, f = reference_costs(params, t)
    return g + f


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
