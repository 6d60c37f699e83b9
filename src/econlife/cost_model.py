"""Annual-equivalent ownership cost of a depreciating asset.

An asset bought for ``acquisition_cost`` loses resale value linearly at
``depreciation_rate`` per year until it is worthless, and its yearly upkeep
expense grows linearly at ``maint_slope``.  Every cash flow is discounted at
a continuously compounded ``interest_rate`` and restated as a level yearly
amount, so holding periods of different lengths become directly comparable:

* ``capital_cost``      -- yearly equivalent of buying now and reselling at age t
* ``maintenance_cost``  -- yearly equivalent of the accumulated upkeep to age t
* ``property_cost``     -- their sum, the quantity minimized by the economic life

Every cost is scale = (e^r - 1)/r, which lies in [1, e - 1], times pieces
that stay in range.  With x = r t and q = 1 - x/(e^x - 1) in [0, 1), the
capital cost is scale (A r + c (1 - q)), where c = (A - S(t))/t is the mean
yearly loss of resale value (b up to the full-depreciation age, A/t past
it), and the maintenance cost is scale a (q/r).  No piece divides by
e^x - 1 near 0 or by r^2, so x = 0 (at t = 0, or where r t underflows)
needs no special case.  All evaluators accept a scalar age or a numpy array
of ages, from 0 to inf; from rate * age = 700 on, each cost equals its
asymptote.  A cost past the float range is inf, without a numpy warning.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .lambert_w import _GAP_SERIES_BELOW, gap_series
from .params import AssetParams

__all__ = [
    "AssetParams",
    "CostSample",
    "maintenance",
    "salvage",
    "capital_cost",
    "maintenance_cost",
    "property_cost",
    "property_cost_derivative",
    "curve",
]

# The kernel holds x = r t at this value.  Every cost term is at its
# asymptote to the last bit there (x/(e^x - 1) < 1e-301, so q rounds to 1),
# so holding x leaves each cost exact at every larger age, inf included,
# while e^x - 1 stays inside the double range.
_HOLD = 700.0
# ``curve`` refuses a grid of more points than this: at the cap the CLI's
# ``curve`` peaks at 76 MB resident (CPython 3.11, numpy 2.4, Linux x86-64).
CURVE_MAX_POINTS = 10**6


class CostSample(NamedTuple):
    """A cost curve: the grid's ages and each cost there, in currency units
    per year, as float arrays of one length."""

    t: np.ndarray
    capital_cost: np.ndarray
    maintenance_cost: np.ndarray
    property_cost: np.ndarray


def _at_ages(t, flat):
    """``flat`` of the validated ages t as a flat array: a float for a
    scalar t, else an array of t's shape."""
    arr = np.asarray(t, dtype=float)
    # A NaN fails the comparison; the offending age is looked up only on failure.
    if arr.size and not arr.min() >= 0.0:
        bad = arr[np.isnan(arr) | (arr < 0.0)].flat[0]
        raise ValueError(f"age must be >= 0; got t = {bad!r}")
    with np.errstate(over="ignore"):  # a cost past the float range is inf
        out = flat(arr.reshape(-1)).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def _kernel(params: AssetParams, ages, slopes=False):
    """The pieces every cost is built from, at the flat array ``ages``.

    With x = r t held at ``_HOLD`` and q = 1 - x/(e^x - 1), returns the
    capital piece D = c p, where c is the mean yearly loss of resale value
    (b up to the junction, A/t past it); p = 1 - q = x/(e^x - 1), in (0, 1];
    the maintenance piece m = a (q/r); and q/x if ``slopes``, else None.
    Below x = 0.1, where q cancels, p and m come from h = gap(-x)/x^2 =
    ``gap_series(-x)``, whose terms are all positive: e^x - 1 = x (1 + x h),
    so p = 1/(1 + x h) and m = t (a (q/x)) with q/x = h p.  x = 0 needs no
    special case, and m keeps its digits where r t underflows.  Each is a
    fresh array that the caller may overwrite.
    """
    a = params.maint_slope
    r = params.interest_rate
    x = np.multiply(ages, r)
    np.minimum(x, _HOLD, out=x)
    p = np.expm1(x)
    m = np.subtract(p, x)
    # 0/0 at x = 0, where the series takes over; m overflows to inf exactly
    # where a q/r lies past the double range.
    with np.errstate(invalid="ignore", over="ignore"):
        m /= p
        np.divide(x, p, out=p)
        g = m / x if slopes else None
        if r * sys.float_info.max < 1.0:  # q/r can overflow where a q/r does not
            m *= a
            m /= r
        else:
            m /= r
            m *= a
        small = (x < _GAP_SERIES_BELOW).nonzero()[0]
        if small.size:  # skip the work on empty arrays
            s = x[small]
            h = gap_series(-s)
            ps = 1.0 / (1.0 + s * h)
            h *= ps  # q/x
            m[small] = ages[small] * (a * h)
            p[small] = ps
            if slopes:
                g[small] = h
    d = x  # x is spent
    d.fill(params.depreciation_rate)
    np.divide(params.acquisition_cost, ages, out=d, where=ages > params.junction)
    d *= p
    return d, p, m, g


def cost_pieces(params: AssetParams, ages):
    """Capital piece D = c p, maintenance piece I = m and cost h at flat ``ages``.

    D never rises with age and I never falls, so on a cell [u, v] of ages h
    lies between ``cost_of_pieces`` of D(v), I(u) and of D(u), I(v).
    """
    d, _, m, _ = _kernel(params, ages)
    return d, m, cost_of_pieces(params, d, m)


def cost_of_pieces(params: AssetParams, capital, maintenance):
    """scale (A r + capital + maintenance), summed as every cost is."""
    total = np.add(capital, maintenance)
    total += params.acquisition_cost * params.interest_rate
    total *= math.expm1(params.interest_rate) / params.interest_rate
    return total


def cost_and_slope_pieces(params: AssetParams, ages):
    """The pieces D and I of ``cost_pieces``, the rising and falling parts P
    and N of the cost's slope, and the cost h at flat ``ages``, in that
    order, from one pass of the kernel.

    The slope is scale (P - N).  With q' = dq/dx = p (1 - q/x), positive and
    falling from 1/2 at x = 0, P = a q', and N = b r q' up to the junction
    and D (r + p/t) = (A/t)(1 - q)(r + (1 - q)/t) past it.  Both are
    positive (N is 0 past the junction at age inf) and non-increasing in age
    on either side of the junction, so on a cell [u, v] that does not span it
    the slope lies between scale (P(v) - N(u)) and scale (P(u) - N(v)).
    q' comes from the kernel's q/x, not from a q/r, which keeps no digits of
    q at a subnormal a and overflows at a huge one.  Past rate * age = 700,
    where the kernel holds x, q' is held too.
    """
    d, p, m, g = _kernel(params, ages, slopes=True)
    np.subtract(1.0, g, out=g)
    g *= p  # q' = p (1 - q/x)
    rising = params.maint_slope * g
    g *= params.depreciation_rate * params.interest_rate
    past = ages > params.junction  # where D = (A/t) p
    np.divide(p, ages, out=p, where=past)
    p += params.interest_rate
    np.multiply(d, p, out=g, where=past)
    return d, m, rising, g, cost_of_pieces(params, d, m)


def _capital_and_maintenance(params: AssetParams, ages):
    """Capital and maintenance cost at the flat array ``ages``."""
    d, _, m, _ = _kernel(params, ages)
    return cost_of_pieces(params, d, 0.0), math.expm1(params.interest_rate) / params.interest_rate * m


def maintenance(params: AssetParams, t):
    """Upkeep expense rate M at age t: grows linearly from zero."""
    return _at_ages(t, lambda ages: params.maint_slope * ages)


def salvage(params: AssetParams, t):
    """Resale value at age t: linear decline to zero, then zero."""
    def flat(ages):
        # b t overflows only past the junction, where S = 0
        resale = np.maximum(params.acquisition_cost - params.depreciation_rate * ages, 0.0)
        return np.where(ages < params.junction, resale, 0.0)

    return _at_ages(t, flat)


def capital_cost(params: AssetParams, t):
    """Yearly equivalent of the net capital outlay over a holding period t.

    Buying at age zero and recovering the resale value at age t, discounted
    continuously, then spread into a level annual amount.  At t = 0 the
    value is the continuity limit (e^r - 1)(A r + b)/r.
    """
    return _at_ages(t, lambda ages: _capital_and_maintenance(params, ages)[0])


def maintenance_cost(params: AssetParams, t):
    """Yearly equivalent of all upkeep paid up to age t.

    Closed form of the discounted accumulation of the linear expense rate:
    (e^r - 1) a (e^(rt) - 1 - rt) / (r^2 (e^(rt) - 1)), with value 0 at t = 0.
    """
    return _at_ages(t, lambda ages: _capital_and_maintenance(params, ages)[1])


def property_cost(params: AssetParams, t):
    """Total yearly ownership cost at holding age t (capital + maintenance).

    Piecewise-smooth in t with a kink at the full-depreciation age
    ``params.junction``; continuous there and at t = 0 (limit value
    (e^r - 1)(A r + b)/r).  This is the objective the economic life minimizes.

    The value is scale (A r + c (1 - q) + a (q/r)), from ``cost_pieces``.
    """
    return _at_ages(t, lambda ages: cost_pieces(params, ages)[2])


def property_cost_derivative(params: AssetParams, t):
    """Slope of ``property_cost`` in age, for t > 0 and t != junction.

    scale (P - N) from ``cost_and_slope_pieces``: with
    q' = dq/dx = (x - q)/(e^x - 1), scale (a - b r) q' below the junction,
    whose sign is that of (maint_slope - depreciation_rate * interest_rate)
    and which is exactly 0 where a = b r, and
    scale (a q' - (A/t)(1 - q)(r + (1 - q)/t)) past it.  Below the junction
    P = a q' and N = (b r) q' can round to one double where a and b r differ
    by an ulp or so; there the slope is scale (a - b r) (P/a).  Past
    rate * age = 700 the evaluated cost is constant and the slope is 0.
    """
    def flat(ages):
        if np.any(ages <= 0.0):
            raise ValueError("derivative requires age t > 0")
        if np.any(ages == params.junction):
            raise ValueError(
                "derivative is one-sided at the full-depreciation age "
                f"junction = {params.junction!r}"
            )
        rising, falling = cost_and_slope_pieces(params, ages)[2:4]
        tied = ((rising == falling) & (ages < params.junction)).nonzero()[0]
        rising -= falling
        a, r = params.maint_slope, params.interest_rate
        rising[tied] = (a - params.depreciation_rate * r) / a * falling[tied]  # P = N there
        rising *= math.expm1(r) / r
        rising[r * ages > _HOLD] = 0.0
        return rising

    return _at_ages(t, flat)


def curve(params: AssetParams, t_max: float, step: float) -> CostSample:
    """The three cost functions on the grid 0, step, 2*step, ..., t_max.

    Returns the grid ``t`` and the columns ``capital_cost``,
    ``maintenance_cost`` and ``property_cost`` at its ages, each a float
    array; the final grid point is included when t_max is a multiple of
    step.  The property cost is the float sum of the other two columns.  A
    grid of more than ``CURVE_MAX_POINTS`` points is refused.
    """
    if not (0.0 < step < t_max < math.inf):
        raise ValueError("curve grid requires 0 < step < t_max < inf")
    count = t_max / step
    if count == math.inf:
        raise ValueError(f"curve grid t_max/step = {t_max!r}/{step!r} overflows the float range")
    points = math.floor(count + 1e-9) + 1
    if points > CURVE_MAX_POINTS:
        raise ValueError(f"curve grid t_max/step = {t_max!r}/{step!r} has {points} points, more than {CURVE_MAX_POINTS}")
    ages = np.arange(points, dtype=float) * step
    with np.errstate(over="ignore"):
        g, f = _capital_and_maintenance(params, ages)
        return CostSample(ages, g, f, g + f)
