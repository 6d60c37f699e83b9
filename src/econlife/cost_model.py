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
asymptote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# Below this x the direct form q = (e^x - 1 - x)/(e^x - 1) loses ~eps/x of its
# value to cancellation; the series is exact to a few ulp instead.
_SERIES_CUTOFF = 1e-3


@dataclass(frozen=True)
class CostSample:
    """One row of a cost curve, all in currency units per year."""

    t: float
    capital_cost: float
    maintenance_cost: float
    property_cost: float


def _as_ages(t):
    """Validate ages and return (array, was_scalar)."""
    arr = np.asarray(t, dtype=float)
    # A NaN fails the comparison; the offending age is looked up only on failure.
    if arr.size and not arr.min() >= 0.0:
        bad = arr[np.isnan(arr) | (arr < 0.0)].flat[0]
        raise ValueError(f"age must be >= 0; got t = {bad!r}")
    return arr, arr.ndim == 0


def _scalar_or_array(values, scalar: bool):
    return float(values[()]) if scalar else values


def _kernel(params: AssetParams, ages):
    """The pieces every cost is built from, at the flat array ``ages``.

    With x = r t held at ``_HOLD`` and q = 1 - x/(e^x - 1), returns c, the
    mean yearly loss of resale value (b up to the junction, A/t past it);
    p = 1 - q = x/(e^x - 1), in (0, 1]; and m = a (q/r).  Below
    ``_SERIES_CUTOFF`` both p and m come from the series
    q/x = 1/2 - x/12 + x^3/720, with m = t (a q/x), so x = 0 needs no special
    case and m keeps its digits where r t underflows.  Each is a fresh array
    that the caller may overwrite.
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
        m /= r
        m *= a
        small = np.flatnonzero(x < _SERIES_CUTOFF)
        if small.size:  # most calls have no such point: skip the work on empty arrays
            s = x[small]
            ratio = 0.5 - s * (1.0 / 12.0 - s * s / 720.0)  # q/x
            m[small] = ages[small] * (a * ratio)
            p[small] = 1.0 - s * ratio
    c = x  # x is spent
    c.fill(params.depreciation_rate)
    np.divide(params.acquisition_cost, ages, out=c, where=ages > params.junction)
    return c, p, m


def cost_pieces(params: AssetParams, ages):
    """Capital piece D = c p, maintenance piece I = m and cost h at flat ``ages``.

    D never rises with age and I never falls, so on a cell [u, v] of ages h
    lies between ``cost_of_pieces`` of D(v), I(u) and of D(u), I(v).
    """
    d, p, m = _kernel(params, ages)
    d *= p
    return d, m, cost_of_pieces(params, d, m)


def cost_of_pieces(params: AssetParams, capital, maintenance):
    """scale (A r + capital + maintenance), summed as every cost is."""
    total = np.add(capital, maintenance)
    total += params.acquisition_cost * params.interest_rate
    total *= math.expm1(params.interest_rate) / params.interest_rate
    return total


def _capital_and_maintenance(params: AssetParams, ages):
    """Capital and maintenance cost at the flat array ``ages``."""
    d, p, m = _kernel(params, ages)
    d *= p
    return cost_of_pieces(params, d, 0.0), math.expm1(params.interest_rate) / params.interest_rate * m


def maintenance(params: AssetParams, t):
    """Upkeep expense rate M at age t: grows linearly from zero."""
    arr, scalar = _as_ages(t)
    return _scalar_or_array(params.maint_slope * arr, scalar)


def salvage(params: AssetParams, t):
    """Resale value at age t: linear decline to zero, then zero."""
    arr, scalar = _as_ages(t)
    A = params.acquisition_cost
    b = params.depreciation_rate
    out = np.where(arr < params.junction, np.maximum(A - b * arr, 0.0), 0.0)
    return _scalar_or_array(out, scalar)


def capital_cost(params: AssetParams, t):
    """Yearly equivalent of the net capital outlay over a holding period t.

    Buying at age zero and recovering the resale value at age t, discounted
    continuously, then spread into a level annual amount.  At t = 0 the
    value is the continuity limit (e^r - 1)(A r + b)/r.
    """
    arr, scalar = _as_ages(t)
    g, _ = _capital_and_maintenance(params, arr.reshape(-1))
    return _scalar_or_array(g.reshape(arr.shape), scalar)


def maintenance_cost(params: AssetParams, t):
    """Yearly equivalent of all upkeep paid up to age t.

    Closed form of the discounted accumulation of the linear expense rate:
    (e^r - 1) a (e^(rt) - 1 - rt) / (r^2 (e^(rt) - 1)), with value 0 at t = 0.
    """
    arr, scalar = _as_ages(t)
    _, f = _capital_and_maintenance(params, arr.reshape(-1))
    return _scalar_or_array(f.reshape(arr.shape), scalar)


def property_cost(params: AssetParams, t):
    """Total yearly ownership cost at holding age t (capital + maintenance).

    Piecewise-smooth in t with a kink at the full-depreciation age
    ``params.junction``; continuous there and at t = 0 (limit value
    (e^r - 1)(A r + b)/r).  This is the objective the economic life minimizes.

    The value is scale (A r + c (1 - q) + a (q/r)), from ``cost_pieces``.
    """
    arr, scalar = _as_ages(t)
    _, _, out = cost_pieces(params, arr.reshape(-1))
    return float(out[0]) if scalar else out.reshape(arr.shape)


def property_cost_derivative(params: AssetParams, t):
    """Slope of ``property_cost`` in age, for t > 0 and t != junction.

    With q' = dq/dx = (x - q)/(e^x - 1), the slope is scale (a - b r) q'
    below the junction, whose sign is exactly that of
    (maint_slope - depreciation_rate * interest_rate), and
    scale (a q' - (A/t)(1 - q)(r + (1 - q)/t)) past it.  Past rate * age = 700
    the evaluated cost is constant and the slope is 0.
    """
    arr, scalar = _as_ages(t)
    if np.any(arr <= 0.0):
        raise ValueError("derivative requires age t > 0")
    if np.any(arr == params.junction):
        raise ValueError(
            "derivative is one-sided at the full-depreciation age "
            f"junction = {params.junction!r}"
        )
    a = params.maint_slope
    r = params.interest_rate

    ages = arr.reshape(-1)
    x = r * ages
    c, p, m = _kernel(params, ages)
    with np.errstate(invalid="ignore"):  # inf/inf at t = inf, zeroed below
        dq = (ages - m / a) * p / ages  # (x - q)/(e^x - 1)
    small = x < _SERIES_CUTOFF
    dq[small] = 0.5 - x[small] * (1.0 / 6.0 - x[small] ** 2 / 180.0)
    out = (a - params.depreciation_rate * r) * dq
    past = ages > params.junction  # where c = A/t
    c, p, t_past = c[past], p[past], ages[past]
    out[past] = a * dq[past] - c * p * (r + p / t_past)
    out *= math.expm1(r) / r
    out[x > _HOLD] = 0.0
    return _scalar_or_array(out.reshape(arr.shape), scalar)


def curve(params: AssetParams, t_max: float, step: float) -> list[CostSample]:
    """Sample the three cost functions on the grid 0, step, 2*step, ..., t_max.

    The final grid point is included when t_max is a multiple of step.  Each
    sample's property cost is the float sum of its two components.
    """
    if not (0.0 < step < t_max < math.inf):
        raise ValueError("curve grid requires 0 < step < t_max < inf")
    count = int(math.floor(t_max / step + 1e-9))
    ages = np.arange(count + 1, dtype=float) * step
    g, f = _capital_and_maintenance(params, ages)
    h = g + f
    return [
        CostSample(float(ti), float(gi), float(fi), float(hi))
        for ti, gi, fi, hi in zip(ages, g, f, h)
    ]
