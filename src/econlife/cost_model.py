"""Annual-equivalent ownership cost of a depreciating asset.

An asset bought for ``acquisition_cost`` loses resale value linearly at
``depreciation_rate`` per year until it is worthless, and its yearly upkeep
expense grows linearly at ``maint_slope``.  Every cash flow is discounted at
a continuously compounded ``interest_rate`` and restated as a level yearly
amount, so holding periods of different lengths become directly comparable:

* ``capital_cost``      -- yearly equivalent of buying now and reselling at age t
* ``maintenance_cost``  -- yearly equivalent of the accumulated upkeep to age t
* ``property_cost``     -- their sum, the quantity minimized by the economic life

All evaluators accept a scalar age or a numpy array of ages.  Age zero is a
removable singularity of the closed forms and is defined by its limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import SERIES_CUTOFF, expm1_minus, expm1_minus_series
from .params import AssetParams

__all__ = [
    "MAX_RATE_AGE",
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

# Overflow guard: beyond rate*age = 700 the discount factor e^(rt) leaves the
# double range, long after every cost has converged to its asymptote.
MAX_RATE_AGE = 700.0


@dataclass(frozen=True)
class CostSample:
    """One row of a cost curve, all in currency units per year."""

    t: float
    capital_cost: float
    maintenance_cost: float
    property_cost: float


def _as_ages(params: AssetParams, t, minimum: float = 0.0):
    """Validate ages and return (array, was_scalar)."""
    arr = np.asarray(t, dtype=float)
    # A NaN fails the first comparison, and r * max(t) = max(r * t) because
    # rounding is monotone; the offending age is looked up only on failure.
    if arr.size and not (
        arr.min() >= minimum and params.interest_rate * arr.max() <= MAX_RATE_AGE
    ):
        low = np.isnan(arr) | (arr < minimum)
        if np.any(low):
            op = ">=" if minimum == 0.0 else ">"
            raise ValueError(f"age must be {op} {minimum:g}; got t = {arr[low].flat[0]!r}")
        bad = arr[params.interest_rate * arr > MAX_RATE_AGE].flat[0]
        raise ValueError(
            f"rate*age exceeds the overflow guard {MAX_RATE_AGE:g}; got t = {bad!r}"
        )
    return arr, arr.ndim == 0


def _scalar_or_array(values, scalar: bool):
    return float(values[()]) if scalar else values


def maintenance(params: AssetParams, t):
    """Upkeep expense rate M at age t: grows linearly from zero."""
    arr, scalar = _as_ages(params, t)
    return _scalar_or_array(params.maint_slope * arr, scalar)


def salvage(params: AssetParams, t):
    """Resale value at age t: linear decline to zero, then zero."""
    arr, scalar = _as_ages(params, t)
    A = params.acquisition_cost
    b = params.depreciation_rate
    out = np.where(arr < params.junction, np.maximum(A - b * arr, 0.0), 0.0)
    return _scalar_or_array(out, scalar)


def capital_cost(params: AssetParams, t):
    """Yearly equivalent of the net capital outlay over a holding period t.

    Buying at age zero and recovering the resale value at age t, discounted
    continuously, then spread into a level annual amount.  At t = 0 the
    closed form is 0/0 and the continuity limit (e^r - 1)(A r + b)/r is used.
    """
    arr, scalar = _as_ages(params, t)
    A = params.acquisition_cost
    b = params.depreciation_rate
    r = params.interest_rate
    i_eff = math.expm1(r)

    x = r * arr
    # Both branches are evaluated on the full grid and selected afterwards;
    # the discarded branch may overflow harmlessly at tiny ages.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        em = np.expm1(x)
        safe = np.where(em == 0.0, 1.0, em)
        # Below the junction: A e^(rt) - (A - b t) = A (e^(rt) - 1) + b t,
        # which avoids the cancellation of the raw difference at small t.
        below = i_eff * (A + (b / r) * (x / safe))
        above = i_eff * A * (1.0 + 1.0 / safe)
        out = np.where(arr < params.junction, below, above)
    out = np.where(arr == 0.0, i_eff * (A * r + b) / r, out)
    return _scalar_or_array(out, scalar)


def maintenance_cost(params: AssetParams, t):
    """Yearly equivalent of all upkeep paid up to age t.

    Closed form of the discounted accumulation of the linear expense rate:
    (e^r - 1) a (e^(rt) - 1 - rt) / (r^2 (e^(rt) - 1)), with value 0 at t = 0.
    """
    arr, scalar = _as_ages(params, t)
    a = params.maint_slope
    r = params.interest_rate
    i_eff = math.expm1(r)

    x = r * arr
    em = np.expm1(x)
    safe = np.where(em == 0.0, 1.0, em)
    out = i_eff * a * (expm1_minus(x) / safe) / (r * r)
    out = np.where(arr == 0.0, 0.0, out)
    return _scalar_or_array(out, scalar)


def property_cost(params: AssetParams, t):
    """Total yearly ownership cost at holding age t (capital + maintenance).

    Piecewise-smooth in t with a kink at the full-depreciation age
    ``params.junction``; continuous there and at t = 0 (limit value
    (e^r - 1)(A r + b)/r).  This is the objective the economic life minimizes.

    With x = r t and safe = e^x - 1 (1 where that is 0), the value is
    (e^r - 1)/r^2 times a (e^x - 1 - x)/safe + (b r)(x/safe) + A r^2 below the
    junction and a (e^x - 1 - x)/safe + A r^2 (1 + 1/safe) from it on.  One
    fused pass evaluates e^x - 1 once per point in three work arrays; the
    series for e^x - 1 - x, safe = 1 and the age-0 limit are applied to the
    points with x < SERIES_CUTOFF only.
    """
    arr, scalar = _as_ages(params, t)
    A = params.acquisition_cost
    a = params.maint_slope
    b = params.depreciation_rate
    r = params.interest_rate
    i_eff = math.expm1(r)
    A_r2 = A * r * r

    ages = arr.reshape(-1)
    below = ages < params.junction
    x = np.multiply(ages, r)
    em = np.expm1(x)
    small = np.flatnonzero(x < SERIES_CUTOFF)
    out = np.subtract(em, x)
    out[small] = expm1_minus_series(x[small])
    em[small[em[small] == 0.0]] = 1.0  # safe: e^x - 1 is 0 only at x = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out /= em  # (e^x - 1 - x)/safe, in [0, 1)
        out *= a
        x /= em
        x *= b * r  # below the junction: (b r)(x/safe)
        np.divide(1.0, em, out=em)
        em += 1.0
        em *= A_r2  # from the junction on: A r^2 (1 + 1/safe)
        np.copyto(em, x, where=below)
        out += em
        np.add(out, A_r2, out=out, where=below)
        out *= i_eff / (r * r)
    out[small[ages[small] == 0.0]] = i_eff * (A * r + b) / r
    return float(out[0]) if scalar else out.reshape(arr.shape)


def property_cost_derivative(params: AssetParams, t):
    """Slope of ``property_cost`` in age, for t > 0 and t != junction.

    Evaluated from the factored forms whose sign structure drives the
    classification: below the junction the sign is exactly that of
    (maint_slope - depreciation_rate * interest_rate).
    """
    arr, scalar = _as_ages(params, t, minimum=0.0)
    if np.any(arr <= 0.0):
        raise ValueError("derivative requires age t > 0")
    if np.any(arr == params.junction):
        raise ValueError(
            "derivative is one-sided at the full-depreciation age "
            f"junction = {params.junction!r}"
        )
    A = params.acquisition_cost
    a = params.maint_slope
    b = params.depreciation_rate
    r = params.interest_rate
    i_eff = math.expm1(r)

    x = r * arr
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        em = np.expm1(x)
        # s = (e^x (x - 1) + 1)/(e^x - 1) = x - (e^x - 1 - x)/(e^x - 1);
        # positive for x > 0 and free of cancellation in this form.
        s = x - expm1_minus(x) / em
        prefactor = i_eff / (r * em)
        below = prefactor * (a - b * r) * s
        above = prefactor * (a * s - A * r * r * (1.0 + 1.0 / em))
        out = np.where(arr < params.junction, below, above)
    return _scalar_or_array(out, scalar)


def curve(params: AssetParams, t_max: float, step: float) -> list[CostSample]:
    """Sample the three cost functions on the grid 0, step, 2*step, ..., t_max.

    The final grid point is included when t_max is a multiple of step.  Each
    sample's property cost is the float sum of its two components.
    """
    if not (step > 0.0 and step < t_max):
        raise ValueError("curve grid requires 0 < step < t_max")
    if params.interest_rate * t_max > MAX_RATE_AGE:
        raise ValueError(
            f"rate*t_max exceeds the overflow guard {MAX_RATE_AGE:g}; got t_max = {t_max!r}"
        )
    count = int(math.floor(t_max / step + 1e-9))
    ages = np.arange(count + 1, dtype=float) * step
    g = capital_cost(params, ages)
    f = maintenance_cost(params, ages)
    h = g + f
    return [
        CostSample(float(ti), float(gi), float(fi), float(hi))
        for ti, gi, fi, hi in zip(ages, g, f, h)
    ]
