"""Annual-equivalent ownership cost of a depreciating asset.

An asset bought for ``acquisition_cost`` loses resale value linearly at
``depreciation_rate`` per year until it is worthless, and its yearly upkeep
expense grows linearly at ``maint_slope``.  Every cash flow is discounted at
a continuously compounded ``interest_rate`` and restated as a level yearly
amount, so holding periods of different lengths become directly comparable:

* ``capital_cost``      -- yearly equivalent of buying now and reselling at age t
* ``maintenance_cost``  -- yearly equivalent of the accumulated upkeep to age t
* ``property_cost``     -- their sum, the quantity minimized by the economic life

All evaluators accept a scalar age or a numpy array of ages, from 0 to inf.
Age zero is a removable singularity of the closed forms and is defined by its
limit; from rate * age = 700 on, each cost equals its asymptote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import SERIES_CUTOFF, expm1_minus_series
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
# asymptote to the last bit there (x e^(-x) < 1e-301, so (e^x - 1 - x)/(e^x - 1)
# and 1 + 1/(e^x - 1) round to 1), so holding x leaves each cost exact at
# every larger age, inf included, while e^x - 1 stays inside the double range.
_HOLD = 700.0


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


def _terms(r: float, ages):
    """The terms every cost is built from, at the flat array ``ages``.

    Returns x = r t held at ``_HOLD``, safe = e^x - 1 (1 where that is 0,
    which happens only at x = 0), d = e^x - 1 - x and the indices of the
    points with x < SERIES_CUTOFF, where d comes from its series.  Each is a
    fresh array that the caller may overwrite.
    """
    x = np.multiply(ages, r)
    np.minimum(x, _HOLD, out=x)
    safe = np.expm1(x)
    small = np.flatnonzero(x < SERIES_CUTOFF)
    d = np.subtract(safe, x)
    if small.size:  # most calls have no such point: skip the work on empty arrays
        d[small] = expm1_minus_series(x[small])
        safe[small[safe[small] == 0.0]] = 1.0
    return x, safe, d, small


def _components(params: AssetParams, ages):
    """Capital and maintenance cost at the flat array ``ages``."""
    A = params.acquisition_cost
    a = params.maint_slope
    b = params.depreciation_rate
    r = params.interest_rate
    i_eff = math.expm1(r)

    x, safe, d, small = _terms(r, ages)
    zero = small[ages[small] == 0.0]
    # Both branches are evaluated on every point and selected afterwards;
    # the discarded one may overflow harmlessly.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # Below the junction: A e^(rt) - (A - b t) = A (e^(rt) - 1) + b t,
        # which avoids the cancellation of the raw difference at small t.
        g = np.where(
            ages < params.junction,
            i_eff * (A + (b / r) * (x / safe)),
            i_eff * A * (1.0 + 1.0 / safe),
        )
    g[zero] = i_eff * (A * r + b) / r
    f = i_eff * a * (d / safe) / (r * r)
    f[zero] = 0.0
    return g, f


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
    closed form is 0/0 and the continuity limit (e^r - 1)(A r + b)/r is used.
    """
    arr, scalar = _as_ages(t)
    g, _ = _components(params, arr.reshape(-1))
    return _scalar_or_array(g.reshape(arr.shape), scalar)


def maintenance_cost(params: AssetParams, t):
    """Yearly equivalent of all upkeep paid up to age t.

    Closed form of the discounted accumulation of the linear expense rate:
    (e^r - 1) a (e^(rt) - 1 - rt) / (r^2 (e^(rt) - 1)), with value 0 at t = 0.
    """
    arr, scalar = _as_ages(t)
    _, f = _components(params, arr.reshape(-1))
    return _scalar_or_array(f.reshape(arr.shape), scalar)


def property_cost(params: AssetParams, t):
    """Total yearly ownership cost at holding age t (capital + maintenance).

    Piecewise-smooth in t with a kink at the full-depreciation age
    ``params.junction``; continuous there and at t = 0 (limit value
    (e^r - 1)(A r + b)/r).  This is the objective the economic life minimizes.

    With x = r t and safe = e^x - 1 (1 where that is 0), the value is
    (e^r - 1)/r^2 times a (e^x - 1 - x)/safe + (b r)(x/safe) + A r^2 below the
    junction and a (e^x - 1 - x)/safe + A r^2 (1 + 1/safe) from it on.  One
    fused pass works in place on the three arrays of ``_terms``.
    """
    arr, scalar = _as_ages(t)
    A = params.acquisition_cost
    a = params.maint_slope
    b = params.depreciation_rate
    r = params.interest_rate
    i_eff = math.expm1(r)
    A_r2 = A * r * r

    ages = arr.reshape(-1)
    below = ages < params.junction
    x, em, out, small = _terms(r, ages)
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
    (maint_slope - depreciation_rate * interest_rate).  Past rate * age = 700
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
    A = params.acquisition_cost
    a = params.maint_slope
    b = params.depreciation_rate
    r = params.interest_rate
    i_eff = math.expm1(r)

    ages = arr.reshape(-1)
    x, em, d, _ = _terms(r, ages)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # s = (e^x (x - 1) + 1)/(e^x - 1) = x - (e^x - 1 - x)/(e^x - 1);
        # positive for x > 0 and free of cancellation in this form.
        s = x - d / em
        prefactor = i_eff / (r * em)
        below = prefactor * (a - b * r) * s
        above = prefactor * (a * s - A * r * r * (1.0 + 1.0 / em))
        out = np.where(ages < params.junction, below, above)
    out[r * ages > _HOLD] = 0.0
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
    g, f = _components(params, ages)
    h = g + f
    return [
        CostSample(float(ti), float(gi), float(fi), float(hi))
        for ti, gi, fi, hi in zip(ages, g, f, h)
    ]
