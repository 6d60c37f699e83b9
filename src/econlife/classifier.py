"""Exact economic-life classification.

The yearly ownership cost is piecewise smooth with at most one interior
critical point, so its global minimizers admit a complete case analysis in
the four asset parameters.  Two derived quantities organize it:

* ``slope_threshold`` -- the maintenance-slope level at which the cost stops
  having an interior minimum beyond the full-depreciation age; and
* ``acquisition_threshold`` -- the purchase price at which keeping the asset
  to its interior optimum costs exactly as much as replacing it immediately.

``economic_life`` runs the case analysis once and returns the regime, the
minimizer set and the minimum yearly cost in closed form; ``classify`` is its
regime alone.

The interior optimum is the Lambert W closed form tau = 1 + c + W0(-e^(-1-c))
in the scaled age tau = rate * age, with c the cost ratio.  Its argument lies
(1 - e^(-c))/e above the branch point -1/e, so forming the argument in
floating point rounds small cost ratios onto the branch point and cancels
every digit of 1 + c + W0.  The closed form is therefore evaluated from the
exact branch offset d = 1 + e z = -expm1(-c): the branch-point series of W0
in p = sqrt(2 d), refined where it is not yet exact by Halley's method on
gap(tau) = c, which is the W0 equation w e^w = z written in tau.  Everything
here is scalar ``math``; numpy is imported only when ``gap`` gets an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import NumericError
from .params import AssetParams

__all__ = [
    "CaseLabel",
    "MinimizerSet",
    "EconomicLifeResult",
    "gap",
    "interior_minimum_age",
    "slope_threshold",
    "acquisition_threshold",
    "classify",
    "economic_life",
]


class CaseLabel(Enum):
    """Regimes of the global minimum of the yearly ownership cost.

    C1   -- cost increasing everywhere; replace immediately (minimum at 0).
    C2   -- cost flat up to the full-depreciation age, then increasing;
            every holding age in [0, junction] is optimal.
    C3   -- cost decreasing up to the full-depreciation age, then increasing;
            minimum exactly at the junction.
    C4_1 -- local minima at 0 and at the interior optimum; 0 wins.
    C4_2 -- the same two local minima tie exactly.
    C4_3 -- the same two local minima; the interior optimum wins.
    C5   -- cost decreasing until the interior optimum; minimum there.

    C2 and C3 require the maintenance slope to reach ``slope_threshold``
    while equal to (resp. below) depreciation_rate * interest_rate, which the
    threshold itself rules out; they are kept for the paper's case table.
    ``economic_life`` never returns C3, and C2 only within a positive
    ``rel_tol`` band or where rate * junction is so large (beyond ~1e16)
    that the threshold rounds onto depreciation_rate * interest_rate.
    """

    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4_1 = "C4_1"
    C4_2 = "C4_2"
    C4_3 = "C4_3"
    C5 = "C5"


@dataclass(frozen=True)
class MinimizerSet:
    """Global minimizers of the cost: a point, two points, or an interval."""

    kind: str  # "single_point" | "two_points" | "interval"
    values: tuple[float, ...]

    _KINDS = ("single_point", "two_points", "interval")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}")
        if any(not (math.isfinite(v) and v >= 0.0) for v in self.values):
            raise ValueError("minimizers must be finite and >= 0")
        if self.kind == "single_point":
            if len(self.values) != 1:
                raise ValueError("single_point carries exactly one value")
        elif len(self.values) != 2 or not self.values[0] < self.values[1]:
            raise ValueError(f"{self.kind} carries two strictly ordered values")

    @classmethod
    def point(cls, t: float) -> "MinimizerSet":
        return cls("single_point", (float(t),))

    @classmethod
    def pair(cls, first: float, second: float) -> "MinimizerSet":
        return cls("two_points", (float(first), float(second)))

    @classmethod
    def closed_interval(cls, lo: float, hi: float) -> "MinimizerSet":
        return cls("interval", (float(lo), float(hi)))


@dataclass(frozen=True)
class EconomicLifeResult:
    """Classification outcome plus the quantities behind it.

    min_cost is the minimum yearly ownership cost, attained at every member
    of ``minimizers``.  ``interior_minimum_age`` is present whenever the cost
    has an interior critical point (maint_slope below ``slope_threshold``);
    ``acquisition_threshold`` whenever maint_slope exceeds
    depreciation_rate * interest_rate.
    """

    case: CaseLabel
    minimizers: MinimizerSet
    min_cost: float
    interior_minimum_age: float | None
    cost_ratio: float
    slope_threshold: float
    acquisition_threshold: float | None


def gap(tau):
    """tau - 1 + e**(-tau): strictly increasing from 0 on tau >= 0.

    Its level sets locate the interior critical point of the ownership cost:
    the optimum age satisfies gap(rate * age) == cost_ratio.  Accepts scalars
    or arrays; arrays are evaluated with numpy.
    """
    if isinstance(tau, (int, float)):
        if not tau >= 0.0:
            raise ValueError("gap is defined for tau >= 0")
        return tau * _gap_ratio(tau)
    import numpy as np

    from .numerics import expm1_minus

    arr = np.asarray(tau, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr < 0.0):
        raise ValueError("gap is defined for tau >= 0")
    return expm1_minus(-arr)


# Below this the direct form 1 + expm1(-x)/x loses ~eps/x of its value to
# cancellation; the series is exact to a few ulp instead.
_GAP_SERIES_CUTOFF = 1e-3


def _gap_ratio(x: float) -> float:
    """gap(x) / x for x >= 0, in [0, 1].

    Evaluated as a ratio rather than as gap(x) divided by x, so it neither
    underflows where gap(x) ~ x^2/2 does nor rounds above 1 at large x.
    """
    if x < _GAP_SERIES_CUTOFF:
        # (e^-x - 1 + x)/x = (x/2)(1 - x/3 + x^2/12 - x^3/60 + x^4/360 - ...)
        return 0.5 * x * (1.0 + x * (-1.0 / 3.0 + x * (1.0 / 12.0 + x * (-1.0 / 60.0 + x / 360.0))))
    return 1.0 + math.expm1(-x) / x


# Below this p the branch-point series is exact to double precision: its first
# omitted term, 221/8505 p^6, is under 3e-17 of tau ~ p.
_BRANCH_SERIES_EXACT = 1e-3
# From this cost ratio on W0's argument lies within e^-3 of 0, and
# tau = 1 + c - e^(-1-c) + ... starts Halley closer than the series does.
_LARGE_COST_RATIO = 2.0
# Halley's error cubes per step, so after a relative step below this the
# remaining error is far below rounding.
_HALLEY_RTOL = 1e-7
_HALLEY_MAX_ITER = 10


def _scaled_interior_age(c: float) -> float:
    """tau = 1 + c + W0(-e^(-1-c)), the root of gap(tau) = c, for c > 0.

    The cost ratio of valid parameters is positive, so c = 0 means that it
    underflowed and c = inf that it overflowed; either raises ValueError.
    """
    if not 0.0 < c < math.inf:
        bound = "overflows the float range" if c > 0.0 else "underflows to 0"
        raise ValueError(
            f"cost ratio A*r^2/a = acquisition_cost * interest_rate**2 / maint_slope {bound}"
        )
    if c < _LARGE_COST_RATIO:
        # W0(-1/e + d/e) = -1 + p - p^2/3 + 11 p^3/72 - 43 p^4/540 + 769 p^5/17280 - ...
        p = math.sqrt(-2.0 * math.expm1(-c))
        tau = c + p * (
            1.0
            + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0 + p * (769.0 / 17280.0))))
        )
        if p < _BRANCH_SERIES_EXACT:
            return tau
    else:
        tau = 1.0 + c
    for _ in range(_HALLEY_MAX_ITER):
        em = math.expm1(-tau)  # e^-tau - 1
        f = (tau - c) + em  # gap(tau) - c
        df = -em  # gap'(tau) = 1 - e^-tau; gap''(tau) = e^-tau = 1 + em
        step = f * df / (df * df - 0.5 * f * (1.0 + em))
        tau -= step
        if abs(step) <= _HALLEY_RTOL * tau:
            return tau
    raise NumericError(
        f"Halley iteration for the interior age at cost ratio {c!r} did not converge "
        f"in {_HALLEY_MAX_ITER} steps"
    )


def interior_minimum_age(params: AssetParams) -> float:
    """Age of the interior critical point of the ownership cost.

    Defined by gap(rate * age) == cost_ratio, solved in closed form through
    the Lambert W function.  It is a genuine local minimum (and lies beyond
    the full-depreciation age) exactly when maint_slope < slope_threshold.
    Raises ValueError when the cost ratio A r^2 / a leaves the float range.
    """
    r = params.interest_rate
    return _scaled_interior_age(params.acquisition_cost * r * r / params.maint_slope) / r


def slope_threshold(params: AssetParams) -> float:
    """Maintenance-slope level separating interior-optimum regimes.

    For maint_slope below the threshold, the cost keeps falling past the
    full-depreciation age and turns back up at the interior optimum; at or
    above it, the cost is increasing beyond the junction.  Equal to
    depreciation_rate * interest_rate * x / gap(x) with x = rate * junction,
    and never below depreciation_rate * interest_rate, also after rounding;
    infinite when x underflows to 0.
    """
    r = params.interest_rate
    ratio = _gap_ratio(r * params.junction)
    speed = params.depreciation_rate * r
    return speed / ratio if ratio > 0.0 else math.inf


# Below this ratio q = b r / a, -log1p(-q) - q cancels to ~2 eps/q of its
# value and, once q^2/2 underflows, rounds below zero; the series to q^10/10
# is exact to a few ulp there.
_LOG_SERIES_CUTOFF = 0.02


def acquisition_threshold(params: AssetParams) -> float:
    """Purchase price at which immediate replacement ties the interior optimum.

    Equal to (a/r^2) (-log1p(-q) - q) with q = b r / a, which is positive.
    Defined only when maint_slope > depreciation_rate * interest_rate (below
    that the comparison never arises); diverges as the two approach.
    """
    a = params.maint_slope
    b = params.depreciation_rate
    r = params.interest_rate
    q = b * r / a
    if q >= 1.0:
        raise ValueError(
            "acquisition_threshold requires maint_slope > depreciation_rate * interest_rate"
        )
    if q < _LOG_SERIES_CUTOFF:
        # -log1p(-q) - q = q^2/2 + q^3/3 + ..., and (a/r^2) q^2 = (b/r) q
        tail = 1.0 / 6.0 + q * (1.0 / 7.0 + q * (1.0 / 8.0 + q * (1.0 / 9.0 + q / 10.0)))
        return (b / r) * q * (0.5 + q * (1.0 / 3.0 + q * (0.25 + q * (0.2 + q * tail))))
    return -(a / (r * r)) * math.log1p(-q) - b / r


def _relatively_close(x: float, y: float, rel_tol: float) -> bool:
    if rel_tol > 0.0:
        return abs(x - y) <= rel_tol * max(abs(x), abs(y))
    return x == y


def classify(params: AssetParams, rel_tol: float = 0.0) -> CaseLabel:
    """Name the minimizer regime of the ownership cost.

    Comparisons are exact floating-point by default.  A positive ``rel_tol``
    widens equality detection, letting callers ask whether the parameters sit
    within a relative band of a knife-edge case (C2 or C4_2).
    """
    return economic_life(params, rel_tol).case


def economic_life(params: AssetParams, rel_tol: float = 0.0) -> EconomicLifeResult:
    """Regime, global minimizers and minimum yearly cost of the ownership cost.

    The minimum cost uses the closed forms
    ``(e^r - 1)(A r + b)/r`` at age zero and
    ``(e^r - 1)/r^2 * (a + A r^2 + a W0(-e^(-1-c)))`` = ``(e^r - 1) a tau / r^2``
    at the interior optimum, rather than re-evaluating the piecewise cost.
    Both are formed from the scale (e^r - 1)/r, which lies in [1, e - 1], as
    scale * (A r + b) and scale * a * age, so that no r^2 can underflow.
    ``rel_tol`` is as for :func:`classify`.
    """
    A = params.acquisition_cost
    a = params.maint_slope
    b = params.depreciation_rate
    r = params.interest_rate
    speed = b * r
    c = A * r * r / a
    a_threshold = slope_threshold(params)
    tau = interior_age = None
    if a < a_threshold:
        tau = _scaled_interior_age(c)
        interior_age = tau / r
    A_threshold = acquisition_threshold(params) if a > speed else None

    scale = math.expm1(r) / r
    cost_at_zero = scale * (A * r + b)
    flat = _relatively_close(a, speed, rel_tol)
    if tau is None:
        # a >= slope_threshold >= speed: the cost rises beyond the junction.
        # C3 would need a < speed here and cannot occur.
        if flat:
            case, minimizers = CaseLabel.C2, MinimizerSet.closed_interval(0.0, params.junction)
        else:
            case, minimizers = CaseLabel.C1, MinimizerSet.point(0.0)
        min_cost = cost_at_zero
    elif flat or a < speed:
        case, minimizers = CaseLabel.C5, MinimizerSet.point(interior_age)
        min_cost = scale * a * interior_age
    elif _relatively_close(A, A_threshold, rel_tol):
        case, minimizers = CaseLabel.C4_2, MinimizerSet.pair(0.0, interior_age)
        min_cost = cost_at_zero
    elif A > A_threshold:
        case, minimizers = CaseLabel.C4_1, MinimizerSet.point(0.0)
        min_cost = cost_at_zero
    else:
        case, minimizers = CaseLabel.C4_3, MinimizerSet.point(interior_age)
        min_cost = scale * a * interior_age

    return EconomicLifeResult(
        case=case,
        minimizers=minimizers,
        min_cost=min_cost,
        interior_minimum_age=interior_age,
        cost_ratio=c,
        slope_threshold=a_threshold,
        acquisition_threshold=A_threshold,
    )
