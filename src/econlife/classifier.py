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
every digit of 1 + c + W0.  ``econlife.lambert_w`` therefore solves for tau
from c directly, from the exact branch offset; this module keeps only the
case analysis.  Everything here is scalar ``math``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .lambert_w import _GAP_SERIES_BELOW, _scaled_interior_age, gap_ratio, gap_series
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
    ``economic_life`` compares exactly, so it never returns C3, C4_2 only
    where the purchase price equals the tie threshold, and C2 only where
    rate * junction is so large (beyond ~1e16) that the threshold rounds onto
    depreciation_rate * interest_rate.
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

    def __init__(self, kind: str, values: tuple[float, ...]):
        # Written out rather than generated, for the reason EconomicLifeResult
        # gives; the messages are worked out only once a check has failed.
        # A tuple keeps the set hashable; the classmethods already pass one.
        if type(values) is not tuple:
            values = tuple(values)
        if not (
            (kind == "single_point" and len(values) == 1 and 0.0 <= values[0] < math.inf)
            or (
                (kind == "two_points" or kind == "interval")
                and len(values) == 2
                and 0.0 <= values[0] < values[1] < math.inf
            )
        ):
            if kind not in self._KINDS:
                raise ValueError(f"kind must be one of {self._KINDS}")
            if not all(0.0 <= v < math.inf for v in values):
                raise ValueError("minimizers must be finite and >= 0")
            if kind == "single_point":
                raise ValueError("single_point carries exactly one value")
            raise ValueError(f"{kind} carries two strictly ordered values")
        fields = self.__dict__
        fields["kind"] = kind
        fields["values"] = values

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

    def __init__(
        self,
        case: CaseLabel,
        minimizers: MinimizerSet,
        min_cost: float,
        interior_minimum_age: float | None,
        cost_ratio: float,
        slope_threshold: float,
        acquisition_threshold: float | None,
    ):
        # The generated frozen __init__ makes one object.__setattr__ call per
        # field; storing into the instance dict takes about a third of the time.
        # (dict.update would copy a combined table: 128 more bytes per result.)
        fields = self.__dict__
        fields["case"] = case
        fields["minimizers"] = minimizers
        fields["min_cost"] = min_cost
        fields["interior_minimum_age"] = interior_minimum_age
        fields["cost_ratio"] = cost_ratio
        fields["slope_threshold"] = slope_threshold
        fields["acquisition_threshold"] = acquisition_threshold


# Replacement at age 0, the minimizer set of both C1 and C4_1
_AT_ZERO = MinimizerSet.point(0.0)


def gap(tau: float) -> float:
    """tau - 1 + e**(-tau): strictly increasing from 0 on tau >= 0.

    Its level sets locate the interior critical point of the ownership cost:
    the optimum age satisfies gap(rate * age) == cost_ratio.
    """
    if not tau >= 0.0:
        raise ValueError("gap is defined for tau >= 0")
    return tau * gap_ratio(tau)


def interior_minimum_age(params: AssetParams) -> float:
    """Age of the interior critical point of the ownership cost.

    Defined by gap(rate * age) == cost_ratio, solved in closed form through
    the Lambert W function (``econlife.lambert_w``, from the cost ratio
    itself).  It is a genuine local minimum (and lies beyond the
    full-depreciation age) exactly when maint_slope < slope_threshold.
    Raises ValueError when the cost ratio A r^2 / a leaves the float range.
    """
    r = params.interest_rate
    return _scaled_interior_age(params.acquisition_cost * r * r / params.maint_slope) / r


def slope_threshold(params: AssetParams) -> float:
    """Maintenance-slope level separating interior-optimum regimes.

    For maint_slope below the threshold, the cost keeps falling past the
    full-depreciation age and turns back up at the interior optimum; at or
    above it, the cost is increasing beyond the junction.  Equal to
    b r x / gap(x) = b r / gap_ratio(x), with b = depreciation_rate,
    r = interest_rate and x = r * junction, and never below b r, also after
    rounding; it tends to 2 b^2 / A as x tends to 0.
    """
    b = params.depreciation_rate
    r = params.interest_rate
    x = r * params.junction
    if x < _GAP_SERIES_BELOW:
        # b r / (x gap_series(x)) = (b / sqrt(A))^2 / gap_series(x): sqrt(A) is
        # normal, so b / sqrt(A) leaves the range only where the threshold does
        root = b / math.sqrt(params.acquisition_cost)
        return root * (root / gap_series(x))
    return b * (r / gap_ratio(x))


def acquisition_threshold(params: AssetParams) -> float:
    """Purchase price at which immediate replacement ties the interior optimum.

    Equal to (a/r^2) gap(u) = (a/r^2)(u - q) > 0, with q = b r / a and u = -log1p(-q).
    Defined only when maint_slope > depreciation_rate * interest_rate (below
    that the comparison never arises); diverges as the two approach.
    """
    a = params.maint_slope
    b = params.depreciation_rate
    q = b * params.interest_rate / a
    if q >= 1.0:
        raise ValueError(
            "acquisition_threshold requires maint_slope > depreciation_rate * interest_rate"
        )
    # phi = gap(u) / q^2 = (u / q) gap_ratio(u) / q.  With h = gap_series(u),
    # q = u - u^2 h, so u / q = 1 / (1 - u h) needs no division by q
    u = -math.log1p(-q)
    if u < _GAP_SERIES_BELOW:
        h = gap_series(u)
        d = 1.0 - u * h
        phi = h / (d * d)
    else:
        phi = (u / q) * (gap_ratio(u) / q)
    # (a / r^2) q^2 = b^2 / a, formed without r^2 or b / r; a / b, unlike b / a
    # at a subnormal a, is finite and nonzero wherever the threshold is normal
    return b * phi / (a / b)


def classify(params: AssetParams) -> CaseLabel:
    """Name the minimizer regime of the ownership cost.

    Comparisons are exact in floating point, so a knife-edge case (C2 or
    C4_2) is named only when the parameters sit on it exactly.
    """
    return economic_life(params).case


def economic_life(params: AssetParams) -> EconomicLifeResult:
    """Regime, global minimizers and minimum yearly cost of the ownership cost.

    The minimum cost uses the closed forms
    ``(e^r - 1)(A r + b)/r`` at age zero and
    ``(e^r - 1)/r^2 * (a + A r^2 + a W0(-e^(-1-c)))`` = ``(e^r - 1) a tau / r^2``
    at the interior optimum, rather than re-evaluating the piecewise cost.
    Both are formed from the scale (e^r - 1)/r, which lies in [1, e - 1], as
    scale * (A r + b) and scale * a * age, so that no r^2 can underflow.
    Comparisons are exact, as for :func:`classify`.
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
    min_cost = scale * (A * r + b)  # at age 0; C5 and C4_3 replace it
    flat = a == speed
    if tau is None:
        # a >= slope_threshold >= speed: the cost rises beyond the junction.
        # C3 would need a < speed here and cannot occur.
        if flat:
            junction = params.junction
            if junction == math.inf:
                raise ValueError(f"junction A/b = {A!r}/{b!r} overflows the float range")
            case, minimizers = CaseLabel.C2, MinimizerSet.closed_interval(0.0, junction)
        else:
            case, minimizers = CaseLabel.C1, _AT_ZERO
    elif interior_age == math.inf and (flat or a < speed or A <= A_threshold):
        # C5, C4_2 or C4_3: the interior optimum is a minimizer
        raise ValueError(f"interior optimum age tau/r = {tau!r}/{r!r} overflows the float range")
    elif flat or a < speed:
        case, minimizers = CaseLabel.C5, MinimizerSet.point(interior_age)
        min_cost = scale * a * interior_age
    elif A == A_threshold:
        case, minimizers = CaseLabel.C4_2, MinimizerSet.pair(0.0, interior_age)
    elif A > A_threshold:
        case, minimizers = CaseLabel.C4_1, _AT_ZERO
    else:
        case, minimizers = CaseLabel.C4_3, MinimizerSet.point(interior_age)
        min_cost = scale * a * interior_age

    return EconomicLifeResult(case, minimizers, min_cost, interior_age, c, a_threshold, A_threshold)
