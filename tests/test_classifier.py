import dataclasses
import math
import re
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    INSTANCE_C1,
    INSTANCE_C4_1,
    INSTANCE_C4_3,
    INSTANCE_C5,
    INSTANCE_FLAT,
    asset_params,
    draw_params,
    draw_wide_params,
    reference_cost,
)
from econlife import (
    AssetParams,
    CaseLabel,
    MinimizerSet,
    NumericError,
    acquisition_threshold,
    classify,
    economic_life,
    gap,
    interior_minimum_age,
    property_cost,
    slope_threshold,
    w0,
)
from econlife.lambert_w import _scaled_interior_age, gap_series


def bisect_gap_level(level: float, tol: float = 1e-13) -> float:
    """Solve gap(tau) == level on (0, 2000) by bisection."""
    lo, hi = 0.0, 2000.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) <= level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_gap_values():
    assert gap(0.0) == 0.0
    assert gap(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    values = [gap(tau) for tau in np.linspace(0.0, 50.0, 400).tolist()]
    assert all(b > a for a, b in zip(values, values[1:]))
    # against 60 digits from 1e-150, where gap ~ tau^2/2 is still normal, to 1e3;
    # tau - 1 + e^-tau itself cancels every digit as tau falls
    for tau in (10.0 ** (k / 20) for k in range(-3000, 61)):
        assert abs(Decimal(gap(tau)) / reference_gap(tau) - 1) <= Decimal("4e-15"), tau
    with pytest.raises(ValueError):
        gap(-0.1)


def test_interior_age_satisfies_gap_identity():
    for c in (0.01, 0.1, 1.0, 10.0, 100.0):
        # c == acquisition * rate^2 / slope; fix rate and slope, move acquisition
        p = AssetParams(c * 5.0 / 0.01, 5.0, 1.0, 0.1)
        tau = p.interest_rate * interior_minimum_age(p)
        assert abs(gap(tau) - c) <= 1e-10 * max(1.0, c)


def test_interior_age_example():
    # cost ratio 0.08; frozen from bisect_gap_level(0.08) / 0.1
    assert interior_minimum_age(INSTANCE_C4_3) == pytest.approx(4.285413437397186, abs=5e-12)
    assert interior_minimum_age(INSTANCE_C4_3) == pytest.approx(
        bisect_gap_level(0.08) / 0.1, abs=5e-12
    )


@settings(max_examples=200)
@given(asset_params())
def test_interior_age_beyond_junction_iff_slope_below_threshold(p):
    if p.maint_slope < slope_threshold(p):
        assert interior_minimum_age(p) > p.junction


def test_slope_threshold_example():
    # frozen from a 60-digit evaluation of A b r^2 / (A r + b (e^(-A r / b) - 1))
    assert slope_threshold(INSTANCE_C1) == pytest.approx(9.38696899744638, rel=1e-14)


@settings(max_examples=300)
@given(asset_params())
def test_slope_threshold_exceeds_depreciation_speed(p):
    assert slope_threshold(p) > p.depreciation_rate * p.interest_rate


@settings(max_examples=300)
@given(asset_params())
def test_slope_threshold_equivalent_to_gap_comparison(p):
    cost_ratio = p.acquisition_cost * p.interest_rate**2 / p.maint_slope
    below = p.maint_slope < slope_threshold(p)
    assert below == (gap(p.interest_rate * p.junction) < cost_ratio)


def test_acquisition_threshold_example():
    # a 60-digit evaluation of -(a/r^2) ln(1 - b r / a) - b / r, rounded to a double
    exact = Decimal("55.4128118829953428521859178138175261112845888860528456411001")
    assert acquisition_threshold(INSTANCE_C4_1) == float(exact)


def test_acquisition_threshold_requires_fast_maintenance_growth():
    with pytest.raises(ValueError):
        acquisition_threshold(INSTANCE_FLAT)  # slope == depreciation * rate
    with pytest.raises(ValueError):
        acquisition_threshold(INSTANCE_C5)  # slope below depreciation * rate


def test_acquisition_threshold_diverges_near_flat_line():
    b, r = 20.0, 0.1
    thresholds = [
        acquisition_threshold(AssetParams(100.0, b * r * (1.0 + eps), b, r))
        for eps in (1e-2, 1e-6, 1e-12)
    ]
    assert thresholds[0] < thresholds[1] < thresholds[2]
    assert thresholds[2] > 25.0 * (b / r)


def reference_log_tail(q: Decimal) -> Decimal:
    """-ln(1 - q) - q, summed as q^2/2 + q^3/3 + ... where that cancels."""
    if q > Decimal("0.5"):
        return -(1 - q).ln() - q
    total, power, k = Decimal(0), q, 1
    while True:
        k += 1
        power *= q
        term = power / k
        total += term
        if term <= total * Decimal("1e-45"):
            return total


def test_acquisition_threshold_matches_60_digits_at_every_ratio():
    # q = b r / a from 1e-300 to 1 - 1e-3, at a / r^2 = 1e300 so that the
    # threshold (a / r^2)(q^2/2 + ...) stays a normal float.  The direct
    # -log1p(-q) - q cancels as q falls and underflows to a negative price.
    worst = 0.0
    for r in (1.0, 0.3, 0.01):
        a = 1e300 * r * r
        for q in [10.0 ** (k / 10) for k in range(-3000, 0)] + [0.5, 0.9, 0.99, 1.0 - 1e-3]:
            p = AssetParams(1.0, a, q * a / r, r)
            threshold = acquisition_threshold(p)
            assert threshold > 0.0, p
            with localcontext(Context(prec=60)):
                exact_q = Decimal(p.depreciation_rate) * Decimal(r) / Decimal(a)
                exact = Decimal(a) / Decimal(r) ** 2 * reference_log_tail(exact_q)
                worst = max(worst, float(abs(Decimal(threshold) - exact) / exact))
    assert worst <= 1e-13


@pytest.mark.parametrize(
    "params, exact",
    [
        # 60-digit values of (a / r^2)(-ln(1 - q) - q) at the exact inputs
        (AssetParams(1.0, 1000.0, 0.02, 0.01), "2.00000026666670674993981571908556342243948760933958574436322e-7"),
        (AssetParams(1e-300, 1e300, 1e-300, 1.0), "0"),
    ],
)
def test_acquisition_threshold_at_small_ratio(params, exact):
    threshold = acquisition_threshold(params)
    assert threshold >= 0.0
    assert threshold == pytest.approx(float(Decimal(exact)), rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "params",
    [
        # q = b r / a is below 0.02; b r, q or b / r leaves the normal range
        AssetParams(1.3871443635239545e-223, 0.36873763345287747, 7.925279256138181e60, 4.0429885518382785e-292),
        AssetParams(5.645006926048722e-286, 2.9847573042450643e203, 6.052270385298395e-21, 1.448354315056656e-262),
        AssetParams(3.404252346699718e-264, 1.7019634371106018e222, 6.559233898583514e81, 8.40372800377437e-253),
        AssetParams(5.468780357165206e-141, 2.160533571766357e136, 2.3360324209756667e222, 1.5080385229525612e-206),
        # q >= 0.02; r * r is subnormal, or b / r overflows (exact threshold 8e333)
        AssetParams(11150.330290951208, 1.593751126921005e-120, 9.582203532999698e35, 7.686878586348481e-157),
        AssetParams(2.5981584310118634e232, 2.2820733824168043e108, 1.1445213816905323e221, 1.6859387109705804e-113),
    ],
)
def test_acquisition_threshold_where_intermediates_leave_the_normal_range(params):
    # the direct forms (b / r) q and a / r^2 give inf, 0, NaN, inf, 1e-11 off and NaN here
    a, b, r = (Decimal(v) for v in (params.maint_slope, params.depreciation_rate, params.interest_rate))
    with localcontext(Context(prec=60, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        exact = a / (r * r) * reference_log_tail(b * r / a)
    assert acquisition_threshold(params) == pytest.approx(float(exact), rel=1e-13, abs=0.0)


# The edges of the thresholds' series, where both thresholds are normal
# doubles: u = -log1p(-q) just below 0.1 and at it, q subnormal and q = 0;
# then r * junction subnormal, the least normal double, and either side of 0.1.
SERIES_EDGES = [
    AssetParams(1.0, 1.0, 0.09516258196404041, 1.0),
    AssetParams(1.0, 1.0, 0.09516258196404043, 1.0),
    AssetParams(1.0, 1e10, 1.0, 1e-300),
    AssetParams(1.0, 1e20, 1.0, 1e-310),
    AssetParams(1e-300, 2.0, 1.0, 1e-20),
    AssetParams(sys.float_info.min, 2.0, 1.0, 1.0),
    AssetParams(math.nextafter(0.1, 0.0), 2.0, 1.0, 1.0),
    AssetParams(0.1, 2.0, 1.0, 1.0),
]


def test_both_thresholds_over_the_whole_domain():
    # A, a and b log-uniform over +-300 decades, rate over [1e-300, 1]:
    # wherever a threshold is a normal double, it matches a 60-digit
    # reference, also where b r, r * junction, r^2 or b / r leave the double
    # range.  The slope threshold never rounds below b r.
    rng = np.random.default_rng(7)
    rows = list(SERIES_EDGES)
    for _ in range(1500):
        A, a, b = (10.0 ** rng.uniform(-300.0, 300.0, 3)).tolist()
        rows.append(AssetParams(A, a, b, float(10.0 ** rng.uniform(-300.0, 0.0))))
    normal = Decimal(sys.float_info.min), Decimal(sys.float_info.max)
    worst_tie = worst_slope = 0.0
    for p in rows:
        A, a, b, r = p.acquisition_cost, p.maint_slope, p.depreciation_rate, p.interest_rate
        slope = slope_threshold(p)
        assert slope >= b * r, p
        with localcontext(Context(prec=60, Emax=MAX_EMAX, Emin=MIN_EMIN)):
            A, a, b, r = (Decimal(v) for v in (A, a, b, r))
            x = r * A / b
            exact = b * r * x / reference_gap(x)
            if normal[0] <= exact <= normal[1]:
                worst_slope = max(worst_slope, float(abs(Decimal(slope) - exact) / exact))
            q = b * r / a
            exact = a / (r * r) * reference_log_tail(q) if q < 1 else Decimal(0)
            if normal[0] <= exact <= normal[1]:
                worst_tie = max(worst_tie, float(abs(Decimal(acquisition_threshold(p)) - exact) / exact))
    assert worst_tie <= 1e-15
    assert worst_slope <= 4e-15


def test_thresholds_stay_finite_at_a_subnormal_price_or_slope():
    # b / A and b / a overflow here, although 2 b^2 / A = 2.0e306 and the tie
    # threshold 5.4e307 are finite; the subnormal a / b keeps ~4 digits
    p = AssetParams(1e-320, 1.0, 1e-7, 0.5)
    assert slope_threshold(p) == pytest.approx(float(2 * Decimal(1e-7) ** 2 / Decimal(1e-320)), rel=1e-13)
    p = AssetParams(1e300, 1e-320, 1e-6, 1e-315)
    a, b, r = (Decimal(v) for v in (p.maint_slope, p.depreciation_rate, p.interest_rate))
    with localcontext(Context(prec=60, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        exact = a / (r * r) * reference_log_tail(b * r / a)
    assert acquisition_threshold(p) == pytest.approx(float(exact), rel=1e-3)


# r * r underflows to 0 and b / r overflows; the exact tie threshold, about
# 4e326, lies past the double range.  It used to raise ZeroDivisionError.
OVERFLOWING_THRESHOLD = AssetParams(
    4.047588322328179e259, 3.57842399108513e-88, 3.0693584168295437e119, 1.0223713365911213e-207
)


def test_economic_life_where_the_tie_threshold_overflows():
    assert acquisition_threshold(OVERFLOWING_THRESHOLD) == math.inf
    result = economic_life(OVERFLOWING_THRESHOLD)
    assert result.case is CaseLabel.C4_3
    assert result.minimizers.values == (4.756278391452046e173,)
    assert result.min_cost == 1.7019980704251793e86
    reference = reference_cost(OVERFLOWING_THRESHOLD, 4.756278391452046e173)
    assert abs(Decimal(result.min_cost) / reference - 1) <= Decimal("1e-17")


def test_economic_life_over_the_whole_domain():
    # A, a and b log-uniform over +-300 decades, rate over [1e-300, 1]: the
    # closed form may decline with a named error, but raises nothing else,
    # and what it returns is finite, non-negative and never NaN
    rng = np.random.default_rng(11)
    draws = 10.0 ** rng.uniform(-300.0, 300.0, (20_000, 4))
    draws[:, 3] = 10.0 ** rng.uniform(-300.0, 0.0, len(draws))
    for p in [OVERFLOWING_THRESHOLD] + [AssetParams(*row) for row in draws.tolist()]:
        try:
            result = economic_life(p)
        except (ValueError, NumericError):
            continue
        assert math.isfinite(result.min_cost) and result.min_cost >= 0.0, p
        assert result.acquisition_threshold is None or result.acquisition_threshold >= 0.0, p


def test_numpy_scalar_fields_answer_as_floats():
    # With np.float64 fields A/b would overflow by numpy's rules, which warn.
    fields = (1e300, 1e-10, 1e-300, 1e-200)
    p = AssetParams(*map(np.float64, fields))
    assert economic_life(p) == economic_life(AssetParams(*fields))
    assert repr(p) == repr(AssetParams(*fields))


def test_economic_life_names_an_overflowing_cost_ratio():
    p = AssetParams(1e300, 1e-300, 1.0, 1.0)  # A r^2 / a = 1e600
    with pytest.raises(ValueError, match=r"cost ratio A\*r\^2/a .* overflows"):
        economic_life(p)


def test_economic_life_names_an_overflowing_interior_optimum():
    # c = 4.5e288 is in range, but the optimum age tau/r = 9.4e404 y is not
    p = AssetParams(2.848728396932309e237, 1.4657058823610626e-284, 1.2066850579075393e183, 4.831403811351561e-117)
    with pytest.raises(ValueError, match=r"^interior optimum age tau/r = .* overflows the float range$"):
        economic_life(p)


def test_economic_life_names_an_overflowing_junction():
    # a == b r exactly: a C2 asset, whose minimizers run up to A/b = 1.1e312 y
    p = AssetParams(1e300, 2.0**-41, 2.0**-40, 0.5)
    message = r"^junction A/b = 1e\+300/9\.094947017729282e-13 overflows the float range$"
    with pytest.raises(ValueError, match=message):
        economic_life(p)


@pytest.mark.parametrize(
    "params",
    [
        AssetParams(1.0, 1e-10, 1.0, 1e-200),  # r^2 underflows; was a ZeroDivisionError
        AssetParams(1e-300, 1e30, 1e-100, 1.0),  # A r^2 / a = 1e-330; was C4_3 at age 0, cost 0
        # b r underflows to 0 too; a slope threshold formed from it read 0
        # and called both C1, although the cost falls far below its value at
        # age 0 past the junction
        AssetParams(3.272942103383382e-177, 4.127341197816655e-234, 2.7033611022228657e-157, 2.5684623474568874e-233),
        AssetParams(1.5419855818383203e-36, 5.4749114289142463e-157, 3.1548510694144076e-59, 1.0261909482037181e-271),
    ],
)
def test_economic_life_names_an_underflowing_cost_ratio(params):
    with pytest.raises(ValueError, match=r"cost ratio A\*r\^2/a .* underflows to 0"):
        economic_life(params)
    with pytest.raises(ValueError, match="underflows to 0"):
        interior_minimum_age(params)


def test_c1_at_a_vanishing_rate_never_needs_the_cost_ratio():
    # r^2 underflows here too, but the cost rises everywhere, so no interior
    # age is solved for
    p = AssetParams(1.0, 10.0, 1.0, 1e-200)
    result = economic_life(p)
    assert result.case is CaseLabel.C1 and result.minimizers.values == (0.0,)
    assert result.min_cost == 1.0 and result.cost_ratio == 0.0


def test_threshold_instance_balances_both_optima():
    p0 = AssetParams(acquisition_threshold(INSTANCE_C4_1), 5.0, 20.0, 0.1)
    h0 = property_cost(p0, 0.0)
    h_star = property_cost(p0, interior_minimum_age(p0))
    assert abs(h0 - h_star) <= 1e-9 * h0


@pytest.mark.parametrize(
    "params, expected",
    [
        (INSTANCE_C1, CaseLabel.C1),
        (INSTANCE_C4_1, CaseLabel.C4_1),
        (INSTANCE_C4_3, CaseLabel.C4_3),
        (INSTANCE_C5, CaseLabel.C5),
        # On the flat line the threshold condition for C2 cannot hold, so the
        # interior optimum still wins.
        (INSTANCE_FLAT, CaseLabel.C5),
    ],
)
def test_classify_examples(params, expected):
    assert classify(params) is expected


def test_classify_boundary_is_c4_2():
    # The threshold depends only on (slope, depreciation, rate), so setting the
    # acquisition cost to its float value makes the equality comparison exact.
    boundary = AssetParams(acquisition_threshold(INSTANCE_C4_1), 5.0, 20.0, 0.1)
    assert classify(boundary) is CaseLabel.C4_2
    result = economic_life(boundary)
    assert result.minimizers.kind == "two_points"
    first, second = result.minimizers.values
    assert first == 0.0 and second == pytest.approx(interior_minimum_age(boundary))


def test_classify_tolerance_band():
    th = acquisition_threshold(INSTANCE_C4_1)
    near = AssetParams(th * (1.0 + 1e-12), 5.0, 20.0, 0.1)
    assert classify(near) is CaseLabel.C4_1


def test_classifier_never_emits_unreachable_cases(rng):
    for _ in range(3000):
        label = classify(draw_params(rng))
        assert label not in (CaseLabel.C2, CaseLabel.C3)


@settings(max_examples=200)
@given(asset_params())
def test_min_cost_matches_cost_at_each_minimizer(p):
    result = economic_life(p)
    for t in result.minimizers.values:
        assert result.min_cost == pytest.approx(property_cost(p, t), rel=1e-10)


@settings(max_examples=150)
@given(asset_params())
def test_result_field_presence(p):
    result = economic_life(p)
    assert (result.interior_minimum_age is not None) == (p.maint_slope < result.slope_threshold)
    assert (result.acquisition_threshold is not None) == (
        p.maint_slope > p.depreciation_rate * p.interest_rate
    )
    assert result.cost_ratio == pytest.approx(
        p.acquisition_cost * p.interest_rate**2 / p.maint_slope, rel=1e-15
    )
    if result.interior_minimum_age is not None:
        assert result.interior_minimum_age > p.junction


@pytest.mark.parametrize("params", [INSTANCE_C1, INSTANCE_C4_1, INSTANCE_C4_3, INSTANCE_C5, INSTANCE_FLAT])
def test_min_cost_is_global_on_dense_grid(params):
    result = economic_life(params)
    horizon = max(3.0 * (result.interior_minimum_age or 0.0), 2.0 * params.junction, 10.0)
    ages = np.linspace(0.0, horizon, 20001)
    values = property_cost(params, ages)
    assert result.min_cost <= values.min() * (1.0 + 1e-9)


def test_minimizer_set_validation():
    nonfinite_or_negative = [
        (kind, values)
        for bad in (math.nan, math.inf, -math.inf, -1.0)
        for kind, values in (
            ("single_point", (bad,)),
            ("two_points", (0.0, bad)),
            ("interval", (bad, 5.0)),
            ("two_points", (bad,)),  # checked before the count
        )
    ]
    errors = [
        ("interval", (3.0, 1.0), "interval carries two strictly ordered values"),
        ("interval", (1.0, 1.0), "interval carries two strictly ordered values"),
        ("two_points", (2.0,), "two_points carries two strictly ordered values"),
        ("single_point", (1.0, 2.0), "single_point carries exactly one value"),
        ("single_point", (), "single_point carries exactly one value"),
        ("nonsense", (1.0,), "kind must be one of ('single_point', 'two_points', 'interval')"),
        ("nonsense", (math.nan,), "kind must be one of ('single_point', 'two_points', 'interval')"),
        *((kind, values, "minimizers must be finite and >= 0") for kind, values in nonfinite_or_negative),
    ]
    for kind, values, message in errors:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MinimizerSet(kind, values)
    with pytest.raises(ValueError, match="^minimizers must be finite and >= 0$"):
        MinimizerSet.point(-1.0)
    assert MinimizerSet.closed_interval(0.0, 5.0).values == (0.0, 5.0)
    # the constructors store plain floats
    assert MinimizerSet.closed_interval(0, 5.0) == MinimizerSet("interval", (0.0, 5.0))
    assert type(MinimizerSet.pair(0.0, np.float64(2.0)).values[1]) is float


def test_a_minimizer_set_given_a_list_stores_a_tuple():
    # values is stored as a tuple, so the set and any result carrying it
    # stay hashable and print as the classmethods' sets do.
    given = MinimizerSet("interval", [0.0, 1.0])
    assert type(given.values) is tuple and given == MinimizerSet.closed_interval(0.0, 1.0)
    assert hash(given) == hash(MinimizerSet.closed_interval(0.0, 1.0))
    assert repr(given) == "MinimizerSet(kind='interval', values=(0.0, 1.0))"
    result = dataclasses.replace(economic_life(INSTANCE_C4_1), minimizers=MinimizerSet("single_point", [0.0]))
    assert hash(result) == hash(economic_life(INSTANCE_C4_1))


RESULT_FIELDS = [
    "case",
    "minimizers",
    "min_cost",
    "interior_minimum_age",
    "cost_ratio",
    "slope_threshold",
    "acquisition_threshold",
]


@pytest.mark.parametrize(
    "value, names, change",
    [
        (
            INSTANCE_C1,
            ["acquisition_cost", "maint_slope", "depreciation_rate", "interest_rate"],
            dict(interest_rate=0.2),
        ),
        (MinimizerSet.pair(0.0, 5.0), ["kind", "values"], dict(values=(1.0, 2.0))),
        (economic_life(INSTANCE_C4_1), RESULT_FIELDS, dict(min_cost=1.0, interior_minimum_age=None)),
    ],
)
def test_value_objects_are_frozen_dataclasses(value, names, change):
    cls = type(value)
    assert [f.name for f in dataclasses.fields(cls)] == names
    assert vars(value) == {name: getattr(value, name) for name in names}
    same = dataclasses.replace(value)
    assert same == value and hash(same) == hash(value) and same is not value
    changed = dataclasses.replace(value, **change)
    assert changed != value and {n: getattr(changed, n) for n in change} == change
    assert dataclasses.replace(changed, **{n: getattr(value, n) for n in change}) == value
    assert repr(value) == f"{cls.__name__}(" + ", ".join(f"{n}={getattr(value, n)!r}" for n in names) + ")"
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)


def test_economic_life_repr():
    assert repr(economic_life(INSTANCE_C4_1)) == (
        "EconomicLifeResult(case=<CaseLabel.C4_1: 'C4_1'>, "
        "minimizers=MinimizerSet(kind='single_point', values=(0.0,)), min_cost=31.55127542269429, "
        "interior_minimum_age=7.067605762248466, cost_ratio=0.2, slope_threshold=9.38696899744638, "
        "acquisition_threshold=55.41281188299534)"
    )


def reference_gap(tau: float | Decimal) -> Decimal:
    """gap(tau) in 60-digit decimal arithmetic, by its series below 1/2."""
    with localcontext(Context(prec=60)):
        t = Decimal(tau)
        if t > Decimal("0.5"):
            return t - 1 + (-t).exp()
        # sum_{k >= 2} (-t)^k / k!, free of the cancellation in t - 1 + e^-t
        total, term, k = Decimal(0), -t, 1
        while True:
            k += 1
            term = -term * t / k
            total += term
            if abs(term) <= abs(total) * Decimal("1e-45"):
                return total


def test_gap_series_matches_60_digits_on_both_sides_of_zero():
    # The one series behind the interior age, both thresholds (x >= 0) and
    # the cost kernel (x <= 0): arrays and floats give the same bits.
    edge = math.nextafter(0.1, 0.0)
    tiny = np.geomspace(5e-324, 1e-3, 400)
    xs = np.concatenate([np.linspace(-edge, edge, 2001), tiny, -tiny, [0.0, edge, -edge]])
    values = gap_series(xs)
    assert np.array_equal(values, [gap_series(x) for x in xs.tolist()])
    assert gap_series(0.0) == 0.5
    with localcontext(Context(prec=60)):
        for x, h in zip(xs.tolist(), values.tolist()):
            exact = reference_gap(x) / Decimal(x) ** 2 if x else Decimal("0.5")
            assert abs(Decimal(h) / exact - 1) <= Decimal("2e-16"), x


def test_interior_age_gap_identity_at_every_cost_ratio():
    # Near c = 0 the argument -e^(-1-c) of W0 rounds onto the branch point,
    # which a closed form evaluated from that argument cannot survive.
    worst = 0.0
    for k in range(-3000, 31):
        c = 10.0 ** (k / 10)
        p = AssetParams(c, 1.0, 1.0, 1.0)  # cost ratio A r^2 / a == c exactly
        tau = interior_minimum_age(p)
        with localcontext(Context(prec=60)):
            error = float(abs(reference_gap(tau) - Decimal(c)) / Decimal(c))
        worst = max(worst, error)
    assert worst <= 4e-15


def test_interior_age_agrees_with_halley_in_w():
    # Away from the branch point w0 iterates on w e^w = z, while the interior
    # age iterates on gap(tau) = c; the two routes meet within a few ulp.
    for c in np.geomspace(0.21, 700.0, 400).tolist():
        tau = _scaled_interior_age(c)
        assert abs(1.0 + c + w0(-math.exp(-1.0 - c)) - tau) <= 8.0 * math.ulp(tau), c


@pytest.mark.parametrize(
    "params",
    [AssetParams(1.0, 1e12, 1e8, 0.01), AssetParams(1.0, 1e8, 1e8, 0.01)],
)
def test_min_cost_near_the_branch_point(params):
    # cost ratios 1e-16 and 1e-12: the optimum sits just past a tiny
    # full-depreciation age, at rate * age ~ sqrt(2 c)
    result = economic_life(params)
    (t,) = result.minimizers.values
    c = result.cost_ratio
    assert t == pytest.approx(math.sqrt(2.0 * c) / params.interest_rate, rel=1e-5)
    assert t > params.junction
    assert result.min_cost == pytest.approx(property_cost(params, t), rel=1e-12)


@pytest.mark.parametrize(
    "params",
    [
        AssetParams(1e-300, 1.0, 1.0, 1.0),
        AssetParams(1e-200, 1.0, 1.0, 0.5),
        AssetParams(5e-324, 1.0, 1.0, 1.0),
    ],
)
def test_slope_threshold_at_vanishing_full_depreciation_age(params):
    # gap(rate * junction) underflows to 0 here; the threshold must not
    # divide by it
    threshold = slope_threshold(params)
    assert threshold > params.depreciation_rate * params.interest_rate
    result = economic_life(params)
    assert result.case in (CaseLabel.C4_3, CaseLabel.C5)
    (t,) = result.minimizers.values
    assert t > params.junction and math.isfinite(result.min_cost)


def test_slope_threshold_never_rounds_below_depreciation_speed():
    for k in range(-300, 301, 3):
        p = AssetParams(1.0, 1.0, 2.0 * 10.0 ** -k, 0.5)  # rate * junction == 10^k
        assert slope_threshold(p) >= p.depreciation_rate * p.interest_rate
    # At rate * junction ~ 8e17 the quotient A r^2 / gap(x) rounds one ulp
    # below b r, which would make C3 reachable.
    A, b, r = 7771.686176112378, 1.5080063814474131e-15, 0.15727637211017295
    base = AssetParams(A, 1.0, b, r)
    a = 0.5 * (slope_threshold(base) + b * r)
    p = AssetParams(A, a, b, r)
    assert slope_threshold(p) >= b * r
    result = economic_life(p)
    assert result.case is not CaseLabel.C3 and classify(p) is result.case
    assert result.min_cost == pytest.approx(property_cost(p, 0.0), rel=1e-12)


@pytest.mark.parametrize("draw", [draw_params, draw_wide_params])
def test_every_result_obeys_its_invariants(draw):
    rng = np.random.default_rng(20261018)
    for _ in range(2000):
        p = draw(rng)
        result = economic_life(p)
        for t in result.minimizers.values:
            if t > 0.0 and t == result.interior_minimum_age:
                assert t > p.junction, p
            assert result.min_cost == pytest.approx(property_cost(p, t), rel=1e-12), p


def test_min_cost_where_rate_squared_underflows():
    # r * r underflows to 0 although the cost ratio is 8.9e31, so forming the
    # interior cost as (e^r - 1) a tau / r^2 divided by zero
    params = AssetParams(
        4.97543010107662e280, 1.0055933982423786e-171, 1.1457703164723914e103, 1.3366707472685276e-210
    )
    result = economic_life(params)
    assert result.case is CaseLabel.C5
    (t,) = result.minimizers.values
    exact = reference_cost(params, t)
    assert abs(Decimal(result.min_cost) - exact) <= Decimal("1e-12") * exact


def log_uniform_fuzz(decades):
    """1,500 draws of (A, a, b, r): A, a and b at 10**uniform(-D, D), r at
    10**uniform(-D, 0), drawn in that order from a fresh default_rng(7)."""
    rng = np.random.default_rng(7)
    for _ in range(1500):
        A, a, b = (float(10.0 ** rng.uniform(-decades, decades)) for _ in range(3))
        yield A, a, b, float(10.0 ** rng.uniform(-decades, 0.0))


@pytest.mark.parametrize("decades, tested, inaccurate", [(6, 1500, 0), (100, 1467, 24)])
def test_the_case_and_the_scaled_optimum_depend_on_c_and_q_alone(decades, tested, inaccurate):
    # With c = A r^2 / a, q = b r / a and x = r t, the cost is
    # scale(r) (a/r) H(x; c, q), and H is (e - 1)^-1 times the cost of the
    # canonical asset AssetParams(c, 1, q, 1).  So an asset and its canonical
    # asset have the same case, minimizers that agree bit for bit once the
    # canonical ones are divided by r, and minimum costs and costs (the
    # canonical at x = r t) that agree after scaling within a few ulp: four
    # for min_cost (three at the worst of these rows), eight for
    # property_cost (five at the worst of the 7,500 points of D = 6).  The
    # law is tested where the computed c and q are normal and within 2 eps
    # of their exact values (by fractions.Fraction); the rows where they are
    # not, 24 at D = 100 and none at D = 6, are counted, not tested: a c
    # formed inaccurately is a known defect of the closed form at extreme
    # ratios.  The rows economic_life refuses (9 at D = 100) are skipped.
    eps, checked, skipped = sys.float_info.epsilon, 0, 0
    ages = np.array([0.01, 0.3, 1.0, 3.0, 30.0])  # x = r t
    for A, a, b, r in log_uniform_fuzz(decades):
        try:
            result = economic_life(AssetParams(A, a, b, r))
        except ValueError:
            continue
        c, q = A * r * r / a, b * r / a
        exact = (Fraction(A) * Fraction(r) ** 2 / Fraction(a), Fraction(b) * Fraction(r) / Fraction(a))
        if not all(sys.float_info.min <= v < math.inf and abs(Fraction(v) - e) <= 2 * eps * e for v, e in zip((c, q), exact)):
            skipped += 1
            continue
        checked += 1
        canonical = economic_life(AssetParams(c, 1.0, q, 1.0))
        assert canonical.case == result.case, (A, a, b, r)
        assert result.minimizers.values == tuple(x / r for x in canonical.minimizers.values), (A, a, b, r)
        factor = math.expm1(r) / r * (a / r)
        law = factor * (canonical.min_cost / (math.e - 1.0))
        assert abs(law - result.min_cost) <= 4 * math.ulp(result.min_cost), (A, a, b, r)
        if decades == 6:
            t = ages / r
            costs = property_cost(AssetParams(A, a, b, r), t)
            laws = factor * (property_cost(AssetParams(c, 1.0, q, 1.0), r * t) / (math.e - 1.0))
            assert np.all(np.abs(laws - costs) <= 8 * np.spacing(costs)), (A, a, b, r)
    assert (checked, skipped) == (tested, inaccurate)
