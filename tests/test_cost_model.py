import math
import re
import sys
import tracemalloc
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    INSTANCE_C1,
    INSTANCE_C4_3,
    INSTANCE_FLAT,
    asset_params,
    draw_params,
    draw_wide_params,
    reference_cost,
    reference_costs,
)
from econlife import (
    AssetParams,
    CostSample,
    capital_cost,
    curve,
    maintenance,
    maintenance_cost,
    property_cost,
    property_cost_derivative,
    salvage,
)
from econlife import oracle
from econlife.cost_model import cost_and_slope_pieces, cost_of_pieces, cost_pieces
from econlife.lambert_w import _GAP_SERIES_BELOW


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(acquisition_cost=0.0), "acquisition_cost"),
        (dict(acquisition_cost=-3.0), "acquisition_cost"),
        (dict(maint_slope=0.0), "maint_slope"),
        (dict(depreciation_rate=0.0), "depreciation_rate"),
        (dict(interest_rate=0.0), "interest_rate"),
        (dict(interest_rate=1.5), "interest_rate"),
        (dict(interest_rate=float("nan")), "interest_rate"),
        *(
            (dict([(name, value)]), f"{name} must be > 0")
            for name in ("acquisition_cost", "maint_slope", "depreciation_rate")
            for value in (-0.0, -3.0, INF, -INF, NAN)
        ),
        (dict(interest_rate=INF), "interest_rate must be in (0, 1]"),
        (dict(interest_rate=-0.1), "interest_rate must be in (0, 1]"),
        # several bad fields: the first in field order is named
        (dict(acquisition_cost=NAN, maint_slope=-1.0, interest_rate=2.0), "acquisition_cost must be > 0"),
        (dict(maint_slope=INF, depreciation_rate=0.0), "maint_slope must be > 0"),
        (dict(depreciation_rate=-INF, interest_rate=NAN), "depreciation_rate must be > 0"),
    ],
)
def test_params_validation(kwargs, message):
    fields = dict(acquisition_cost=100.0, maint_slope=5.0, depreciation_rate=20.0, interest_rate=0.1)
    fields.update(kwargs)
    with pytest.raises(ValueError, match=re.escape(message)):
        AssetParams(**fields)


def test_params_are_plain_floats():
    # numpy scalars would warn where a quotient overflows and print as np.float64(...)
    p = AssetParams(np.float64(100.0), 5, np.float32(20.0), np.float64(0.1))
    assert [type(v) for v in vars(p).values()] == [float] * 4
    assert p == AssetParams(100.0, 5.0, 20.0, 0.1)
    assert repr(p) == (
        "AssetParams(acquisition_cost=100.0, maint_slope=5.0, depreciation_rate=20.0, interest_rate=0.1)"
    )


def test_junction_age():
    assert INSTANCE_C1.junction == 5.0


def test_maintenance_values():
    p = AssetParams(100.0, 5.0, 20.0, 0.1)
    assert maintenance(p, 0.0) == 0.0
    assert maintenance(p, 2.0) == 10.0
    q = AssetParams(100.0, 0.01, 20.0, 0.1)
    assert maintenance(q, 100.0) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        maintenance(p, -1.0)


def test_salvage_values():
    p = INSTANCE_C1  # junction at 5 years
    assert salvage(p, 0.0) == 100.0
    assert salvage(p, 2.5) == 50.0
    assert salvage(p, 5.0) == 0.0
    assert salvage(p, 7.0) == 0.0
    ages = np.array([4.999999999, 5.000000001])
    values = salvage(p, ages)
    assert values[0] >= 0.0 and values[1] == 0.0
    with pytest.raises(ValueError):
        salvage(p, -0.5)


def test_salvage_far_past_the_junction_is_zero_without_a_warning():
    # b t overflows at t = 1e307, yet the resale value there is 0
    p = INSTANCE_C4_3
    assert salvage(p, 1e307) == 0.0
    assert np.array_equal(salvage(p, np.array([[1.0, 1e307], [math.inf, 0.0]])), [[20.0, 0.0], [0.0, 40.0]])


def test_capital_cost_zero_age_limit():
    p = INSTANCE_C1
    closed = math.expm1(0.1) * (100.0 * 0.1 + 20.0) / 0.1
    assert capital_cost(p, 0.0) == pytest.approx(closed, rel=1e-15)
    assert capital_cost(p, 1e-8) == pytest.approx(closed, rel=1e-6)


def test_capital_cost_large_age_asymptote():
    p = INSTANCE_C1
    t = 50.0 / p.interest_rate
    assert capital_cost(p, t) == pytest.approx(
        p.acquisition_cost * math.expm1(p.interest_rate), rel=1e-12
    )


def test_capital_cost_continuous_at_junction():
    p = INSTANCE_C1
    j = p.junction
    assert capital_cost(p, j - 1e-9) == pytest.approx(capital_cost(p, j + 1e-9), rel=1e-9)


def test_maintenance_cost_zero_and_small_age():
    p = AssetParams(100.0, 5.0, 20.0, 0.1)
    assert maintenance_cost(p, 0.0) == 0.0
    t = 1e-6
    first_order = p.maint_slope * t / 2.0 * math.expm1(p.interest_rate) / p.interest_rate
    assert maintenance_cost(p, t) == pytest.approx(first_order, rel=1e-5)


@settings(max_examples=150)
@given(asset_params(), st.floats(0.0, 2.5))
def test_property_cost_decomposition(p, u):
    t = u * p.junction
    h = property_cost(p, t)
    assert h == pytest.approx(capital_cost(p, t) + maintenance_cost(p, t), rel=1e-10)


def test_property_cost_constant_when_slope_matches_depreciation_speed():
    p = INSTANCE_FLAT  # maint_slope == depreciation_rate * interest_rate
    ages = np.linspace(1e-9, p.junction * (1.0 - 1e-9), 500)
    values = property_cost(p, ages)
    spread = (values.max() - values.min()) / values.mean()
    assert spread <= 1e-12
    expected = math.expm1(p.interest_rate) * (p.depreciation_rate + p.acquisition_cost * p.interest_rate) / p.interest_rate
    assert values[0] == pytest.approx(expected, rel=1e-14)


@settings(max_examples=150)
@given(asset_params())
def test_property_cost_junction_continuity(p):
    j = p.junction
    mid = property_cost(p, j)
    assert abs(property_cost(p, j - 1e-8) - property_cost(p, j + 1e-8)) <= 1e-5 * abs(mid)


@settings(max_examples=100)
@given(asset_params())
def test_property_cost_zero_age_limit(p):
    closed = (
        math.expm1(p.interest_rate)
        * (p.acquisition_cost * p.interest_rate + p.depreciation_rate)
        / p.interest_rate
    )
    assert property_cost(p, 0.0) == pytest.approx(closed, rel=1e-15)
    # At 1e-8 years the value moves off h(0) by ~h'(0) * 1e-8; only instances
    # where that genuine first-order term stays below the tolerance can attest
    # to the limit itself.
    slope_at_zero = (
        math.expm1(p.interest_rate)
        * (p.maint_slope - p.depreciation_rate * p.interest_rate)
        / (2.0 * p.interest_rate)
    )
    assume(abs(slope_at_zero) * 1e-8 <= 0.3e-6 * closed)
    assert property_cost(p, 1e-8) == pytest.approx(closed, rel=1e-6)


@settings(max_examples=200)
@given(asset_params(), st.floats(1e-6, 1.0 - 1e-9))
def test_derivative_sign_below_junction(p, u):
    t = u * p.junction
    speed = p.depreciation_rate * p.interest_rate
    d = property_cost_derivative(p, t)
    if p.maint_slope > speed:
        assert d > 0.0
    elif p.maint_slope < speed:
        assert d < 0.0


@pytest.mark.parametrize(
    "p, u",
    [
        (AssetParams(457.0, 457.0, 602.1395537688517, 0.7589602728131565), 0.765625),
        (AssetParams(457.0, 457.0, 522.2857142857143, 0.875), 0.75),
    ],
    ids=["a_above_b_r", "a_below_b_r"],
)
def test_derivative_sign_where_a_and_b_r_lie_an_ulp_apart(p, u):
    # a q' and (b r) q' round to one double here, so P - N is 0 although
    # a and b r differ by an ulp of a; the slope keeps the sign of a - b r.
    t = u * p.junction
    gap = p.maint_slope - p.depreciation_rate * p.interest_rate
    assert abs(gap) == math.ulp(p.maint_slope)
    rising, falling = cost_and_slope_pieces(p, np.array([t]))[2:4]
    assert rising[0] == falling[0]
    d = property_cost_derivative(p, t)
    assert d != 0.0 and math.copysign(1.0, d) == math.copysign(1.0, gap)
    scale = math.expm1(p.interest_rate) / p.interest_rate
    assert d == pytest.approx(scale * gap * rising[0] / p.maint_slope, rel=1e-15)


def test_derivative_exactly_zero_on_flat_segment():
    p = INSTANCE_FLAT
    for t in (0.1, 1.0, 4.9):
        assert property_cost_derivative(p, t) == 0.0


# either side of the junction; test_derivative_domain_errors covers the junction itself
@pytest.mark.parametrize(
    "t", [0.5, INSTANCE_C4_3.junction * (1.0 - 1e-3), INSTANCE_C4_3.junction * (1.0 + 1e-3), 4.0, 6.0, 9.0, 30.0]
)
def test_derivative_matches_finite_difference(t):
    p = INSTANCE_C4_3
    delta = 1e-6
    fd = (property_cost(p, t + delta) - property_cost(p, t - delta)) / (2.0 * delta)
    assert property_cost_derivative(p, t) == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("t", [0.5, 1e-3])
def test_derivative_at_a_subnormal_maint_slope(t):
    # a q/r keeps no digits of q/r at a = 5e-324, so q' must not be read back
    # from it; the reference is a central difference of the decimal cost
    p = AssetParams(1.0, 5e-324, 1.0, 0.1)
    with localcontext(Context(prec=60)):
        age, h = Decimal(t), Decimal(t) * Decimal("1e-15")
        exact = (reference_cost(p, age + h) - reference_cost(p, age - h)) / (2 * h)
    assert abs(Decimal(property_cost_derivative(p, t)) / exact - 1) <= Decimal("1e-14")


def test_derivative_domain_errors():
    p = INSTANCE_C1
    with pytest.raises(ValueError):
        property_cost_derivative(p, 0.0)
    with pytest.raises(ValueError):
        property_cost_derivative(p, -1.0)
    with pytest.raises(ValueError, match="one-sided"):
        property_cost_derivative(p, p.junction)


def test_vectorized_matches_scalar():
    p = INSTANCE_C4_3
    ages = np.array([0.0, 0.3, p.junction, 4.0, 17.5])
    for fn in (salvage, maintenance, capital_cost, maintenance_cost, property_cost):
        batch = fn(p, ages)
        assert batch.shape == ages.shape
        for t, v in zip(ages, batch):
            assert fn(p, float(t)) == v
    d_ages = np.array([0.5, 4.0, 30.0])
    batch = property_cost_derivative(p, d_ages)
    for t, v in zip(d_ages, batch):
        assert property_cost_derivative(p, float(t)) == v


def test_costs_reach_their_asymptotes_past_rate_age_700():
    # The last asset's junction lies at rate * age 5000: its first two ages are
    # below the junction.
    for params in (INSTANCE_C1, INSTANCE_C4_3, AssetParams(1.0, 1.0, 1e-4, 0.5)):
        A, a, r = params.acquisition_cost, params.maint_slope, params.interest_rate
        i_eff = math.expm1(r)
        ages = np.array([700.0, 710.0, 1e4, 1e300, np.inf]) / r
        asymptotes = {
            property_cost: i_eff / r**2 * (a + A * r**2),
            capital_cost: i_eff * A,
            maintenance_cost: i_eff * a / r**2,
        }
        for fn, value in asymptotes.items():
            assert np.all(np.abs(fn(params, ages) - value) <= 1e-15 * value), (params, fn)
            for t in ages.tolist():
                h = fn(params, t)
                assert type(h) is float and abs(h - value) <= 1e-15 * value, (params, fn, t)
        # The evaluated cost is constant past the hold, so its slope is 0.
        past = ages[1:]
        assert np.array_equal(property_cost_derivative(params, past), np.zeros(past.size))
        assert all(property_cost_derivative(params, t) == 0.0 for t in past.tolist())


def test_curve_grid_and_identity():
    samples = curve(INSTANCE_C1, t_max=10.0, step=1.0)
    assert type(samples) is CostSample
    for column in samples:
        assert type(column) is np.ndarray and column.dtype == float and column.shape == (11,)
    assert samples.t.tolist() == pytest.approx(list(range(11)))
    assert np.array_equal(samples.property_cost, samples.capital_cost + samples.maintenance_cost)


def test_curve_maintenance_column_non_decreasing():
    samples = curve(AssetParams(100.0, 5.0, 20.0, 0.1), 20.0, 0.05)
    assert np.all(np.diff(samples.maintenance_cost) >= 0)


@pytest.mark.parametrize(
    "params",
    [INSTANCE_C1, INSTANCE_C4_3, INSTANCE_FLAT, draw_wide_params(np.random.default_rng(29))],
)
def test_curve_columns_are_the_evaluators_on_its_grid(params):
    # The grid path and the public evaluators share one kernel: bit for bit.
    samples = curve(params, t_max=2.0 * params.junction, step=params.junction / 250.0)
    assert np.array_equal(samples.capital_cost, capital_cost(params, samples.t))
    assert np.array_equal(samples.maintenance_cost, maintenance_cost(params, samples.t))
    assert np.array_equal(samples.property_cost, samples.capital_cost + samples.maintenance_cost)


def test_curve_input_errors():
    with pytest.raises(ValueError):
        curve(INSTANCE_C1, t_max=10.0, step=0.0)
    with pytest.raises(ValueError):
        curve(INSTANCE_C1, t_max=1.0, step=2.0)
    for t_max, step in ((math.inf, 1.0), (math.nan, 1.0), (10.0, math.nan), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="t_max < inf"):
            curve(INSTANCE_C1, t_max=t_max, step=step)
    with pytest.raises(ValueError, match="1000001 points, more than 1000000"):
        curve(INSTANCE_C1, t_max=1000.0, step=1e-3)


@pytest.mark.parametrize(
    "params",
    [
        INSTANCE_C1,
        INSTANCE_C4_3,
        INSTANCE_FLAT,
        AssetParams(4295.2, 4.27e21, 3.25e14, 0.1648),  # junction 1.3e-11 y, cost ratio 2.7e-20
        AssetParams(1.0, 1e-10, 1.0, 1e-150),  # x = r t underflows to 0 at the least ages
        AssetParams(1e4, 1.0, 1e3, 1.0),
    ],
)
def test_costs_match_the_cash_flow_definition(params):
    r, j = params.interest_rate, params.junction
    cap = 700.0 / r
    ages = np.concatenate(
        [
            [0.0, -0.0, 5e-324, 1e-300, 0.1 / r, np.nextafter(0.1 / r, 0.0)],
            np.geomspace(1e-300, cap, 3001),
            np.linspace(0.0, 0.2 / r, 501),  # across the series cutoff
            [np.nextafter(j, 0.0), j, np.nextafter(j, np.inf)],
            np.linspace(0.5 * j, 1.5 * j, 501),
            [cap, np.nextafter(cap, 0.0)],
        ]
    )
    ages = ages[r * ages <= 700.0]
    reference = [reference_costs(params, t) for t in ages.tolist()]
    exact = {
        capital_cost: [g for g, _ in reference],
        maintenance_cost: [f for _, f in reference],
        property_cost: [g + f for g, f in reference],
    }
    for fn, values in exact.items():
        out = fn(params, ages)
        assert out.shape == ages.shape
        # A few ulp; a value below the normal range holds fewer digits, and
        # there the bound is absolute, at the least normal double.
        bound = [Decimal("4e-15") * v + Decimal(sys.float_info.min) for v in values]
        bad = [(t, h, v) for t, h, v, e in zip(ages.tolist(), out.tolist(), values, bound)
               if not abs(Decimal(h) - v) <= e]
        assert not bad, (fn.__name__, bad[:3])
        grid = ages[: 2 * (ages.size // 2)].reshape(2, -1)
        assert np.array_equal(fn(params, grid), out[: grid.size].reshape(grid.shape))
        for t, value in zip(ages[::37].tolist(), out[::37].tolist()):
            h = fn(params, t)
            assert type(h) is float and h == value


def test_costs_where_rate_times_age_underflows():
    # r t underflows, or its square does, at ages where the costs are well
    # inside the double range.
    assert property_cost(AssetParams(1.0, 1e-10, 1.0, 1e-150), 1e-300) == 1.0
    assert capital_cost(AssetParams(1.0, 1e-10, 1.0, 1e-150), 1e-300) == 1.0
    assert maintenance_cost(AssetParams(1.0, 10.0, 1.0, 1e-150), 1e-20) == pytest.approx(5e-20, rel=1e-15)
    ages = np.array([0.0, 1.0, 2.0])  # the junction lies at 1
    assert np.array_equal(property_cost(AssetParams(1.0, 10.0, 1.0, 1e-200), ages), [1.0, 6.0, 10.5])
    for t in (1e-140, 1e-300):
        slope = property_cost_derivative(AssetParams(1.0, 10.0, 1.0, 1e-150), t)
        assert slope == pytest.approx(5.0, rel=1e-15)


def test_costs_stay_finite_at_a_subnormal_rate():
    # At r = 1e-310, 1/r overflows.  At age inf, where q = 1, so does q/r,
    # although the maintenance cost there, scale a/r with scale = 1 to the
    # last bit, is about 1e10.  At the largest finite age q/r is below t/2;
    # there x = 0.018, and the bound is that of the cash-flow test.
    p = AssetParams(1.0, 1e-300, 1.0, 1e-310)
    ages = [sys.float_info.max, math.inf]
    g, f = reference_costs(p, ages[0])
    limit = p.maint_slope / p.interest_rate
    for fn, values in ((maintenance_cost, [f, limit]), (property_cost, [g + f, limit])):
        expected = pytest.approx([float(v) for v in values], rel=4e-15)
        assert fn(p, np.array(ages)).tolist() == expected
        assert [fn(p, t) for t in ages] == expected


def test_a_cost_past_the_float_range_is_inf_without_a_warning():
    # The suite turns a RuntimeWarning into an error.  Here a t and, past
    # age 0, the property cost pass the largest double.
    p = AssetParams(1e308, 1e308, 1e300, 1.0)
    ages = np.array([0.0, 1.0, 1e10, math.inf])
    assert maintenance(p, 1e10) == property_cost(p, 1e10) == math.inf
    assert property_cost(p, ages)[1:].tolist() == [math.inf] * 3
    for fn in (maintenance, salvage, capital_cost, maintenance_cost, property_cost):
        assert fn(p, ages).tolist() == [fn(p, t) for t in ages.tolist()]
    assert property_cost_derivative(p, 1e10) == 0.0
    assert curve(p, 10.0, 1.0).property_cost[1:].tolist() == [math.inf] * 10


@pytest.mark.parametrize(
    "ages, message",
    [
        (float("nan"), "age must be >= 0; got t = np.float64(nan)"),
        (-1.0, "age must be >= 0; got t = np.float64(-1.0)"),
        ([1.0, -2.0, float("nan")], "age must be >= 0; got t = np.float64(-2.0)"),
        ([7500.0, float("nan")], "age must be >= 0; got t = np.float64(nan)"),
        ([[1.0, 7500.0], [-1.0, 2.0]], "age must be >= 0; got t = np.float64(-1.0)"),
    ],
)
def test_property_cost_age_errors(ages, message):
    # A bad age is reported by its first occurrence.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        property_cost(INSTANCE_C1, ages)


def test_property_cost_allocates_at_most_four_and_a_half_arrays():
    # An evaluation holds the kernel's three work arrays, the sum and two
    # boolean masks; a fresh temporary per operation would hold eight or more.
    n = 2**14
    ages = np.arange(n, dtype=float) * 1e-3
    property_cost(INSTANCE_C4_3, ages)
    tracemalloc.start()
    try:
        property_cost(INSTANCE_C4_3, ages)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 8 * n


@pytest.mark.parametrize("draw", [draw_params, draw_wide_params])
def test_cost_pieces_bound_the_cost_on_every_cell(rng, draw):
    # D never rises with age and I never falls, so on a cell [u, v] the cost
    # of D(v) and I(u) bounds the cost from below and that of D(u) and I(v)
    # from above, up to rounding: the search drops and ties cells by these.
    # Tight cells leave the pieces' rounding little room: they sit where the
    # cost's terms cancel, in the series region and either side of its
    # cutoff x = 0.1.
    slack = 1.0 + 64.0 * np.finfo(float).eps
    for _ in range(300):
        p = draw(rng)
        r = p.interest_rate
        spread = 10.0 ** rng.uniform(-12.0, math.log10(0.6), 2)
        # across the junction, in the series region, past x = 700, anywhere
        centres = (p.junction, 5e-4 / r, 2e3 / r, 10.0 ** rng.uniform(-3.0, 3.0) / r)
        cells = [(centre, spread) for centre in centres]
        for x in (1.1e-3, 2e-3, 5e-3, 0.05, 0.099, 0.101):
            cells.append((x / r, 10.0 ** rng.uniform(-14.0, -9.0, 2)))
        for centre, spread in cells:
            u, v = centre * (1.0 - spread[0]), centre * (1.0 + spread[1])
            d, i, h_ends = cost_pieces(p, np.array([u, v]))
            lower = float(cost_of_pieces(p, d[1], i[0]))
            upper = float(cost_of_pieces(p, d[0], i[1]))
            h = np.append(property_cost(p, rng.uniform(u, v, 16)), h_ends)
            assert np.all(lower <= h * slack), (p, u, v)
            assert np.all(h <= upper * slack), (p, u, v)


def reference_slope_pieces(params: AssetParams, t: float) -> tuple[Decimal, Decimal]:
    """P = a q' and N (b r q' up to the junction, (A/t) p (r + p/t) past it)
    in decimal, with x = r t held at 700 as the cost model holds it."""
    A, a, b, r = (Decimal(v) for v in (params.acquisition_cost, params.maint_slope,
                                       params.depreciation_rate, params.interest_rate))
    x = Decimal(700) if t == INF else min(r * Decimal(t), Decimal(700))
    # e^x - 1 and 1 - p each lose -log10(x) digits
    with localcontext(Context(prec=40 + 2 * max(0, -x.adjusted()), Emax=MAX_EMAX, Emin=MIN_EMIN)):
        p = x / (x.exp() - 1) if x else Decimal(1)
        dq = p * (1 - (1 - p) / x) if x else Decimal(1) / 2
        if t <= params.junction:
            return a * dq, b * r * dq
        return a * dq, Decimal(0) if t == INF else A / Decimal(t) * p * (r + p / Decimal(t))


@pytest.mark.parametrize("acquisition", [40.0, 0.02], ids=["junction_2y", "junction_1e-3y"])
@pytest.mark.parametrize("slope", [5.0, 1e-310, 1e308], ids=["a", "subnormal_a", "huge_a"])
def test_slope_pieces_are_positive_and_fall_on_each_side_of_the_junction(acquisition, slope):
    # The search reads the sign of the slope from these pieces, so each must
    # lie within _SLOPE_SLACK of its exact value and never rise with age on
    # either side of the junction: at age 0, at subnormal ages, on both sides
    # of the series cutoff x = 0.1, at rate * age >= 700 and at inf.  q' is
    # not read back from a q/r, which keeps no digits of q at a subnormal a.
    params = AssetParams(acquisition, slope, 20.0, 0.1)
    cut = _GAP_SERIES_BELOW / params.interest_rate
    ages = np.array(sorted({0.0, 5e-324, 1e-315, 1e-300, 1e-6, 5e-4, 0.5, cut * (1.0 - 1e-3), cut * (1.0 + 1e-3),
                            1.5, 2.5, 10.0, 6990.0, 7000.0, 1e5, 1e300, INF}))
    rising, falling = cost_and_slope_pieces(params, ages)[2:4]
    tiny, band = Decimal(sys.float_info.min), Decimal(oracle._SLOPE_SLACK[0] - 1.0)
    for side in (ages <= params.junction, ages > params.junction):
        for piece, k in ((rising, 0), (falling, 1)):
            values = piece[side]
            assert np.all(values >= 0.0) and np.all(np.diff(values) <= 0.0), (side, k)
            for t, value in zip(ages[side].tolist(), values.tolist()):
                exact = reference_slope_pieces(params, t)[k]
                if exact >= tiny:
                    assert value > 0.0 and abs(Decimal(value) - exact) <= band * exact, (t, k)
    assert rising[0] == slope * 0.5 and falling[0] == 20.0 * 0.1 * 0.5


def test_the_derivative_is_scale_times_the_slope_pieces():
    # One formula serves the slope and the search's monotone test.
    params = INSTANCE_C4_3
    ages = np.array([1e-3, 0.5, 1.9, 2.1, 10.0, 100.0])
    rising, falling = cost_and_slope_pieces(params, ages)[2:4]
    scale = math.expm1(params.interest_rate) / params.interest_rate
    assert property_cost_derivative(params, ages).tobytes() == ((rising - falling) * scale).tobytes()
