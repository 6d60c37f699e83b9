import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from econlife import (
    CashFlowSeries,
    capital_recovery,
    continuous_effective_rate,
    effective_rate,
    future_value_of_annuity,
    present_value,
)

rates = st.floats(1e-3, 1.0)
horizons = st.integers(1, 30)


def test_future_value_basics():
    assert future_value_of_annuity(123.0, 0.37, 1) == 123.0
    assert future_value_of_annuity(100.0, 0.1, 2) == pytest.approx(210.0, rel=1e-14)


@given(st.floats(0.01, 1e4), rates, horizons)
def test_future_value_matches_literal_sum(annuity, rate, periods):
    literal = sum(annuity * (1.0 + rate) ** (periods - k) for k in range(1, periods + 1))
    assert future_value_of_annuity(annuity, rate, periods) == pytest.approx(literal, rel=1e-12)


def test_capital_recovery_basics():
    assert capital_recovery(100.0, 0.1, 1) == pytest.approx(110.0, rel=1e-15)
    assert capital_recovery(100.0, 0.0, 4) == 25.0
    assert capital_recovery(100.0, 1e-12, 4) == pytest.approx(25.0, rel=1e-9)


def test_present_value_basics():
    assert present_value(25.0, 0.0, 4) == 100.0
    assert present_value(capital_recovery(100.0, 0.1, 1), 0.1, 1) == pytest.approx(100.0, rel=1e-15)


@given(st.floats(0.01, 1e4), rates, horizons)
def test_present_value_matches_discounted_sum(annuity, rate, periods):
    literal = sum(annuity / (1.0 + rate) ** k for k in range(1, periods + 1))
    assert present_value(annuity, rate, periods) == pytest.approx(literal, rel=1e-12)


@given(st.floats(0.01, 1e6), rates, st.integers(1, 360))
def test_round_trip(present, rate, periods):
    annuity = capital_recovery(present, rate, periods)
    assert present_value(annuity, rate, periods) == pytest.approx(present, rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        future_value_of_annuity(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        future_value_of_annuity(1.0, 0.1, 0)
    with pytest.raises(ValueError):
        capital_recovery(1.0, -0.1, 5)
    with pytest.raises(ValueError):
        effective_rate(0.0, 12)
    with pytest.raises(ValueError):
        effective_rate(0.1, 0)
    with pytest.raises(ValueError):
        continuous_effective_rate(-0.1)


@pytest.mark.parametrize(
    "function, args",
    [
        (future_value_of_annuity, (1.0, 1e3, 200)),
        (capital_recovery, (1.0, 1e3, 200)),
        (present_value, (1.0, 1e300, 3)),
        (effective_rate, (1e300, 2)),
    ],
)
def test_growth_past_the_float_range_is_refused(function, args):
    with pytest.raises(ValueError, match="overflows the float range"):
        function(*args)


def test_effective_rate_values():
    assert effective_rate(0.1, 1) == pytest.approx(0.1, rel=1e-15)
    assert effective_rate(0.1, 2) == pytest.approx(0.1025, rel=1e-14)
    assert effective_rate(0.1, 10**6) == pytest.approx(math.expm1(0.1), abs=1e-5)


@pytest.mark.parametrize("nominal", [0.01, 0.1, 0.5, 1.0])
def test_effective_rate_increases_to_continuous_limit(nominal):
    values = [effective_rate(nominal, m) for m in (1, 2, 4, 12, 365, 10**6)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < continuous_effective_rate(nominal)
    assert continuous_effective_rate(nominal) - values[-1] < 1e-5


def test_continuous_rate_discount_equivalence():
    # exact algebraically; in floats the power amplifies rounding by ~t ulp
    for nominal in (0.01, 0.1, math.log(2.0), 1.0):
        effective = continuous_effective_rate(nominal)
        for t in (0.5, 1.0, 2.0, 5.0):
            assert abs(math.exp(-nominal * t) - (1.0 + effective) ** (-t)) <= 1e-15
        assert math.exp(-nominal * 33.0) == pytest.approx((1.0 + effective) ** (-33.0), rel=1e-13)
    assert continuous_effective_rate(math.log(2.0)) == pytest.approx(1.0, rel=1e-15)


def test_cash_flow_series():
    series = CashFlowSeries(deposits=((1, 100.0), (3, 50.0)), horizon=3, rate=0.1)
    assert series.future_value() == pytest.approx(100.0 * 1.1**2 + 50.0, rel=1e-14)
    level = series.equivalent_annuity()
    rebuilt = future_value_of_annuity(level, 0.1, 3)
    assert rebuilt == pytest.approx(series.future_value(), rel=1e-13)
    with pytest.raises(ValueError):
        CashFlowSeries(deposits=((0, 1.0),), horizon=3, rate=0.1)
    with pytest.raises(ValueError):
        CashFlowSeries(deposits=((1, 1.0), (1, 2.0)), horizon=3, rate=0.1)
    with pytest.raises(ValueError):
        CashFlowSeries(deposits=((1, 1.0),), horizon=0, rate=0.1)
