"""Cash-flow equivalence utilities.

Conversions between future values, present values and level yearly payments
(ordinary annuities, deposits at the end of periods 1..N), plus the
nominal-to-effective interest conversion whose continuous-compounding limit
e**r - 1 links these discrete formulas to the continuous cost model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CashFlowSeries",
    "future_value_of_annuity",
    "capital_recovery",
    "present_value",
    "effective_rate",
    "continuous_effective_rate",
]


@dataclass(frozen=True)
class CashFlowSeries:
    """Irregular end-of-period deposits over a fixed horizon.

    deposits: (period index k in 1..horizon, amount) pairs, distinct periods.
    horizon:  number of periods N.
    rate:     effective interest per period, > 0.
    """

    deposits: tuple[tuple[int, float], ...]
    horizon: int
    rate: float

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not self.rate > 0.0:
            raise ValueError("rate must be > 0")
        periods = [k for k, _ in self.deposits]
        if any(not (isinstance(k, int) and 1 <= k <= self.horizon) for k in periods):
            raise ValueError("deposit periods must be integers in [1, horizon]")
        if len(set(periods)) != len(periods):
            raise ValueError("deposit periods must be distinct")

    def future_value(self) -> float:
        """Value of all deposits at the end of the horizon."""
        return sum(amount * (1.0 + self.rate) ** (self.horizon - k) for k, amount in self.deposits)

    def equivalent_annuity(self) -> float:
        """Level end-of-period deposit with the same future value."""
        return self.future_value() * self.rate / _growth(self.rate, self.horizon)


def _growth(rate: float, periods: int) -> float:
    """(1 + rate)^periods - 1, via expm1/log1p: the direct difference
    cancels for tiny rates.  Raises ValueError for periods < 1 or where the
    growth leaves the float range."""
    if periods < 1:
        raise ValueError("periods must be >= 1")
    try:
        return math.expm1(periods * math.log1p(rate))
    except OverflowError:
        raise ValueError(
            f"(1 + rate)^periods overflows the float range: rate = {rate!r}, periods = {periods!r}"
        ) from None


def future_value_of_annuity(annuity: float, rate: float, periods: int) -> float:
    """Future value of a level deposit made at the end of each period.

    Closed form annuity * ((1+i)^N - 1) / i of the geometric sum.
    """
    if not rate > 0.0:
        raise ValueError("rate must be > 0")
    return annuity * _growth(rate, periods) / rate


def capital_recovery(present: float, rate: float, periods: int) -> float:
    """Level payment that repays a present value over N periods.

    present * i (1+i)^N / ((1+i)^N - 1); the zero-interest limit is present/N.
    """
    if rate < 0.0:
        raise ValueError("rate must be >= 0")
    growth_minus_one = _growth(rate, periods)  # checks periods, at rate 0 too
    if rate == 0.0:
        return present / periods
    return present * rate * (growth_minus_one + 1.0) / growth_minus_one


def present_value(annuity: float, rate: float, periods: int) -> float:
    """Present value of a level end-of-period payment; inverse of capital_recovery."""
    if rate < 0.0:
        raise ValueError("rate must be >= 0")
    growth_minus_one = _growth(rate, periods)  # checks periods, at rate 0 too
    if rate == 0.0:
        return annuity * periods
    return annuity * growth_minus_one / (rate * (growth_minus_one + 1.0))


def effective_rate(nominal: float, periods_per_year: int) -> float:
    """Effective yearly rate of a nominal rate compounded M times a year."""
    if not nominal > 0.0:
        raise ValueError("nominal rate must be > 0")
    if periods_per_year < 1:
        raise ValueError("periods_per_year must be >= 1")
    return _growth(nominal / periods_per_year, periods_per_year)


def continuous_effective_rate(nominal: float) -> float:
    """Limit of ``effective_rate`` as compounding becomes continuous: e**r - 1.

    With i defined this way the discount factors agree exactly:
    e**(-r t) == (1 + i)**(-t).
    """
    if not nominal > 0.0:
        raise ValueError("nominal rate must be > 0")
    return math.expm1(nominal)
