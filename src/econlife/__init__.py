"""Economic life of depreciating physical assets.

Prices ownership as a yearly-equivalent cost (capital plus maintenance),
classifies the shape of that cost over holding age, and returns the exact
optimal replacement time, cross-checked by an independent numerical search.

The scalar path imports only the standard library.  The names of the array
layers, ``cost_model`` and ``oracle``, are resolved on first use, and only
then is numpy imported.
"""

import importlib

from .classifier import (
    CaseLabel,
    EconomicLifeResult,
    MinimizerSet,
    acquisition_threshold,
    classify,
    economic_life,
    gap,
    interior_minimum_age,
    slope_threshold,
)
from .errors import NumericError
from .finance_equiv import (
    CashFlowSeries,
    capital_recovery,
    continuous_effective_rate,
    effective_rate,
    future_value_of_annuity,
    present_value,
)
from .lambert_w import w0, w0_inverse, w0_series
from .params import AssetParams

__version__ = "0.1.0"

__all__ = [
    "AssetParams",
    "CaseLabel",
    "CashFlowSeries",
    "CostSample",
    "EconomicLifeResult",
    "MinimizationReport",
    "MinimizerSet",
    "NumericError",
    "acquisition_threshold",
    "brute_force_minimize",
    "capital_cost",
    "capital_recovery",
    "check_against_search",
    "classify",
    "continuous_effective_rate",
    "curve",
    "economic_life",
    "effective_rate",
    "future_value_of_annuity",
    "gap",
    "integrate_discounted_maintenance",
    "interior_minimum_age",
    "maintenance",
    "maintenance_cost",
    "present_value",
    "property_cost",
    "property_cost_derivative",
    "salvage",
    "slope_threshold",
    "w0",
    "w0_inverse",
    "w0_series",
]

#: Public names of the numpy-backed layers, by defining submodule.
_LAZY = {
    **dict.fromkeys(
        (
            "CostSample",
            "capital_cost",
            "curve",
            "maintenance",
            "maintenance_cost",
            "property_cost",
            "property_cost_derivative",
            "salvage",
        ),
        "cost_model",
    ),
    **dict.fromkeys(
        (
            "MinimizationReport",
            "brute_force_minimize",
            "check_against_search",
            "integrate_discounted_maintenance",
        ),
        "oracle",
    ),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
