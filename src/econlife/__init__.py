"""Economic life of depreciating physical assets.

Prices ownership as a yearly-equivalent cost (capital plus maintenance),
classifies the shape of that cost over holding age, and returns the exact
optimal replacement time, cross-checked by an independent numerical search.

The scalar path imports only the standard library.  The names of the array
layers, ``cost_model`` and ``oracle``, are resolved on first use, and only
then is numpy imported.
"""

import importlib

from . import classifier, finance_equiv
from .classifier import *
from .errors import NumericError
from .finance_equiv import *
from .lambert_w import w0, w0_inverse, w0_series
from .params import AssetParams

__version__ = "0.1.0"

__all__ = [
    "AssetParams",
    "NumericError",
    "w0",
    "w0_inverse",
    "w0_series",
    "CostSample",
    "MinimizationReport",
    "brute_force_minimize",
    "capital_cost",
    "check_against_search",
    "curve",
    "maintenance",
    "maintenance_cost",
    "property_cost",
    "property_cost_derivative",
    "salvage",
]
__all__ += classifier.__all__
__all__ += finance_equiv.__all__


def __getattr__(name):
    # A public name not imported above is looked up in the numpy-backed layers.
    if name in __all__:
        for submodule in ("cost_model", "oracle"):
            module = importlib.import_module(f".{submodule}", __name__)
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
