"""The four-parameter asset description shared by every layer.

Kept free of numpy so that the scalar path (``classifier`` and the CLI's
``classify`` and ``fleet`` commands) imports only the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["AssetParams"]

_set = object.__setattr__


@dataclass(frozen=True)
class AssetParams:
    """Four-parameter asset description.

    acquisition_cost : purchase outlay at age zero, currency units, > 0.
    maint_slope      : yearly growth of the upkeep expense rate, currency/year^2, > 0.
    depreciation_rate: yearly loss of resale value, currency/year, > 0.
    interest_rate    : nominal yearly rate, continuously compounded, in (0, 1].
    """

    acquisition_cost: float
    maint_slope: float
    depreciation_rate: float
    interest_rate: float

    def __init__(
        self, acquisition_cost: float, maint_slope: float, depreciation_rate: float, interest_rate: float
    ):
        # Written out rather than generated, since fleet builds one per row: the
        # generated frozen __init__ looks object.__setattr__ up again for every field
        A, a, b, r = acquisition_cost, maint_slope, depreciation_rate, interest_rate
        if not (type(A) is type(a) is type(b) is type(r) is float):
            # Plain floats: numpy scalars would warn where a quotient overflows
            # and print as np.float64(...)
            A, a, b, r = float(A), float(a), float(b), float(r)
        if not (0.0 < A < math.inf and 0.0 < a < math.inf and 0.0 < b < math.inf and 0.0 < r <= 1.0):
            for name, value in zip(("acquisition_cost", "maint_slope", "depreciation_rate"), (A, a, b)):
                if not 0.0 < value < math.inf:
                    raise ValueError(f"{name} must be > 0")
            raise ValueError("interest_rate must be in (0, 1]")
        # Set field by field, which keeps the values inline in the instance;
        # writing to its __dict__ would add 64 bytes or more per asset
        _set(self, "acquisition_cost", A)
        _set(self, "maint_slope", a)
        _set(self, "depreciation_rate", b)
        _set(self, "interest_rate", r)

    @property
    def junction(self) -> float:
        """Age at which the resale value hits zero and stays there."""
        return self.acquisition_cost / self.depreciation_rate
