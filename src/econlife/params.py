"""The four-parameter asset description shared by every layer.

Kept free of numpy so that the scalar path (``classifier`` and the CLI's
``classify`` and ``fleet`` commands) imports only the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["AssetParams"]


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

    def __post_init__(self):
        for name in ("acquisition_cost", "maint_slope", "depreciation_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be > 0")
        if not (math.isfinite(self.interest_rate) and 0.0 < self.interest_rate <= 1.0):
            raise ValueError("interest_rate must be in (0, 1]")

    @property
    def junction(self) -> float:
        """Age at which the resale value hits zero and stays there."""
        return self.acquisition_cost / self.depreciation_rate
