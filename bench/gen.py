"""Seeded inputs for the benchmark's workloads.

Every asset comes from the test suite's own parameter distribution,
``tests/conftest.py:draw_params``, imported rather than copied.  The same
seed gives byte-identical input text; ``Inputs.sha256`` lets two commits
confirm they ran the same inputs.  Apart from draw_params building
``AssetParams``, generation uses no package code, so a change to the package
cannot change its own inputs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FLEET_HEADER = ["id", "acquisition_cost", "maint_slope", "depreciation_rate", "interest_rate"]

#: Share of planted malformed rows in the fleet input, split evenly over
#: PLANTED_KINDS.
PLANTED_SHARE = 0.01
PLANTED_KINDS = ("non_numeric", "duplicate_id", "rate_above_one", "field_count")

FLEET_ROWS = 10_000
VERIFY_ROWS = 40
# Candidates drawn per verify row; see verify_inputs.
VERIFY_POOL_PER_ROW = 500
LIBRARY_ASSETS = 4_000

# Independent streams per workload, so resizing one leaves the others alone.
_STREAM = {"fleet": 1, "verify": 2, "library": 3}


@dataclass(frozen=True)
class Inputs:
    """One workload's input rows, in file order.

    rows holds the CSV fields of each data row; planted names the kind of
    malformation planted in a row, or is None for a clean row.
    """

    rows: tuple[tuple[str, ...], ...]
    planted: tuple[str | None, ...]

    @property
    def text(self) -> str:
        lines = [",".join(FLEET_HEADER)] + [",".join(row) for row in self.rows]
        return "\n".join(lines) + "\n"

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def load_draw_params():
    """``draw_params`` from the test suite (needs ``src`` on ``sys.path``)."""
    path = ROOT / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("econlife_tests_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.draw_params


def _fields(row_id: str, A: float, a: float, b: float, r: float) -> tuple[str, ...]:
    # repr is the shortest text that reads back as the same double.
    return (row_id, repr(A), repr(a), repr(b), repr(r))


def _param_fields(row_id: str, params) -> tuple[str, ...]:
    return _fields(
        row_id,
        params.acquisition_cost,
        params.maint_slope,
        params.depreciation_rate,
        params.interest_rate,
    )


def fleet_inputs(seed: int, clean_rows: int = FLEET_ROWS) -> Inputs:
    """draw_params rows plus PLANTED_SHARE planted malformed rows."""
    draw = load_draw_params()
    rng = np.random.default_rng([seed, _STREAM["fleet"]])
    n_planted = max(len(PLANTED_KINDS), round(clean_rows * PLANTED_SHARE))
    total = clean_rows + n_planted
    # Position 0 stays clean so every duplicate has an earlier original.
    planted_at = set(rng.choice(np.arange(1, total), size=n_planted, replace=False).tolist())
    rows, planted, clean_ids = [], [], []
    for position in range(total):
        if position not in planted_at:
            row_id = f"a{len(clean_ids)}"
            clean_ids.append(row_id)
            rows.append(_param_fields(row_id, draw(rng)))
            planted.append(None)
            continue
        kind = PLANTED_KINDS[(len(rows) - len(clean_ids)) % len(PLANTED_KINDS)]
        fields = list(_param_fields(f"x{position}", draw(rng)))
        if kind == "non_numeric":
            fields[1 + int(rng.integers(4))] = "n/a"
        elif kind == "duplicate_id":
            fields[0] = clean_ids[int(rng.integers(len(clean_ids)))]
        elif kind == "rate_above_one":
            fields[4] = repr(1.0 + float(rng.uniform(1e-3, 1.0)))
        else:
            fields = fields[:4] if rng.integers(2) else fields + ["0"]
        rows.append(tuple(fields))
        planted.append(kind)
    return Inputs(tuple(rows), tuple(planted))


def _scaled_optimum(c: float) -> float:
    """tau with tau - 1 + e^-tau = c, by Newton's method from tau = 1 + c."""
    tau = 1.0 + c
    for _ in range(60):
        step = (tau - 1.0 + math.exp(-tau) - c) / -math.expm1(-tau)
        tau -= step
        if abs(step) <= 1e-12 * tau:
            break
    return tau


def scan_years(params) -> float:
    """Age span a value-comparison search of the cost must cover, in years.

    Twice the full-depreciation age (at least 10 years), stretched to 1.5x
    the interior optimum when there is one, and capped where e^(rate*age)
    leaves the double range.
    """
    A, a, r = params.acquisition_cost, params.maint_slope, params.interest_rate
    junction = params.junction
    c = A * r * r / a
    span = max(2.0 * junction, 10.0)
    if c > math.expm1(-r * junction) + r * junction:  # interior optimum exists
        span = max(span, 1.5 * _scaled_optimum(c) / r)
    return min(span, 686.0 / r)


def verify_inputs(seed: int, rows: int = VERIFY_ROWS, pool_per_row: int = VERIFY_POOL_PER_ROW) -> Inputs:
    """Rows at the mid-quantiles of scan_years among unrestricted draw_params rows.

    A search's cost grows with scan_years, which is heavy-tailed (about 1/rate
    for long-lived optima), so a plain sample of a few dozen rows varies by
    about 30% in total work from seed to seed.  Instead, rows*pool_per_row
    rows are drawn, sorted by scan_years and cut into ``rows`` equal strata,
    and the middle row of each stratum is taken.  Every seed then carries
    the same mix of short and long scans; the rest of each row is as
    draw_params made it.
    """
    draw = load_draw_params()
    rng = np.random.default_rng([seed, _STREAM["verify"]])
    pool = [draw(rng) for _ in range(rows * pool_per_row)]
    order = sorted(range(len(pool)), key=lambda i: (scan_years(pool[i]), i))
    picks = [order[k * pool_per_row + pool_per_row // 2] for k in range(rows)]
    picks = [picks[i] for i in rng.permutation(rows)]
    return Inputs(
        tuple(_param_fields(f"v{i}", pool[p]) for i, p in enumerate(picks)),
        (None,) * rows,
    )


def library_inputs(seed: int, assets: int = LIBRARY_ASSETS) -> Inputs:
    """Alternating draw_params assets and wide-cost-ratio assets.

    The wide assets keep draw_params's purchase price and rate but take the
    cost ratio c = A r^2 / a log-uniform in [1e-20, 1e2] and the
    full-depreciation age log-uniform in [1e-12, 50] years, which drives W0
    toward its branch point.
    """
    draw = load_draw_params()
    rng = np.random.default_rng([seed, _STREAM["library"]])
    rows = []
    for i in range(assets):
        params = draw(rng)
        if i % 2 == 0:
            rows.append(_param_fields(f"l{i}", params))
            continue
        A, r = params.acquisition_cost, params.interest_rate
        c = 10.0 ** rng.uniform(-20.0, 2.0)
        junction = 10.0 ** rng.uniform(-12.0, math.log10(50.0))
        rows.append(_fields(f"l{i}", A, A * r * r / c, A / junction, r))
    return Inputs(tuple(rows), (None,) * assets)


WORKLOADS = {"fleet": fleet_inputs, "verify": verify_inputs, "library": library_inputs}
