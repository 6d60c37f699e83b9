"""Independent check of economic-life results.

The reference cost is evaluated from its cash-flow definition in 50-digit
decimal arithmetic, not from the package's closed forms, so it has neither
their cancellation nor their overflow guard:

    h(t) = (e^r - 1) * (A - S(t) e^(-rt) + a/r^2 (1 - e^(-rt)(1 + rt))) / (1 - e^(-rt))

with resale value S(t) = max(A - b t, 0) and h(0) = (e^r - 1)(A r + b)/r, its
limit.  A result passes when its minimum cost equals h at every claimed
minimizer and is no larger than h at the probe ages (0, the junction, and
PROBE_STEP either side of each minimizer), all within REL_TOL.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

#: Relative tolerance of every comparison; the same as ``--verify`` uses for
#: values, and far above the CLI's 12-significant-digit rounding.
REL_TOL = 1e-9
#: Offset of the probe ages either side of a minimizer, in years.
PROBE_STEP = 1e-3

FLEET_OUTPUT_HEADER = [
    "id",
    "case",
    "econ_life_lo",
    "econ_life_hi",
    "secondary_minimizer",
    "min_annual_cost",
    "error",
]

_CONTEXT = Context(prec=50, Emax=MAX_EMAX, Emin=MIN_EMIN)


@lru_cache(maxsize=64)
def _effective_rate(r: float) -> Decimal:
    """e^r - 1, the yearly effective rate of the nominal rate r."""
    with localcontext(_CONTEXT):
        return Decimal(r).exp() - 1


def reference_cost(A: float, a: float, b: float, r: float, t: float) -> Decimal:
    """Yearly-equivalent ownership cost at age t, from the definition."""
    i_eff = _effective_rate(r)
    with localcontext(_CONTEXT):
        A, a, b, r, t = (Decimal(v) for v in (A, a, b, r, t))
        if t == 0:
            return i_eff * (A * r + b) / r
        x = r * t
        discount = (-x).exp()
        resale = max(A - b * t, Decimal(0))
        present = A - resale * discount + a / (r * r) * (1 - discount * (1 + x))
        return i_eff * present / (1 - discount)


def check_result(params, minimizers, min_cost: float) -> str | None:
    """None if the result obeys the invariants, else the first violation.

    params is (A, a, b, r); minimizers are the claimed optimal ages.
    """
    if not math.isfinite(min_cost) or not minimizers:
        return f"no finite result: min cost {min_cost!r}, minimizers {minimizers!r}"
    if any(not (math.isfinite(t) and t >= 0.0) for t in minimizers):
        return f"minimizers {minimizers!r} are not finite ages >= 0"
    claimed = Decimal(min_cost)
    for t in minimizers:
        h = reference_cost(*params, t)
        if abs(claimed - h) > Decimal(REL_TOL) * abs(h):
            return f"min cost {min_cost!r} != cost {float(h)!r} at minimizer {t!r}"
    A, _, b, _ = params
    probes = {0.0, A / b}
    for t in minimizers:
        probes.add(t + PROBE_STEP)
        if t >= PROBE_STEP:
            probes.add(t - PROBE_STEP)
    for t in sorted(probes):
        h = reference_cost(*params, t)
        if claimed > h * (1 + Decimal(REL_TOL)):
            return f"min cost {min_cost!r} exceeds cost {float(h)!r} at age {t!r}"
    return None


@dataclass
class Verdicts:
    """Outcome of checking one workload's outputs.

    problems are faults of the output as a whole (wrong row count, a
    missing header, ...); they make the run incorrect.  failures counts
    failed rows or calls by reason; failed/attempted is failed_frac.
    """

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)
    examples: dict[str, str] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, reason: str, detail: str) -> None:
        self.failures[reason] += 1
        self.examples.setdefault(reason, detail)


def _params(row) -> tuple[float, float, float, float]:
    return tuple(float(v) for v in row[1:5])


def check_fleet_output(inputs, output_text: str) -> Verdicts:
    """Check CLI fleet output row by row against its input."""
    verdicts = Verdicts(attempted=len(inputs.rows))
    lines = list(csv.reader(io.StringIO(output_text)))
    if not lines or lines[0] != FLEET_OUTPUT_HEADER:
        verdicts.problems.append(f"malformed output header {lines[:1]!r}")
        return verdicts
    if len(lines) - 1 != len(inputs.rows):
        verdicts.problems.append(f"{len(lines) - 1} output rows for {len(inputs.rows)} input rows")
        return verdicts
    for index, (row, kind, out) in enumerate(zip(inputs.rows, inputs.planted, lines[1:])):
        if len(out) != len(FLEET_OUTPUT_HEADER) or out[0] != row[0]:
            verdicts.problems.append(f"output row {index} is {out!r} for input id {row[0]!r}")
            continue
        error = out[6]
        if kind is not None:
            if not error:
                verdicts.fail("planted_without_error", f"row {index} ({kind}) gave {out!r}")
            continue
        if error:
            reason = "verification_failed" if error.startswith("verification failed") else "unplanted_error"
            verdicts.fail(reason, f"row {index}: {error}")
            continue
        try:
            lo, hi, min_cost = float(out[2]), float(out[3]), float(out[5])
            minimizers = [lo, hi] if lo != hi else [lo] + ([float(out[4])] if out[4] else [])
        except ValueError:
            verdicts.fail("invariant", f"row {index}: unparseable result {out!r}")
            continue
        violation = check_result(_params(row), minimizers, min_cost)
        if violation is not None:
            verdicts.fail("invariant", f"row {index}: {violation}")
    return verdicts


def check_library_results(inputs, results) -> Verdicts:
    """Check one library pass: results[i] answers inputs.rows[i]."""
    verdicts = Verdicts(attempted=len(inputs.rows))
    if len(results) != len(inputs.rows):
        verdicts.problems.append(f"{len(results)} results for {len(inputs.rows)} assets")
        return verdicts
    for index, (row, result) in enumerate(zip(inputs.rows, results)):
        if "error" in result:
            verdicts.fail("exception", f"asset {index}: {result['error']}")
            continue
        violation = check_result(_params(row), result["minimizers"], result["min_cost"])
        if violation is not None:
            verdicts.fail("invariant", f"asset {index} ({result['case']}): {violation}")
    return verdicts
