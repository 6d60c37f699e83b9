"""Independent numerical ground truth for the closed forms.

Two derivative-free tools, deliberately ignorant of the classification
machinery: Gauss-Legendre quadrature for the discounted-maintenance integral,
and a branch-and-bound grid scan plus batched zoom refinement that locates
the global minimizers of the ownership cost by value comparison alone.  Tests
and the fleet ``--verify`` mode use these to cross-check the closed-form
path; nothing here is consulted by that path.

The scan's grid covers [0, inf] in finitely many points: GRID_STEP apart up
to 10 years, then spaced a 10,000th of their age, so its last point, index
``_LAST`` near 7.1e6, lies at age inf, where the cost's pieces take their
limits D = 0 and I = a/r.  Every cell, the last one too, is bounded from the
pieces at its ends and dropped, kept or split, so the scan decides on the
whole domain.  A check gives one of three verdicts: None (agreement), a
description of the discrepancy, or, when the scan would pass its point
budget, a message starting "verification inconclusive:".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost_model import AssetParams, cost_pieces, property_cost
from .errors import NumericError

__all__ = [
    "MinimizationReport",
    "integrate_discounted_maintenance",
    "brute_force_minimize",
    "check_against_search",
]

#: Grid values within this relative band of the minimum count as tied.
TIE_RTOL = 1e-12
#: ``check_against_search`` tolerance for the minimum cost, relative.
VALUE_RTOL = 1e-9
#: A run of at least this many tied grid points is reported as a plateau.
PLATEAU_MIN_POINTS = 3
#: ``brute_force_minimize`` gives up, and ``check_against_search`` calls the
#: row inconclusive, when the scan would evaluate more grid points than this.
GRID_BUDGET = 1 << 18
#: The grid step of ``brute_force_minimize`` up to 10 years, in years.
GRID_STEP = 1e-3
# Quadrature panels: 20-node Gauss-Legendre, their count doubled at most
# _MAX_DOUBLINGS times.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_MAX_DOUBLINGS = 8
# A scan cell wider than this many indices is split this many ways.
_SPLIT = 64
# The grid is linear up to index _LINEAR_END (10 y), then geometric with the
# spacing continuous there, and its index _LAST is the first whose age
# overflows to inf.
_LINEAR_END = 10_000
_LOG_RATIO = math.log1p(1.0 / _LINEAR_END)
_LAST = _LINEAR_END + math.ceil(math.log(np.finfo(float).max / (_LINEAR_END * GRID_STEP)) / _LOG_RATIO)
# Factors widening a scan cell's upper and lower cost bound for rounded pieces.
_BOUND_SLACK = 1.0 + np.array([[64.0], [-64.0]]) * np.finfo(float).eps
# Each zoom grid narrows a bracket 32-fold.
_ZOOM_POINTS = 65
# At most two genuine basins exist (the left boundary and the interior
# optimum); extra candidates only ever arise from rounding jitter in flat
# stretches, so a small fixed budget loses nothing.
_MAX_BASINS = 16


@dataclass(frozen=True)
class MinimizationReport:
    """Outcome of a brute-force scan of the ownership cost.

    argmin_points holds the best zoomed point of each tied basin outside the
    plateau, and brackets the span from the grid point before its grid index
    to the one after, merged with its neighbours' where they overlap;
    plateau is the span of value-tied grid points when the minimum is flat at
    grid resolution, with an end of inf when the cost ties its minimum at
    every larger age.  Every reported point attains min_value to within the
    tie tolerance.  tail_start is the last age the scan evaluated short of
    inf: past it the scan bounds the cost as one cell and cannot tell its
    ages apart.
    """

    argmin_points: tuple[float, ...]
    brackets: tuple[tuple[float, float], ...]
    plateau: tuple[float, float] | None
    min_value: float
    refinements: int
    tail_start: float


class ScanGaveUp(NumericError):
    """The scan stopped early; ``least`` is the least cost it evaluated, h(inf) included."""

    def __init__(self, reason: str, least: float):
        super().__init__(reason)
        self.least = least


def integrate_discounted_maintenance(params: AssetParams, t: float, tol: float = 1e-10) -> float:
    """Discounted upkeep accumulated to age t, by Gauss-Legendre quadrature.

    Integrates maint_slope * s * e**(-rate*s) over [0, t] with 20-node
    Gauss-Legendre panels of equal width, at most 4 / rate wide to start,
    doubling the panel count until two estimates agree to an
    absolute-plus-relative tolerance ``tol``.  Past rate * s = 750 the
    integrand is below the double range, so the panels end there.
    Independent of the closed-form antiderivative, which the tests compare
    against.
    """
    if t < 0.0:
        raise ValueError("integration age must be >= 0")
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    if t == 0.0:
        return 0.0
    a = params.maint_slope
    r = params.interest_rate
    end = min(float(t), 750.0 / r)
    panels = max(1, math.ceil(r * end / 4.0))
    previous = None
    for _ in range(_MAX_DOUBLINGS + 1):
        half = 0.5 * end / panels
        s = (2.0 * np.arange(panels) + 1.0)[:, None] * half + half * _GL_NODES
        estimate = half * float(np.sum((a * s * np.exp(-r * s)) @ _GL_WEIGHTS))
        if previous is not None and abs(estimate - previous) <= tol * max(1.0, abs(estimate)):
            return estimate
        previous = estimate
        panels *= 2
    raise NumericError(
        f"quadrature on [0, {end!r}] did not converge after {_MAX_DOUBLINGS} panel doublings"
    )


def brute_force_minimize(params: AssetParams) -> MinimizationReport:
    """Locate all global minimizers of the ownership cost on [0, inf].

    Scans the whole grid once, by branch and bound (``_scan``), refines all
    candidate basins (grid local minima and age 0) together, by repeated
    65-point zooms of their brackets until their values tie, and keeps the
    basins whose refined values tie the best one within ``TIE_RTOL``.  Runs
    of >= 3 grid points value-tied with the minimum are reported as a
    plateau: there the cost is flat at rounding level and no value comparison
    can single out a point.  A run that reaches the last grid point ends at
    inf.  Uses only value comparisons of the cost.  Raises ``ScanGaveUp``
    when the scan gives up.
    """
    indices, values, h_min = _scan(params)
    argmin_index = int(indices[np.argmin(values)])
    runs = _tied_runs(indices, values <= h_min + TIE_RTOL * abs(h_min))
    start, end = max(runs, key=lambda run: run[1] - run[0])
    # Age inf opens no bracket: its cost h(inf) is the grid's last value.
    basins = np.array(sorted((set(_basins(indices, values)) | {argmin_index}) - {_LAST}), dtype=np.int64)
    # The ages of the brackets' ends, then of the plateau's ends, the argmin and tail_start.
    marks = [start, end, argmin_index, indices[-2]]
    ages = _ages(np.concatenate((np.maximum(basins - 1, 0), np.minimum(basins + 1, _LAST - 1), marks)))
    lows, highs = ages[: basins.size], ages[basins.size : -4]
    start_age, end_age, argmin_age, tail_start = ages[-4:].tolist()
    plateau = (start_age, end_age) if end - start + 1 >= PLATEAU_MIN_POINTS else None
    locations, values = _zoom(params, lows, highs)

    best_value = min(float(values.min(initial=math.inf)), h_min)
    tie_band = best_value + TIE_RTOL * abs(best_value)

    points: list[float] = []
    brackets: list[tuple[float, float]] = []
    for lo, hi, location, value in zip(lows.tolist(), highs.tolist(), locations.tolist(), values.tolist()):
        if value > tie_band or (plateau is not None and lo <= plateau[1] and plateau[0] <= hi):
            continue  # not tied, or already represented by the plateau
        if brackets and lo <= brackets[-1][1]:
            brackets[-1] = (brackets[-1][0], hi)  # same basin reached from two candidate indices
            continue
        points.append(location)
        brackets.append((lo, hi))
    if not points:  # the plateau holds every tied basin: any tied point stands for it
        points, brackets = [argmin_age], [(argmin_age, argmin_age)]
    return MinimizationReport(
        argmin_points=tuple(points), brackets=tuple(brackets), plateau=plateau, min_value=best_value,
        refinements=len(basins), tail_start=tail_start,
    )


def _ages(indices):
    """The ages of grid indices.

    They lie ``GRID_STEP`` apart up to index ``_LINEAR_END`` (10 y), and
    each is 1 + 1/``_LINEAR_END`` times the one before from there on, so the
    spacing is continuous at 10 y and is age/``_LINEAR_END`` past it.  The
    age overflows to inf at index ``_LAST``.
    """
    with np.errstate(over="ignore"):
        ages = _LINEAR_END * GRID_STEP * np.exp((indices - _LINEAR_END) * _LOG_RATIO)
    return np.where(indices <= _LINEAR_END, indices * GRID_STEP, ages)


def _spacing(age: float) -> float:
    """The grid spacing at ``age``."""
    return max(GRID_STEP, age / _LINEAR_END)


def _scan(params):
    """The grid points that can tie the cost's minimum, by branch and bound.

    A cell [lo, hi] of grid indices carries the pieces D and I of
    ``cost_pieces`` at both ends (at age inf, their limits D = 0 and
    I = a/r).  D never rises and I never falls, so each cost in a cell lies
    between the cost of D(hi) and I(lo) and that of D(lo) and I(hi).  The
    cells are the columns of one float array with rows lo, D(lo), I(lo),
    I(hi), D(hi), hi (indices lie below 2^53, so floats hold them exactly):
    rows 1:3 plus rows 3:5 are the pieces of the upper and lower bounds.
    The first cells end at 10 y, at a 64th of the geometric indices
    (6.3e5 y) and at inf: a first split of [10 y, inf) would spend 63 of
    its points past 6e5 y and cost most rows one more level.  Each level
    drops the cells whose lower bound lies above the tie threshold of the
    least value so far and keeps those whose upper bound does not; in one
    cost evaluation it fills in the other cells of at most ``_SPLIT``
    indices and splits the rest ``_SPLIT`` ways, until no cell is left to
    split.  Raises ``ScanGaveUp`` past ``GRID_BUDGET`` points.  Returns the
    evaluated indices in increasing order, their costs and the least value.
    """
    steps = np.arange(_SPLIT + 1)
    first = np.array([0, _LINEAR_END, _LINEAR_END + (_LAST - _LINEAR_END) // _SPLIT, _LAST])
    d, i, h = cost_pieces(params, _ages(first))
    indices, values, h_min, evaluated = [first], [h], float(h.min()), first.size
    ends = np.array([first, d, i], dtype=float)
    cells = np.concatenate((ends[:, :-1], ends[::-1, 1:]))
    r = params.interest_rate
    while True:
        threshold = h_min + TIE_RTOL * abs(h_min)
        # cost_of_pieces of the bounds' pieces, in its operation order, then widened
        bounds = (cells[1:3] + cells[3:5] + params.acquisition_cost * r) * (math.expm1(r) / r) * _BOUND_SLACK
        keep = bounds[1] <= threshold
        split = keep & (bounds[0] > threshold)
        parts = cells.compress(split, axis=1)
        if not parts.size:
            break
        kept = cells.compress(keep ^ split, axis=1)  # split lies within keep
        small = parts[5] - parts[0] <= _SPLIT
        inside = parts[0, :, None] + steps[1:-1]
        inside = inside[small[:, None] & (inside < parts[5, :, None])]
        cut = parts.compress(~small, axis=1)
        edges = np.empty((3, cut.shape[1], _SPLIT + 1))  # index, D and I at each cut
        edges[0] = cut[0, :, None] + (cut[5] - cut[0]).astype(np.int64)[:, None] * steps // _SPLIT
        new = np.concatenate((inside, edges[0, :, 1:-1]), axis=None)
        evaluated += new.size
        if evaluated > GRID_BUDGET:
            raise ScanGaveUp(f"the scan needs more than {GRID_BUDGET} cost evaluations", h_min)
        d, i, h = cost_pieces(params, _ages(new))
        indices.append(new)
        values.append(h)
        h_min = min(h_min, float(h.min(initial=math.inf)))
        edges[1:, :, 0], edges[1:, :, -1] = cut[1:3], cut[4:2:-1]
        edges[1, :, 1:-1] = d[inside.size :].reshape(-1, _SPLIT - 1)
        edges[2, :, 1:-1] = i[inside.size :].reshape(-1, _SPLIT - 1)
        halves = np.concatenate((edges[:, :, :-1], edges[::-1, :, 1:])).reshape(6, -1)
        cells = np.concatenate((kept, halves), axis=1)
    indices, values = np.concatenate(indices), np.concatenate(values)
    order = np.argsort(indices)
    return indices[order].astype(np.int64), values[order], h_min


def _basins(indices, values):
    """The ``_MAX_BASINS`` least strict local minima of evaluated neighbours, and age 0."""
    adjacent = np.diff(indices) == 1
    falls, rises = values[1:] < values[:-1], values[1:] > values[:-1]
    strict = (adjacent[:-1] & adjacent[1:] & falls[:-1] & rises[1:]).nonzero()[0] + 1
    strict = strict[np.lexsort((indices[strict], values[strict]))[:_MAX_BASINS]]
    return indices[strict].tolist() + ([] if adjacent[0] and falls[0] else [0])


def _tied_runs(indices, tied):
    """Inclusive (start, end) index runs of the grid points that tie.

    A point the scan skipped ties exactly when the two ends of its cell do:
    the bounds of a dropped cell put all its points above the threshold, and
    those of a kept cell put them all at or below it.
    """
    edges = np.diff(np.concatenate(([0], tied, [0])).astype(np.int8)).nonzero()[0]
    return list(zip(indices[edges[::2]].tolist(), indices[edges[1::2] - 1].tolist()))


def _zoom(params, lo, hi):
    """Best grid point and value in each bracket [lo[k], hi[k]]; lo and hi are left as given.

    Every level lays a ``_ZOOM_POINTS`` grid over each bracket still open,
    in one cost evaluation for all of them, and narrows it to the two
    spacings around its best point, 1/32 of its width.  A bracket closes once
    all its values tie its best within ``TIE_RTOL``: value comparison cannot
    narrow it further.  So the final width follows the cost's own scale: an
    optimum at 1e-150 y is reached, and a bracket rising from age 0 closes
    long before subnormal ages.  The level count would narrow the widest
    bracket below the least positive double, so every bracket closes.
    """
    fractions = np.arange(_ZOOM_POINTS) / (_ZOOM_POINTS - 1)
    best_ages, best_values = np.empty(len(lo)), np.empty(len(lo))
    rows = np.arange(len(lo))  # the brackets still open; lo and hi hold theirs
    widest = max(float((hi - lo).max(initial=0.0)), math.ulp(0.0))
    levels = max(1, math.ceil((math.log(widest) - math.log(math.ulp(0.0))) / math.log((_ZOOM_POINTS - 1) / 2)))
    for _ in range(levels):
        ages = lo[:, None] + (hi - lo)[:, None] * fractions
        values = property_cost(params, ages)
        best = values.argmin(axis=1)
        flat = best + np.arange(0, values.size, _ZOOM_POINTS)  # into the flattened grids
        least = values.take(flat)
        best_ages[rows], best_values[rows] = ages.take(flat), least
        still = values.max(axis=1) > least + TIE_RTOL * np.abs(least)
        rows, flat, best = rows[still], flat[still], best[still]
        if not rows.size:
            break
        lo, hi = ages.take([flat - (best > 0), flat + (best < _ZOOM_POINTS - 1)])
    return best_ages, best_values


def check_against_search(params: AssetParams, result) -> str | None:
    """Compare a closed-form classification against the brute-force scan.

    Reads only ``result.min_cost`` and ``result.minimizers``.  Returns None on
    agreement; a message starting "verification inconclusive:" when
    ``brute_force_minimize`` gives up and no cost it evaluated undercuts
    ``min_cost``; otherwise a one-line description of the first discrepancy.
    Minimizers are compared by value, all that a value-comparing search can
    certify: a claimed point agrees when it lies inside the reported plateau,
    or when its cost ties the search's least value within ``TIE_RTOL`` and it
    lies in the grid bracket of a tied basin.  A tied basin whose bracket
    holds no claimed point is an extra minimizer.  Plateau ends agree within
    one grid spacing.  A plateau that reaches inf contains every claimed
    optimum past its start, and agrees with a claimed interval that ends in
    the scan's last cell.
    """
    scale = max(abs(result.min_cost), 1e-300)

    def cost_mismatch(found: float) -> str:
        return f"min cost mismatch: closed form {result.min_cost!r} vs search {found!r}"

    try:
        report = brute_force_minimize(params)
    except ScanGaveUp as exc:
        if result.min_cost - exc.least > VALUE_RTOL * scale:
            return cost_mismatch(exc.least)
        return f"verification inconclusive: {exc}"
    if abs(report.min_value - result.min_cost) > VALUE_RTOL * scale:
        return cost_mismatch(report.min_value)

    plateau = report.plateau
    claimed = result.minimizers
    if claimed.kind == "interval":
        if plateau is None:
            return "closed form claims an interval of minimizers; search found none"
        lo, hi = claimed.values
        # past tail_start the scan cannot tell the ages of a kept last cell apart
        if plateau[1] == math.inf:
            end_agrees = hi >= report.tail_start - _spacing(report.tail_start)
        else:
            end_agrees = abs(plateau[1] - hi) <= _spacing(plateau[1])
        if abs(plateau[0] - lo) > _spacing(plateau[0]) or not end_agrees:
            return (
                f"plateau mismatch: closed form [{lo!r}, {hi!r}] vs "
                f"search [{plateau[0]!r}, {plateau[1]!r}]"
            )
        return None

    tie_band = report.min_value + TIE_RTOL * abs(report.min_value)
    for point, cost in zip(claimed.values, property_cost(params, claimed.values)):
        in_plateau = plateau is not None and (
            plateau[0] - _spacing(plateau[0]) <= point <= plateau[1] + _spacing(plateau[1])
        )
        if not (in_plateau or cost <= tie_band and any(lo <= point <= hi for lo, hi in report.brackets)):
            return (
                f"minimizer {point!r} not reproduced by search "
                f"(found {report.argmin_points!r}, plateau {plateau!r})"
            )
    if plateau is None:
        for found, (lo, hi) in zip(report.argmin_points, report.brackets):
            if not any(lo <= point <= hi for point in claimed.values):
                return f"search found an extra minimizer at {found!r}"
    return None
