"""Independent numerical ground truth for the closed forms.

A branch-and-bound search that locates the global minimizers of the
ownership cost, deliberately ignorant of the classification machinery: it
reads only the cost model, the cost, its two monotone pieces and the two
monotone pieces of its slope.  Tests and the fleet ``--verify`` mode use it
to cross-check the closed-form path; nothing here is consulted by that path.

One step (``_branch_and_bound``) bounds cells, drops those that cannot tie,
and splits the rest, first on a grid (``_scan``), then on continuous ages
(``_refine``).  The grid covers [0, inf] in finitely many points: GRID_STEP
apart up to 10 years, then spaced a 10,000th of their age, so its last
point, index ``_LAST`` near 7.1e6, lies at age inf, where the cost's pieces
take their limits D = 0 and I = a/r.  Every grid cell, the last one too, is
bounded from the pieces at its ends, so the scan decides on the whole
domain.  The grid brackets that can tie are then refined, as cells bounded
by the slope, until each one's least value lies within ``ZOOM_RTOL`` of a
lower bound of its cost.  A check gives one of three verdicts: None
(agreement), a description of the discrepancy, or, when the scan would pass
its point budget, a message starting "verification inconclusive:".
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .cost_model import AssetParams, cost_and_slope_pieces, cost_of_pieces, cost_pieces
from .errors import NumericError

__all__ = [
    "MinimizationReport",
    "brute_force_minimize",
    "check_against_search",
]

#: Grid values within this relative band of the minimum count as tied.
TIE_RTOL = 1e-12
#: A refinement cell closes once its lower cost bound lies within this
#: relative band of the least value found in its bracket.
ZOOM_RTOL = 1e-14
#: ``check_against_search`` tolerance for the minimum cost, relative.
#: The error budget: the refinement leaves each bracket's least value within
#: ``ZOOM_RTOL`` of a lower bound of its cost (of the least normal double,
#: where that value is subnormal, as this band is), one that rounds by a few eps,
#: and the cost model is within 4e-15 of a decimal evaluation of the
#: cash-flow definition (the bound of the tests'
#: ``test_costs_match_the_cash_flow_definition``).  A closed form right to a few ulp
#: therefore lies well inside 1e-13, so a mismatch at this band is a defect
#: of the closed form, not a limit of the search.
VALUE_RTOL = 1e-13
#: A run of at least this many tied grid points is reported as a plateau.
PLATEAU_MIN_POINTS = 3
#: ``brute_force_minimize`` gives up, and ``check_against_search`` calls the
#: row inconclusive, when the scan would evaluate more grid points than this.
GRID_BUDGET = 1 << 18
#: The grid step of ``brute_force_minimize`` up to 10 years, in years.
GRID_STEP = 1e-3


def _read_only(array):
    """``array``, made read-only: every search shares the module's constant arrays."""
    array.setflags(write=False)
    return array


# A cell that the search splits is split this many ways.
_SPLIT = 64
# The grid is linear up to index _LINEAR_END (10 y), then geometric with the
# spacing continuous there, and its index _LAST is the first whose age
# overflows to inf.
_LINEAR_END = 10_000
_LOG_RATIO = math.log1p(1.0 / _LINEAR_END)
_LAST = _LINEAR_END + math.ceil(math.log(np.finfo(float).max / (_LINEAR_END * GRID_STEP)) / _LOG_RATIO)
# Factors widening ``cost_of_pieces`` into the upper and lower cost bound of
# a cell or candidate bracket: they cover the pieces' rounding.
_BOUND_SLACK = _read_only(1.0 + np.array([[64.0], [-64.0]]) * np.finfo(float).eps)
# Factors widening a slope piece of ``cost_and_slope_pieces`` into bounds of
# its exact value, where the piece and A are normal.  Error budget in eps = 2^-52:
# e^x - 1 - x cancels 20-fold at x = 0.1, so q' = p (1 - q/x) is within 25,
# P and N within 26 (8 past the junction); rounding x = r t adds up to x/2
# <= 350 to q' and p.  A decimal reference finds at most 245, near x = 700.
_SLOPE_SLACK = (1.0 + 1024.0 * np.finfo(float).eps, 1.0 - 1024.0 * np.finfo(float).eps)


@dataclass(frozen=True)
class MinimizationReport:
    """Outcome of a brute-force scan of the ownership cost.

    argmin_points holds the least refined point of each tied basin outside
    the plateau, and brackets the span from the grid point before its grid
    index to the one after, one per point and never merged; plateau is the
    span of value-tied grid points when the minimum is flat at grid
    resolution, with an end of inf when the cost ties its minimum at every
    larger age.  Every reported point attains min_value to within the tie
    tolerance.  tail_start is the last age the scan evaluated short of inf:
    past it the scan bounds the cost as one cell and cannot tell its ages
    apart.  refinements is the number of brackets refined: the candidate
    basins whose bracket's lower cost bound reaches the tie threshold.
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


def brute_force_minimize(params: AssetParams) -> MinimizationReport:
    """Locate all global minimizers of the ownership cost on [0, inf].

    Scans the whole grid once, by branch and bound (``_scan``).  Of the
    candidate basins (grid local minima and age 0) it refines those whose
    bracket's lower cost bound, from the scan's pieces, reaches the tie
    threshold of the least grid value: each on its own, by the same branch
    and bound on continuous ages (``_refine``), until the least value found
    in it lies within ``ZOOM_RTOL`` of a lower bound of its cost.  It
    keeps the basins whose refined values tie the best one within
    ``TIE_RTOL``, and reports the number of brackets refined as
    ``refinements`` (0 where none can tie).  Runs of >= 3 grid points
    value-tied with the minimum are reported as a plateau: there the cost is
    flat at rounding level and no value comparison can single out a point.
    A run that reaches the last grid point ends at inf.  Raises
    ``ScanGaveUp`` when the scan gives up.
    """
    return _search(params, ())[0]


@np.errstate(over="ignore")  # a cost past the float range is inf
def _search(params, claimed):
    """``brute_force_minimize``'s report, and the costs at the ``claimed`` ages,
    priced in the scan's first evaluation but not counted as scanned."""
    first = cost_pieces(params, np.concatenate((_FIRST_AGES, claimed)) if claimed else _FIRST_AGES)
    indices, values, h_min, d, i = _scan(params, first)
    threshold = h_min + TIE_RTOL * abs(h_min)
    argmin_index = int(indices[np.argmin(values)])
    start, end = max(_tied_runs(indices, values <= threshold), key=lambda run: run[1] - run[0])
    # Age inf opens no bracket: its cost h(inf) is the grid's last value.
    basins = np.array(sorted((set(_basins(indices, values)) | {argmin_index}) - {_LAST}), dtype=np.int64)
    below, above = np.maximum(basins - 1, 0), np.minimum(basins + 1, _LAST - 1)
    # Refine only the brackets [below, above] that can tie.  D at the first
    # evaluated index from `above` on and I at the last one up to `below`
    # bound their costs from below, as a scan cell's ends do, and the
    # threshold is at least the final tie band.
    pieces = d[np.searchsorted(indices, above)], i[np.searchsorted(indices, below, "right") - 1]
    reach = cost_of_pieces(params, *pieces) * _BOUND_SLACK[1] <= threshold
    refined = int(reach.sum())
    # The brackets' low ends, basins and high ends, then the plateau's ends, the argmin and tail_start.
    ages = _ages(np.concatenate((below[reach], basins[reach], above[reach], [start, end, argmin_index, indices[-2]])))
    lows, highs = ages[:refined], ages[2 * refined : -4]
    start_age, end_age, argmin_age, tail_start = ages[-4:].tolist()
    plateau = (start_age, end_age) if end - start + 1 >= PLATEAU_MIN_POINTS else None
    locations, values = np.array([_refine(params, ages[k::refined][:3]) for k in range(refined)]).reshape(-1, 2).T

    best_value = min(float(values.min(initial=math.inf)), h_min)
    tie_band = best_value + TIE_RTOL * abs(best_value)

    # The tied basins, but for those the plateau already represents.
    keep = values <= tie_band
    if plateau is not None:
        keep &= (lows > plateau[1]) | (highs < plateau[0])
    points, brackets = locations[keep].tolist(), list(zip(lows[keep].tolist(), highs[keep].tolist()))
    if not points:  # the plateau holds every tied basin: any tied point stands for it
        points, brackets = [argmin_age], [(argmin_age, argmin_age)]
    return MinimizationReport(
        argmin_points=tuple(points), brackets=tuple(brackets), plateau=plateau, min_value=best_value,
        refinements=refined, tail_start=tail_start,
    ), first[2][_FIRST_AGES.size :]


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


def _cuts(lo, hi):
    """The ``_SPLIT`` + 1 grid indices that cut [lo[k], hi[k]] ``_SPLIT`` ways, ends included, as row k."""
    return lo[:, None] + (hi - lo).astype(np.int64)[:, None] * np.arange(_SPLIT + 1) // _SPLIT


def _first_level():
    """The grid indices of the scan's first cost evaluation, and their ages.

    The finite first cells [0, 10 y] and [10 y, 6.3e5 y] (a ``_SPLIT``-th of
    the geometric indices), each cut by ``_cuts`` as ``_scan`` cuts a wide
    cell, then index ``_LAST`` (age inf).  Increasing, none repeated.
    """
    anchors = np.array([0, _LINEAR_END, _LINEAR_END + (_LAST - _LINEAR_END) // _SPLIT])
    indices = np.concatenate((_cuts(anchors[:-1], anchors[1:])[:, :-1], [[anchors[-1], _LAST]]), axis=None)
    return indices, _ages(indices)


_FIRST_INDICES, _FIRST_AGES = map(_read_only, _first_level())


def _pairs(edges):
    """The cells between consecutive edges (columns of ``edges``, or rows of
    them along its last axis): rows as in ``_branch_and_bound``."""
    return np.concatenate((edges[..., :-1], edges[::-1, ..., 1:])).reshape(2 * len(edges), -1)


def _branch_and_bound(cells, judge, grow):
    """Settle ``cells`` by branch and bound.

    A cell is a column of a float array whose rows mirror each other: the
    position of its low end and values there, then the same values at its
    high end in reverse order and that end's position.  Each step ``judge``s
    the cells from bounds of their costs: which to keep and which of those
    to split; it keeps the others whole.  ``grow`` takes the cells to split
    and returns those it splits ``_SPLIT`` ways and the positions and values
    at their inner cuts, one row each, cell after cell.  The parts replace
    the cells they split, until no cell is left to split.
    """
    while True:
        keep, split = judge(cells)
        parts = cells.compress(split, axis=1)
        if not parts.size:
            return
        parts, inner = grow(parts)
        rows, count = len(parts) // 2, parts.shape[1]
        inner = np.array(inner).reshape(rows, count, _SPLIT - 1)
        # each cut's position and values, its parts' ends included
        edges = np.concatenate((parts[:rows, :, None], inner, parts[: rows - 1 : -1, :, None]), axis=2)
        cells = np.concatenate((cells.compress(keep ^ split, axis=1), _pairs(edges)), axis=1)  # split lies within keep


def _scan(params, first=None):
    """The grid points that can tie the cost's minimum, by branch and bound.

    A cell [lo, hi] of grid indices carries the pieces D and I of
    ``cost_pieces`` at both ends (at age inf, their limits D = 0 and
    I = a/r).  D never rises and I never falls, so each cost in a cell lies
    between the cost of D(hi) and I(lo) and that of D(lo) and I(hi).  The
    cells have rows lo, D(lo), I(lo), I(hi), D(hi), hi (indices lie below
    2^53, so floats hold them exactly): ``cost_of_pieces`` of rows 1:3 and
    rows 3:5, widened by ``_BOUND_SLACK``, gives the upper and lower bounds.
    The first evaluation covers ``_first_level``: the finite cells
    [0, 10 y] and [10 y, 6.3e5 y], already split ``_SPLIT`` ways because
    nearly every row splits both, and the tail cell [6.3e5 y, inf] whole, to
    be judged like any other: a first split of [10 y, inf) would spend 63
    of its points past 6e5 y.  Each step of ``_branch_and_bound`` drops the
    cells whose lower bound lies above the tie threshold of the least value
    so far and keeps those whose upper bound does not; in one cost
    evaluation it fills in the other cells of at most ``_SPLIT`` indices and
    splits the rest ``_SPLIT`` ways.  Raises ``ScanGaveUp`` past
    ``GRID_BUDGET`` points, the first evaluation's included.  Returns the
    evaluated indices in increasing order, their costs, the least value,
    and the pieces D and I at those indices, from which
    ``brute_force_minimize`` bounds each candidate bracket: it refines only
    those that can tie.  ``first`` is ``cost_pieces`` at ``_FIRST_AGES`` and
    then at ages the scan ignores.
    """
    d, i, h = (piece[: _FIRST_AGES.size] for piece in first or cost_pieces(params, _FIRST_AGES))
    found = [(_FIRST_INDICES, d, i, h)]  # each evaluation's indices, pieces and costs
    h_min, evaluated = float(h.min()), _FIRST_INDICES.size

    def judge(cells):
        upper, lower = cost_of_pieces(params, cells[1:3], cells[3:5]) * _BOUND_SLACK
        threshold = h_min + TIE_RTOL * abs(h_min)
        keep = lower <= threshold
        return keep, keep & (upper > threshold)

    def grow(parts):
        nonlocal h_min, evaluated
        small = parts[5] - parts[0] <= _SPLIT
        inside = parts[0, :, None] + np.arange(1, _SPLIT)
        inside = inside[small[:, None] & (inside < parts[5, :, None])]
        cut = parts.compress(~small, axis=1)
        new = np.concatenate((inside, _cuts(cut[0], cut[5])[:, 1:-1]), axis=None)
        evaluated += new.size
        if evaluated > GRID_BUDGET:
            raise ScanGaveUp(f"the scan needs more than {GRID_BUDGET} cost evaluations", h_min)
        d, i, h = cost_pieces(params, _ages(new))
        found.append((new, d, i, h))
        h_min = min(h_min, float(h.min(initial=math.inf)))
        return cut, (new[inside.size :], d[inside.size :], i[inside.size :])

    _branch_and_bound(_pairs(np.array([_FIRST_INDICES, d, i], dtype=float)), judge, grow)
    indices, d, i, values = map(np.concatenate, zip(*found))
    order = np.argsort(indices)
    return indices[order].astype(np.int64), values[order], h_min, d[order], i[order]


def _basins(indices, values):
    """The strict local minima of evaluated neighbours, and age 0."""
    adjacent = np.diff(indices) == 1
    falls, rises = values[1:] < values[:-1], values[1:] > values[:-1]
    strict = (adjacent[:-1] & adjacent[1:] & falls[:-1] & rises[1:]).nonzero()[0] + 1
    return indices[strict].tolist() + ([] if adjacent[0] and falls[0] else [0])


def _tied_runs(indices, tied):
    """Inclusive (start, end) index runs of the grid points that tie.

    A point the scan skipped ties exactly when the two ends of its cell do:
    the bounds of a dropped cell put all its points above the threshold, and
    those of a kept cell put them all at or below it.
    """
    edges = np.diff(np.concatenate(([0], tied, [0])).astype(np.int8)).nonzero()[0]
    return list(zip(indices[edges[::2]].tolist(), indices[edges[1::2] - 1].tolist()))


def _refine(params, ages):
    """The least cost found in a bracket, and its age.

    ``ages`` holds the bracket's low end, its basin and its high end.  The
    first evaluation reads those ages and, where the bracket spans the
    full-depreciation age J, J and the double after it; the cell between
    those two holds no other double.  On a cell [u, v] on one side of J, the
    cost's slope lies between scale (P(v) - N(u)) and scale (P(u) - N(v))
    (the slope pieces of ``cost_and_slope_pieces``, each widened by
    ``_SLOPE_SLACK``, the two bounds by the least normal double).  So the
    cost lies above the line from (u, h(u)) with the least slope and the one
    from (v, h(v)) with the greatest, and a cell closes once those lines stay
    within ``ZOOM_RTOL`` of the least value found in the bracket (of the
    least normal double where that value is subnormal) across it: at once
    where the slope has one sign, and else once the cell is narrow enough,
    since their gap shrinks with the square of its width.  Where A is
    subnormal, D past J can be too, and N then rounds by up to
    2^-1072 (1 + 1/t) absolute: the slope bounds take that on.
    ``_branch_and_bound`` splits the other cells ``_SPLIT`` ways,
    geometrically where they span more than an octave, and drops those with
    no double inside.
    """
    junction, tiny, (up, down) = params.junction, sys.float_info.min, _SLOPE_SLACK
    cut = (junction, math.nextafter(junction, math.inf)) if ages[0] <= junction < ages[-1] else ()
    ages = np.array(sorted({*ages.tolist(), *cut}))
    h, pos, neg = cost_and_slope_pieces(params, ages)
    least, best = h.min(), ages[h.argmin()]

    def judge(cells):  # rows u, P, N and cost at u, then the same at v in reverse order
        threshold = least - ZOOM_RTOL * max(abs(least), tiny)
        slopes = np.maximum(cells[1:3] * up - cells[5:7] * down, tiny)  # the greatest rise and fall, / scale
        if params.acquisition_cost < tiny:  # N's rounding at v and at u, past J
            slopes += np.divide(2.0**-1071, np.minimum(cells[[-1, 0]], 1.0), out=np.zeros_like(slopes), where=cells[0] > junction)
        # The line from u stays above the threshold up to (h(u) - threshold) / (scale fall) past u, the
        # one from v as far short of v: where the two spans cover the cell, the cost stays above it.
        spans = ((np.fmin(cells[3:5], sys.float_info.max) - threshold) / slopes[::-1]).sum(axis=0)
        split = spans < math.expm1(params.interest_rate) / params.interest_rate * (cells[-1] - cells[0])
        return split, split

    def grow(parts):
        nonlocal least, best
        parts = parts.compress(np.nextafter(parts[0], math.inf) < parts[-1], axis=1)  # a double inside
        u, v, fractions = parts[0, :, None], parts[-1, :, None], np.arange(1, _SPLIT) / _SPLIT
        inner = u + (v - u) * fractions
        if (v > 2.0 * u).any():  # cut geometrically where a cell spans more than an octave
            with np.errstate(divide="ignore", invalid="ignore"):  # log 0 is -inf, unused
                inner = np.where((u > 0.0) & (v > 2.0 * u), np.exp(np.log(u) + (np.log(v) - np.log(u)) * fractions), inner)
        inner = inner.ravel()
        h, pos, neg = cost_and_slope_pieces(params, inner)
        if h.min(initial=math.inf) < least:
            least, best = h.min(), inner[h.argmin()]
        return parts, (inner, pos, neg, h)

    _branch_and_bound(_pairs(np.array([ages, pos, neg, h])), judge, grow)
    return float(best), float(least)


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

    The case label is not checked: a value check cannot tell C1 from C4_1,
    which both claim age 0, nor C4_3 from C5, which both claim the interior
    age, and it tests neither C4_1's interior local minimum nor C1's claim
    that the cost has none.
    """
    # Below the least normal double the cost model rounds by a few subnormal
    # ulp, far inside the band.
    scale = max(abs(result.min_cost), sys.float_info.min)

    def cost_mismatch(found: float) -> str:
        return f"min cost mismatch: closed form {result.min_cost!r} vs search {found!r}"

    claimed = result.minimizers
    try:
        report, costs = _search(params, claimed.values)
    except ScanGaveUp as exc:
        if result.min_cost - exc.least > VALUE_RTOL * scale:
            return cost_mismatch(exc.least)
        return f"verification inconclusive: {exc}"
    if abs(report.min_value - result.min_cost) > VALUE_RTOL * scale:
        return cost_mismatch(report.min_value)

    plateau = report.plateau
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
    for point, cost in zip(claimed.values, costs):
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
