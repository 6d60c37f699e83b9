"""Independent numerical ground truth for the closed forms.

A branch-and-bound search that locates the global minimizers of the
ownership cost, deliberately ignorant of the classification machinery: it
reads only the cost model, and from one kernel pass at each age it evaluates
the cost, its two monotone pieces and the two monotone pieces of its slope.
Tests and the fleet ``--verify`` mode use it to cross-check the closed-form
path; nothing here is consulted by that path.

One step (``_branch_and_bound``) bounds cells of ages, drops those that
cannot tie, and splits the rest.  The scan covers [0, inf]: it bounds each
cell by the cost's pieces at its ends, the last one too, which ends at age
inf, where the pieces take their limits D = 0 and I = a/r, and it resolves
ages down to ``_spacing``: ``GRID_STEP`` up to 10 years, a 10,000th of the
age past them.  Each candidate basin is then refined from the ages the scan
evaluated around it, as cells bounded by the slope, until its cost lies above
the scan's tie threshold (a bracket that cannot tie closes at once) or its
least value lies within ``ZOOM_RTOL`` of a lower bound of its cost.
``GRID_BUDGET`` bounds the points of the whole search.  A check gives one of
three verdicts: None (agreement), a description of the discrepancy, or a
message starting "verification inconclusive:" when the search would pass its
point budget, or when two minima tie too closely for it to say which one a
single claimed point should be.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .cost_model import AssetParams, cost_and_slope_pieces, cost_of_pieces
from .errors import NumericError

__all__ = [
    "MinimizationReport",
    "brute_force_minimize",
    "check_against_search",
]

#: Evaluated values within this relative band of the minimum count as tied.
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
#: A run of at least this many tied evaluated ages, or one across a cell the
#: scan kept whole, is reported as a plateau.
PLATEAU_MIN_POINTS = 3
#: ``brute_force_minimize`` gives up, and ``check_against_search`` calls the
#: row inconclusive, when the search would evaluate more ages than this, its
#: scan and its refinements together.
GRID_BUDGET = 1 << 18
#: The search's resolution up to 10 years, in years; past them it is a
#: 10,000th of the age (``_spacing``).
GRID_STEP = 1e-3


def _read_only(array):
    """``array``, made read-only: every search shares the module's constant arrays."""
    array.setflags(write=False)
    return array


# A cell that the search splits is split this many ways.
_SPLIT = 64
# Factors widening ``cost_of_pieces`` into the upper and lower cost bound of
# a scan cell: they cover the pieces' rounding.
_BOUND_SLACK = _read_only(1.0 + np.array([[64.0], [-64.0]]) * np.finfo(float).eps)
# Factors widening a slope piece of ``cost_and_slope_pieces`` into bounds of
# its exact value, where the piece and A are normal.  Error budget in eps = 2^-52:
# e^x - 1 - x cancels 20-fold at x = 0.1, so q' = p (1 - q/x) is within 25,
# P and N within 26 (8 past the junction); rounding x = r t adds up to x/2
# <= 350 to q' and p.  A decimal reference finds at most 245, near x = 700.
_SLOPE_SLACK = (1.0 + 1024.0 * np.finfo(float).eps, 1.0 - 1024.0 * np.finfo(float).eps)
# Added to each slope bound after flooring it at 0.  Where P or N is
# subnormal, its error has an absolute part that the relative slack does not
# cover: up to 2^-1075 for each rounding into that range (the piece's own,
# and that of the piece times a slack factor), and, below 2^-1032, where
# 1024 eps of the piece is less than one subnormal step, its relative error,
# which is then under 2^-1075 as well.  A bound that takes such a piece is
# subnormal or floored to 0, and this term covers 32 such roundings; or it
# exceeds 2^-1022, and the slack's headroom over the 350 eps above covers them.
_SLOPE_FLOOR = 2.0**-1070


@dataclass(frozen=True)
class MinimizationReport:
    """Outcome of a brute-force search of the ownership cost.

    argmin_points holds the least refined point of each tied basin outside
    the plateau, and brackets the span from the age the scan evaluated
    before it to the one after, one per point and never merged; plateau is
    the span of a run of value-tied evaluated ages when the minimum is flat
    at the search's resolution, with an end of inf when the cost ties its
    minimum at every larger age.  Every reported point attains min_value to
    within the tie tolerance.  tail_start is the last age the scan evaluated
    short of inf: past it the scan bounds the cost as one cell and cannot
    tell its ages apart.  refinements is the number of candidate brackets,
    each of them refined: one that cannot tie closes without a split.
    """

    argmin_points: tuple[float, ...]
    brackets: tuple[tuple[float, float], ...]
    plateau: tuple[float, float] | None
    min_value: float
    refinements: int
    tail_start: float


class ScanGaveUp(NumericError):
    """The search stopped early; ``least`` is the least cost it evaluated, h(inf) included."""

    def __init__(self, reason: str, least: float):
        super().__init__(reason)
        self.least = least


def brute_force_minimize(params: AssetParams) -> MinimizationReport:
    """Locate all global minimizers of the ownership cost on [0, inf].

    Scans [0, inf] once, by branch and bound on cells of ages bounded by the
    cost's pieces, down to the resolution ``_spacing``.  It refines every
    candidate basin (each strict local minimum of evaluated neighbours a
    resolution step apart, the least evaluated value, and age 0 where such a
    neighbour does not fall below it), each on its own, by the same branch
    and bound on cells bounded by the slope, starting from the ages the scan
    evaluated around it, under the tie threshold of the scan's least value as
    a ceiling: a bracket that cannot tie closes without a split, and the
    others once the least value found in them lies within ``ZOOM_RTOL`` of a
    lower bound of their cost.  It keeps the basins whose refined values tie
    the best one within ``TIE_RTOL``, and reports the number of candidate
    brackets as ``refinements`` (0 where the least value is h(inf) and no
    finite age is a basin).  The longest run of tied evaluated ages is
    reported as a plateau where it holds >= 3 of them or a cell the scan kept
    whole: there the cost is flat at rounding level and no value comparison
    can single out a point.  A run that reaches age inf ends at inf.  Age 0
    whose neighbour lies across a cell the scan did not fill in opens no
    bracket: the scan dropped that cell, so age 0 cannot tie, or kept it
    whole, so age 0 starts a plateau.  A run across a kept cell holds no
    strict local minimum, so unless it is the longest (the plateau) or holds
    the least value it is not reported, whether or not it starts at age 0.
    Raises ``ScanGaveUp`` when the search would pass ``GRID_BUDGET``.
    """
    return _search(params, ())[0]


def _spacing(age):
    """The search's resolution at ``age``: ``GRID_STEP`` up to 10 y, a 10,000th of the age past it."""
    return np.maximum(GRID_STEP, age / 10_000)


def _cuts(u, v):
    """The ``_SPLIT`` - 1 ages that cut [u[k], v[k]] ``_SPLIT`` ways, as row k:
    evenly, or evenly in log age where the cell spans more than an octave.
    An end at inf cuts as the largest double."""
    v = np.fmin(v, sys.float_info.max)
    width, fractions = v - u, np.arange(1, _SPLIT) / _SPLIT
    inner = u[:, None] + width[:, None] * fractions
    octaves = (width > u) & (u > 0.0)  # v > 2 u, without forming 2 u
    if octaves.any():
        low = np.log(u[octaves])[:, None]
        inner[octaves] = np.exp(low + (np.log(v[octaves])[:, None] - low) * fractions)
    return inner


# The scan's first evaluation: the cells [0, 10 y] and [10 y, 6.3e5 y], each
# cut _SPLIT ways, because nearly every row splits both, then 6.3e5 y, the
# first geometric cut of [10 y, inf), and age inf.  A first split of
# [10 y, inf) would spend 63 of its points past 6.3e5 y, so the tail cell
# [6.3e5 y, inf] starts whole, to be judged like any other.
_ENDS = np.array([0.0, 10.0, _cuts(np.array([10.0]), np.array([math.inf]))[0, 0]])
_FIRST_AGES = _read_only(np.append(np.column_stack((_ENDS[:-1], _cuts(_ENDS[:-1], _ENDS[1:]))), [_ENDS[-1], math.inf]))


def _pairs(edges):
    """The cells between consecutive edges (columns of ``edges``, or rows of
    them along its last axis): rows as in ``_branch_and_bound``."""
    return np.concatenate((edges[..., :-1], edges[::-1, ..., 1:])).reshape(2 * len(edges), -1)


def _branch_and_bound(cells, judge, grow):
    """Settle ``cells`` by branch and bound.

    A cell is a column of a float array whose rows mirror each other: the
    age of its low end and values there, then the same values at its high
    end in reverse order and that end's age.  Each step ``judge``s the cells
    from bounds of their costs: which to keep and which of those to split;
    it keeps the others whole.  ``grow`` takes the cells to split and
    returns those it splits ``_SPLIT`` ways and the ages and values at their
    inner cuts, one row each, cell after cell.  The parts replace the cells they split,
    until no cell is left to split.
    """
    while True:
        keep, split = judge(cells)
        parts = cells.compress(split, axis=1)
        if not parts.size:
            return
        parts, inner = grow(parts)
        rows, count = len(parts) // 2, parts.shape[1]
        inner = np.asarray(inner).reshape(rows, count, _SPLIT - 1)
        # each cut's age and values, its parts' ends included
        edges = np.concatenate((parts[:rows, :, None], inner, parts[: rows - 1 : -1, :, None]), axis=2)
        cells = np.concatenate((cells.compress(keep ^ split, axis=1), _pairs(edges)), axis=1)  # split lies within keep


@np.errstate(over="ignore")  # a cost past the float range is inf
def _search(params, claimed):
    """``brute_force_minimize``'s report, and the costs at the ``claimed`` ages,
    priced in the first evaluation but not counted against ``GRID_BUDGET``.

    Each evaluation is a table, kept whole for the refinement: a tuple of
    rows, the ages, then D, I, P, N and h there (``cost_and_slope_pieces``),
    so that in a cell each pair of values a bound reads is a slice.  A scan
    cell [u, v] carries the ages and the pieces D and I at both ends (at age
    inf, their limits).  D never rises and I never falls, so each cost in it
    lies between ``cost_of_pieces`` of D(u), I(v) and of D(v), I(u), widened
    by ``_BOUND_SLACK``.  Each step drops the cells whose lower bound lies
    above the tie threshold of the least value so far and keeps those whose
    upper bound does not; in one evaluation it fills in the other cells no
    wider than ``_SPLIT`` resolution steps, one step of ``_spacing`` at the
    low end apart, and cuts the rest ``_SPLIT`` ways by ``_cuts``; the last
    cell, which ends at age inf, is as wide as its span to the largest
    double, so it too is filled in once it is narrow enough.  Neighbours in
    a filled cell are a resolution step apart; a run of tied ages goes on
    across a kept cell, whose ends both tie, and stops at a dropped one,
    whose ends do not.
    """
    size = _FIRST_AGES.size
    ages = np.concatenate((_FIRST_AGES, claimed))
    priced = (ages, *cost_and_slope_pieces(params, ages))
    found = [tuple(row[:size] for row in priced)]  # each evaluation's table
    fills = [(np.zeros(size, dtype=bool), np.empty(0))]  # which ages fill a cell in, and the cells' low ends
    lowest, spent = float(found[0][5].min()), size

    def evaluate(ages):
        nonlocal lowest, spent
        spent += ages.size
        if spent > GRID_BUDGET:
            raise ScanGaveUp(f"the scan needs more than {GRID_BUDGET} cost evaluations", lowest)
        table = (ages, *cost_and_slope_pieces(params, ages))
        lowest = min(lowest, float(table[5].min(initial=math.inf)))
        return table

    def judge(cells):  # rows u, D and I at u, then I, D and v: D(u) with I(v), I(u) with D(v)
        upper, lower = cost_of_pieces(params, cells[1:3], cells[3:5]) * _BOUND_SLACK
        threshold = lowest + TIE_RTOL * abs(lowest)
        keep = lower <= threshold
        return keep, keep & (upper > threshold)

    def grow(parts):
        u, v = parts[0], parts[-1]
        step = _spacing(u)
        small = np.fmin(v, sys.float_info.max) - u <= _SPLIT * step
        inside = u[:, None] + step[:, None] * np.arange(1, _SPLIT)
        inside = inside[small[:, None] & (inside < v[:, None])]
        cut = parts.compress(~small, axis=1)
        found.append(evaluate(np.concatenate((inside, _cuts(cut[0], cut[-1]).ravel())) if cut.size else inside))
        fills.append((np.arange(found[-1][0].size) < inside.size, u[small]))
        return cut, [row[inside.size :] for row in found[-1][:3]]

    _branch_and_bound(_pairs(np.array(found[0][:3])), judge, grow)
    # Only ages and costs are gathered and sorted, which keeps a scan of many ages cheap; a bracket
    # takes its few columns from the tables.  The evaluations' filled cells are ascending runs, which
    # the stable sort merges: on a scan of 16,000 ages it takes a fifth of the default sort's time.
    ages, h, fills, filled = map(np.concatenate, ([t[0] for t in found], [t[5] for t in found], *zip(*fills)))
    order, offsets = ages.argsort(kind="stable"), np.cumsum([0] + [t[0].size for t in found])
    ages, h, last = ages[order], h[order], order.size - 1  # ages[last] is inf
    # each evaluated age's next lies a resolution step on where a filled cell holds both
    adjacent = fills[order[:-1]]
    adjacent[np.searchsorted(ages, filled)] = True

    def columns(lo, hi):
        """The tables' columns at the sorted positions lo to hi."""
        at = order[lo : hi + 1]
        k = np.searchsorted(offsets, at, side="right") - 1
        return np.array([[row[i] for row in found[j]] for j, i in zip(k, at - offsets[k])]).T

    ceiling = lowest + TIE_RTOL * abs(lowest)

    # The candidate basins, by position: strict local minima, the argmin, and age 0.
    falls, rises = h[1:] < h[:-1], h[1:] > h[:-1]
    strict = (adjacent[:-1] & adjacent[1:] & falls[:-1] & rises[1:]).nonzero()[0] + 1
    argmin = int(h.argmin())
    basins = np.array(sorted({*strict.tolist(), argmin, *([0] if adjacent[0] and not falls[0] else [])} - {last}), dtype=int)
    # Age inf opens no bracket: its cost h(inf) is the scan's own value there.
    below, above = np.maximum(basins - 1, 0), np.minimum(basins + 1, last - 1)
    refined = [_refine(params, columns(lo, hi), ceiling, evaluate) for lo, hi in zip(below, above)]
    locations, values = np.array(refined).reshape(-1, 2).T

    tied = np.diff(np.concatenate(([0], h <= ceiling, [0])).astype(np.int8)).nonzero()[0]
    starts, ends = tied[::2], tied[1::2] - 1
    run = np.subtract(ages[ends], ages[starts], out=np.zeros(ends.size), where=ends > starts).argmax()  # a run of one age, inf too, spans nothing
    start, end = starts[run], ends[run]
    flat = end - start + 1 >= PLATEAU_MIN_POINTS or not adjacent[start:end].all()  # or across a kept cell
    plateau = (float(ages[start]), float(ages[end])) if flat else None

    # The tied basins, but for those the plateau already represents.
    lows, highs = ages[below], ages[above]
    keep = values <= lowest + TIE_RTOL * abs(lowest)
    if plateau is not None:
        keep &= (lows > plateau[1]) | (highs < plateau[0])
    points, brackets = locations[keep].tolist(), list(zip(lows[keep].tolist(), highs[keep].tolist()))
    if not points:  # the plateau holds every tied basin: any tied point stands for it
        points, brackets = [float(ages[argmin])], [(float(ages[argmin]),) * 2]
    report = MinimizationReport(tuple(points), tuple(brackets), plateau, lowest, len(refined), float(ages[-2]))
    return report, priced[5][size:]


def _refine(params, bracket, ceiling, evaluate):
    """The least cost found in a bracket, and its age.

    ``bracket`` holds the scan's table columns at the bracket's low end, its
    basin and its high end, ``ceiling`` is a tie threshold: no cost above it
    matters, and ``evaluate`` makes the table of new ages as the scan does.
    Where the bracket spans the full-depreciation age J, the only new
    evaluation before the first split is J and the double after it; the
    cell between those two holds no other double.  On a cell [u, v] on one side of J, the
    cost's slope lies between scale (P(v) - N(u)) and scale (P(u) - N(v))
    (the slope pieces, each widened by ``_SLOPE_SLACK``, the two bounds
    floored at 0 and raised by ``_SLOPE_FLOOR``).  So the cost lies above the
    line from (u, h(u)) with the least slope and the one from (v, h(v)) with
    the greatest, and a cell closes once those lines stay above ``ceiling``
    or within ``ZOOM_RTOL`` of the least value found in the bracket (of the
    least normal double where that value is subnormal) across it: at once
    where the slope has one sign or the cost lies far above the ceiling, and
    else once the cell is narrow enough, since their gap shrinks with the
    square of its width.  Where A is subnormal, D past J can be too, and N
    then rounds by up to 2^-1072 (1 + 1/t) absolute: the slope bounds take
    that on.  ``_branch_and_bound`` cuts the other cells ``_SPLIT`` ways by
    ``_cuts`` and drops those with no double inside.  A span past the float
    range is inf, without a warning under ``_search``.
    """
    junction, tiny, (up, down) = params.junction, sys.float_info.min, _SLOPE_SLACK
    if bracket[0, 0] <= junction < bracket[0, -1]:
        bracket = np.concatenate((bracket, evaluate(np.array([junction, math.nextafter(junction, math.inf)]))), axis=1)
        bracket = bracket[:, bracket[0].argsort(kind="stable")]  # a cell of no width, where J was evaluated, closes
    least, best = bracket[5].min(), bracket[0, bracket[5].argmin()]

    def judge(cells):
        threshold = min(least - ZOOM_RTOL * max(abs(least), tiny), ceiling)
        slopes = np.maximum(cells[3:5] * up - cells[7:9] * down, 0.0) + _SLOPE_FLOOR  # the greatest rise and fall, / scale
        if params.acquisition_cost < tiny:  # N's rounding at v and at u, past J
            slopes += np.divide(2.0**-1071, np.minimum(cells[[-1, 0]], 1.0), out=np.zeros_like(slopes), where=cells[0] > junction)
        # The line from u stays above the threshold up to (h(u) - threshold) / (scale fall) past u, the
        # one from v as far short of v: where the two spans cover the cell, the cost stays above it.
        spans = ((np.fmin(cells[5:7], sys.float_info.max) - threshold) / slopes[::-1]).sum(axis=0)
        split = spans < math.expm1(params.interest_rate) / params.interest_rate * (cells[-1] - cells[0])
        return split, split

    def grow(parts):
        nonlocal least, best
        parts = parts.compress(np.nextafter(parts[0], math.inf) < parts[-1], axis=1)  # a double inside
        table = evaluate(_cuts(parts[0], parts[-1]).ravel())
        if table[5].min(initial=math.inf) < least:
            least, best = table[5].min(), table[0][table[5].argmin()]
        return parts, table

    _branch_and_bound(_pairs(bracket), judge, grow)
    return float(best), float(least)


def check_against_search(params: AssetParams, result) -> str | None:
    """Compare a closed-form classification against the brute-force search.

    Reads ``result.min_cost`` and ``result.minimizers``, and ``result.case``
    where the search finds a tied basin that holds no claimed point.  Returns
    None on agreement; a message starting "verification inconclusive:" when
    ``brute_force_minimize`` gives up and no cost it evaluated undercuts
    ``min_cost``, or when the claim is the one point of a C4_1 or C4_3 result
    and another basin ties it; otherwise a one-line description of the first
    discrepancy.  Minimizers are compared by value, all that a
    value-comparing search can certify: a claimed point agrees when it lies
    inside the reported plateau, or when its cost ties the search's least
    value within ``TIE_RTOL`` and it lies in the bracket of a tied basin.  A
    tied basin whose bracket holds no claimed point is an extra minimizer,
    but for such a C4_1 or C4_3 claim: near the tie threshold the two minima
    of those cases differ by less than ``TIE_RTOL``, so no value search can
    tell which is lower.  A claim without a case, and a C4_2 result claimed
    as one point, still reads as an extra minimizer.  Plateau ends agree
    within one resolution step (``_spacing``).  A plateau that reaches inf
    contains every claimed optimum past its start, and agrees with a claimed
    interval that ends in the scan's last cell.

    The case label is not otherwise checked: a value check cannot tell C1
    from C4_1, which both claim age 0, nor C4_3 from C5, which both claim
    the interior age, and it tests neither C4_1's interior local minimum nor
    C1's claim that the cost has none.
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
                if len(claimed.values) == 1 and getattr(getattr(result, "case", None), "value", None) in ("C4_1", "C4_3"):
                    return "verification inconclusive: two minima tie within the search's band"
                return f"search found an extra minimizer at {found!r}"
    return None
