"""Independent numerical ground truth for the closed forms.

Two derivative-free tools, deliberately ignorant of the classification
machinery: Gauss-Legendre quadrature for the discounted-maintenance integral,
and a branch-and-bound grid scan plus batched zoom / quadratic-fit refinement
that locates the global minimizers of the ownership cost by value comparison
alone.  Tests and the fleet ``--verify`` mode use these to cross-check the
closed-form path; nothing here is consulted by that path.

The scan runs to infinity: its last cell, the tail [T, inf), carries at its
open end the limits D = 0 and I = a/r of the cost's pieces, so it is bounded
like every other cell and dropped, kept as a plateau open to infinity, or cut
at 2T, ..., 64T into finite cells and a new tail.  T is the flat age.  With
x = rate * age and p = x/(e^x - 1), the cost differs from its limit h(inf)
by scale p (c - a/r), where c <= b is the mean yearly loss of resale value,
so past the flat age, where scale p max(b, a/r) lies inside the tie band of
h(inf), the tail's bounds span at most two tie bands.  h(inf) joins the
least value, so both ends of a kept cell, the tail's too, cost at least that
value, and its unevaluated costs lie at most one tie band below it.  A check
gives one of three verdicts: None (agreement), a description of the
discrepancy, or, when the scan gives up, a message starting "verification
inconclusive:".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view as windows

from .cost_model import AssetParams, cost_of_pieces, cost_pieces, property_cost
from .errors import NumericError

__all__ = [
    "MinimizationReport",
    "integrate_discounted_maintenance",
    "brute_force_minimize",
    "check_against_search",
]

#: Grid values within this relative band of the minimum count as tied.
TIE_RTOL = 1e-12
#: ``check_against_search`` tolerances: relative for the minimum cost and for
#: a point minimizer's age, absolute (in years) for a plateau's ends.
VALUE_RTOL = 1e-9
POINT_RTOL = 1e-6
PLATEAU_TOL = 1e-3
#: A run of at least this many tied grid points is reported as a plateau.
PLATEAU_MIN_POINTS = 3
#: ``brute_force_minimize`` gives up, and ``check_against_search`` calls the
#: row inconclusive, when the scan would evaluate more grid points than this.
GRID_BUDGET = 1 << 18
#: The grid step of ``brute_force_minimize``, in years.
GRID_STEP = 1e-3
# Quadrature panels: 20-node Gauss-Legendre, their count doubled at most
# _MAX_DOUBLINGS times.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_MAX_DOUBLINGS = 8
# A scan cell wider than this many indices is split this many ways, and the
# tail [T, inf) is cut at 2T, ..., _SPLIT T.
_SPLIT = 64
# Grid indices are 64-bit: the scan gives up rather than cut the tail at
# _INDEX_LIMIT or past it.  _OPEN marks the tail's open end.
_INDEX_LIMIT = 1 << 62
_OPEN = (1 << 63) - 1
# Factors widening a scan cell's (lower, upper) cost bound for rounded pieces.
_BOUND_SLACK = 1.0 + np.array([-64.0, 64.0]) * np.finfo(float).eps
# Each zoom grid narrows a bracket 32-fold.
_ZOOM_POINTS = 65


@dataclass(frozen=True)
class MinimizationReport:
    """Outcome of a brute-force scan of the ownership cost.

    argmin_points holds the refined minimizer locations; plateau is the span
    of value-tied grid points when the minimum is flat at grid resolution,
    with an end of inf when the cost ties its minimum at every larger age.
    Every reported point attains min_value to within the tie tolerance.
    tail_start is the last age the scan evaluated: past it the scan bounds
    the cost as one tail cell and cannot tell its ages apart.
    """

    argmin_points: tuple[float, ...]
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
    """Locate all global minimizers of the ownership cost on [0, inf).

    Scans the ``GRID_STEP`` grid once, by branch and bound (``_scan``) with
    its first cut at the flat age or 10 years, refines all candidate basins
    (grid local minima and the ends) together, by repeated 65-point zooms of
    their brackets until their values tie followed by shrinking quadratic
    fits, and keeps the basins whose refined values tie the best one within
    ``TIE_RTOL``.  Runs of >= 3 grid points value-tied with the minimum, a
    kept tail's included, are reported as a plateau: there the cost is flat
    at rounding level and no value comparison can single out a point.  Uses
    only value comparisons of the cost.  Raises ``ScanGaveUp`` when the scan
    gives up.
    """
    step = GRID_STEP
    n = int(min(max(_flat_age(params), 10.0) / step + 1e-9, (_INDEX_LIMIT - 1) // _SPLIT))

    indices, values, h_min, tied_tail = _scan(params, n, step)
    argmin_index, h_zero = int(indices[np.argmin(values)]), float(values[0])
    runs = _tied_runs(indices, values <= h_min + TIE_RTOL * abs(h_min))
    if tied_tail:
        runs[-1] = (runs[-1][0], math.inf)
    start, end = max(runs, key=lambda run: run[1] - run[0])
    plateau = (start * step, end * step) if end - start + 1 >= PLATEAU_MIN_POINTS else None

    basins = np.array(sorted(set(_basins(indices, values)) | {argmin_index}))
    locations, values = _zoom(params, np.maximum(basins - 1, 0) * step, (basins + 1) * step)
    locations, values = _polish(params, locations, values, step)
    # The first two brackets reach down to age 0, whose cost the grid holds.
    at_zero = (basins <= 1) & (h_zero <= values)
    locations[at_zero] = 0.0
    values[at_zero] = h_zero
    refined = sorted(zip(locations.tolist(), values.tolist()))

    best_value = min(float(values.min()), h_min)
    tie_band = best_value + TIE_RTOL * abs(best_value)

    points: list[float] = []
    for location, value in refined:
        if value > tie_band:
            continue
        if plateau is not None and plateau[0] - step <= location <= plateau[1] + step:
            continue  # already represented by the plateau
        if points and abs(location - points[-1]) <= 2.0 * step:
            continue  # same basin reached from two candidate indices
        points.append(location)
    return MinimizationReport(
        argmin_points=tuple(points or [argmin_index * step]), plateau=plateau, min_value=best_value,
        refinements=len(refined), tail_start=float(indices[-1] * step),
    )


# At most two genuine basins exist (the left boundary and the interior
# optimum); extra candidates only ever arise from rounding jitter in flat
# stretches, so a small fixed budget loses nothing.
_MAX_BASINS = 16


def _scan(params, n, step):
    """The grid points that can tie the cost's minimum, by branch and bound.

    A cell [lo, hi] of grid indices carries the pieces D and I of
    ``cost_pieces`` at both ends, and the tail [s, inf), s >= n, their limits
    at its open end.  D never rises and I never falls, so each cost in a cell
    lies between the cost of D(hi) and I(lo) and that of D(lo) and I(hi).
    Each level drops the cells whose lower bound lies above the tie threshold
    of the least value so far (h(inf) included) and keeps those whose upper
    bound does not; in one cost evaluation it fills in the other cells of at
    most ``_SPLIT`` indices and splits the rest ``_SPLIT`` ways, the tail at
    2s, ..., ``_SPLIT`` s, until no cell is left to split.  Raises
    ``ScanGaveUp`` past ``GRID_BUDGET`` points or ``_INDEX_LIMIT``.  Returns
    the evaluated indices in increasing order, their costs, the least value
    and whether the tail, from the last index on, is kept.
    """
    steps = np.arange(_SPLIT + 1)
    d, i, h = cost_pieces(params, np.array([0.0, n * step, math.inf]))
    indices, values, h_min = [np.array([0, n])], [h[:2]], float(h.min())
    spans = np.array([[0, n], [n, _OPEN]])
    pieces = np.stack([d, i], axis=-1)[[[0, 1], [1, 2]]]  # [cell, end, (D, I)]
    while True:
        threshold = h_min + TIE_RTOL * abs(h_min)
        lower, upper = (cost_of_pieces(params, pieces[:, ::-1, 0], pieces[:, :, 1]) * _BOUND_SLACK).T
        keep = lower <= threshold
        split = keep & (upper > threshold)
        if not split.any():
            break
        kept_spans, kept_pieces = spans[keep & ~split], pieces[keep & ~split]
        spans, pieces = spans[split], pieces[split]

        widths = spans[:, 1] - spans[:, 0]
        small = widths <= _SPLIT
        gaps = widths[small] - 1
        inside = np.repeat(spans[small, 0] + 1 - (np.cumsum(gaps) - gaps), gaps) + np.arange(gaps.sum())
        wide = widths[~small, None]
        cuts = spans[~small, :1] + (wide // _SPLIT) * steps + (wide % _SPLIT) * steps // _SPLIT
        tail = cuts[:, -1] == _OPEN
        if tail.any():
            start = int(cuts[tail, 0][0])
            if start * _SPLIT >= _INDEX_LIMIT:
                raise ScanGaveUp("the scan needs more than 2^62 grid points", h_min)
            cuts[tail, :-1] = start * steps[1:]
        new = np.concatenate([inside, cuts[:, 1:-1].ravel()])
        if new.size + sum(map(len, indices)) > GRID_BUDGET:
            raise ScanGaveUp(f"the scan needs more than {GRID_BUDGET} cost evaluations", h_min)
        d, i, h = cost_pieces(params, new * step)
        indices.append(new)
        values.append(h)
        h_min = min(h_min, float(h.min(initial=math.inf)))

        cut_pieces = np.stack([d, i], axis=-1)[inside.size :].reshape(-1, _SPLIT - 1, 2)
        edges = np.concatenate([pieces[~small, :1], cut_pieces, pieces[~small, 1:]], axis=1)
        spans = np.concatenate([kept_spans, windows(cuts, 2, axis=1).reshape(-1, 2)])
        pieces = np.concatenate([kept_pieces, windows(edges, 2, axis=1).swapaxes(2, 3).reshape(-1, 2, 2)])
    indices, values = np.concatenate(indices), np.concatenate(values)
    order = np.argsort(indices)
    return indices[order], values[order], h_min, bool(keep[spans[:, 1] == _OPEN].any())


def _basins(indices, values):
    """The ``_MAX_BASINS`` least strict local minima of evaluated neighbours, and the ends."""
    adjacent = np.diff(indices) == 1
    falls, rises = values[1:] < values[:-1], values[1:] > values[:-1]
    strict = 1 + np.flatnonzero(adjacent[:-1] & adjacent[1:] & falls[:-1] & rises[1:])
    strict = strict[np.lexsort((indices[strict], values[strict]))[:_MAX_BASINS]]
    first = [] if (adjacent[:1] & falls[:1]).any() else [0]
    last = [] if (adjacent[-1:] & rises[-1:]).any() else [int(indices[-1])]
    return indices[strict].tolist() + first + last


def _tied_runs(indices, tied):
    """Inclusive (start, end) index runs of the grid points that tie.

    A point the scan skipped ties exactly when the two ends of its cell do:
    the bounds of a dropped cell put all its points above the threshold, and
    those of a kept cell put them all at or below it.
    """
    edges = np.flatnonzero(np.diff(np.concatenate(([0], tied, [0])).astype(np.int8)))
    return list(zip(indices[edges[::2]].tolist(), indices[edges[1::2] - 1].tolist()))


def _zoom(params, lo, hi):
    """Best grid point and value in each bracket [lo[k], hi[k]].

    Every level lays a ``_ZOOM_POINTS`` grid over each bracket still open,
    in one cost evaluation for all of them, and narrows it to the two
    spacings around its best point, 1/32 of its width.  A bracket closes once
    all its values tie its best within ``TIE_RTOL``: value comparison cannot
    narrow it further.  So the final width follows the cost's own scale: an
    optimum at 1e-150 y is reached, and a bracket rising from age 0 closes
    long before subnormal ages.  The level count would narrow the widest
    bracket below the least positive double, so every bracket closes.
    """
    fractions = np.linspace(0.0, 1.0, _ZOOM_POINTS)
    best_ages, best_values = np.empty(len(lo)), np.empty(len(lo))
    open_rows = np.arange(len(lo))
    widest = max(float((hi - lo).max()), math.ulp(0.0))
    narrowing = (_ZOOM_POINTS - 1) / 2
    levels = max(1, math.ceil((math.log(widest) - math.log(math.ulp(0.0))) / math.log(narrowing)))
    for _ in range(levels):
        ages = lo[open_rows, None] + (hi - lo)[open_rows, None] * fractions
        values = property_cost(params, ages.ravel()).reshape(ages.shape)
        rows = np.arange(len(open_rows))
        best = np.argmin(values, axis=1)
        least = values[rows, best]
        best_ages[open_rows], best_values[open_rows] = ages[rows, best], least
        lo[open_rows] = ages[rows, np.maximum(best - 1, 0)]
        hi[open_rows] = ages[rows, np.minimum(best + 1, _ZOOM_POINTS - 1)]
        open_rows = open_rows[values.max(axis=1) > least + TIE_RTOL * np.abs(least)]
        if not open_rows.size:
            break
    return best_ages, best_values


def _polish(params, v, best, span, levels=12):
    """Sharpen minimizer locations with shrinking three-point parabola fits.

    Comparison-based search cannot localize a smooth minimum better than the
    sqrt(eps)-wide band where values tie at rounding level; a parabola fitted
    at half-width d instead pins the vertex to ~(noise/curvature)/d, so
    marching d downward until the curvature signal drowns in rounding noise
    gains several orders of magnitude in location accuracy.  Each level
    evaluates v - d, v and v + d of every basin still being fitted in one
    call; ``best`` collects the least value seen per basin.  A vertex whose
    value exceeds the previous centre's beyond the tie tolerance (a fit
    spoilt by the kink at the junction or the steep rise towards age 0) is
    undone, and the next level fits again around the previous centre at the
    already reduced half-width.
    """
    v, best = v.copy(), best.copy()
    previous, centre = v.copy(), best.copy()  # last accepted centre and its value
    d = np.full(len(v), float(span))
    fitting = np.arange(len(v))

    def uphill(f_v):
        """Undo the basins whose new centre is uphill; record the others'."""
        up = f_v > centre[fitting] + TIE_RTOL * np.abs(centre[fitting])
        v[fitting[up]] = previous[fitting[up]]
        kept = fitting[~up]
        previous[kept], centre[kept] = v[kept], f_v[~up]
        return up

    for _ in range(levels):
        if fitting.size == 0:
            break
        d[fitting] = np.minimum(d[fitting], v[fitting])  # keep v - d a valid age
        dk, vk = d[fitting], v[fitting]
        ages = np.concatenate([vk - dk, vk, vk + dk])
        f_lo, f_v, f_hi = property_cost(params, ages).reshape(3, -1)
        best[fitting] = np.minimum(np.minimum(best[fitting], f_v), np.minimum(f_lo, f_hi))
        up = uphill(f_v)
        curvature = (f_lo - f_v) + (f_hi - f_v)
        fits = ~up & (dk > 0.0) & (curvature > 64.0 * np.finfo(float).eps * np.abs(f_v))
        shift = 0.5 * dk[fits] * (f_lo - f_hi)[fits] / curvature[fits]
        moved = fitting[fits]
        v[moved] += np.clip(shift, -d[moved], d[moved])
        d[moved] /= 8.0
        fitting = fitting[fits | up]
    if fitting.size:
        f_v = property_cost(params, v[fitting])
        best[fitting] = np.minimum(best[fitting], f_v)
        uphill(f_v)
    return v, best


def _flat_age(params: AssetParams) -> float:
    """The age past which the cost ties its limit h(inf).

    Past the flat age t = x/r, scale p(x) max(b, a/r) <= TIE_RTOL h(inf), so
    the cost ties its limit.  p(x) = x/(e^x - 1) = eps is solved by the
    iteration x <- lam + log(x/(1 - e^-x)), lam = log(1/eps): its slope lies
    in (0, 1/2), and the root in (lam, 2 lam), so from 2 lam it falls to the
    root without passing it.  The age is 0 where the bound holds at every
    age, and inf where it cannot be formed.
    """
    r = params.interest_rate
    bound = math.expm1(r) / r * max(float(params.depreciation_rate), float(params.maint_slope) / r)
    eps = TIE_RTOL * float(property_cost(params, math.inf)) / bound
    if not eps > 0.0:
        return math.inf
    if eps >= 1.0:
        return 0.0
    lam = -math.log(eps)
    x = 2.0 * lam
    for _ in range(64):
        below = lam + math.log(x / -math.expm1(-x))
        if not below < x:
            break
        x = below
    return x / r


def check_against_search(params: AssetParams, result) -> str | None:
    """Compare a closed-form classification against the brute-force scan.

    Reads only ``result.min_cost`` and ``result.minimizers``.  Returns None on
    agreement; a message starting "verification inconclusive:" when
    ``brute_force_minimize`` gives up and no cost it evaluated undercuts
    ``min_cost``; otherwise a one-line description of the first discrepancy.
    Point minimizers must match within ``POINT_RTOL`` of their age, or fall
    inside a reported plateau: a minimum whose basin is flat to within the
    tie tolerance cannot be localized more tightly by value comparison.  A
    plateau that reaches inf contains every claimed optimum past its start,
    and agrees with a claimed interval that ends in the scan's tail.
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
        # past tail_start the scan cannot tell a kept tail's ages apart
        in_tail = plateau[1] == math.inf and hi >= report.tail_start - PLATEAU_TOL
        if abs(plateau[0] - lo) > PLATEAU_TOL or not (in_tail or abs(plateau[1] - hi) <= PLATEAU_TOL):
            return (
                f"plateau mismatch: closed form [{lo!r}, {hi!r}] vs "
                f"search [{plateau[0]!r}, {plateau[1]!r}]"
            )
        return None

    def near(u: float, v: float) -> bool:
        return abs(u - v) <= POINT_RTOL * max(u, v)

    for point in claimed.values:
        in_plateau = plateau is not None and (
            plateau[0] - PLATEAU_TOL <= point <= plateau[1] + PLATEAU_TOL
        )
        if not (in_plateau or any(near(point, found) for found in report.argmin_points)):
            return (
                f"minimizer {point!r} not reproduced by search "
                f"(found {report.argmin_points!r}, plateau {plateau!r})"
            )
    if plateau is None:
        for found in report.argmin_points:
            if not any(near(point, found) for point in claimed.values):
                return f"search found an extra minimizer at {found!r}"
    return None
