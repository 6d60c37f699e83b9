"""Independent numerical ground truth for the closed forms.

Two derivative-free tools, deliberately ignorant of the classification
machinery: Gauss-Legendre quadrature for the discounted-maintenance integral,
and a single grid scan plus batched zoom / quadratic-fit refinement that
locates the global minimizers of the ownership cost by value comparison alone.
Tests and the fleet ``--verify`` mode use these to cross-check the
closed-form path; nothing here is consulted by that path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost_model import AssetParams, property_cost
from .errors import NumericError

__all__ = [
    "MinimizationReport",
    "integrate_discounted_maintenance",
    "brute_force_minimize",
    "check_against_search",
]

#: Grid values within this relative band of the minimum count as tied.
TIE_RTOL = 1e-12
#: ``check_against_search`` tolerances: relative for the minimum cost,
#: absolute (in years) for a point minimizer and for a plateau's ends.
VALUE_RTOL = 1e-9
POINT_TOL = 1e-6
PLATEAU_TOL = 1e-3
#: A run of at least this many tied grid points is reported as a plateau.
PLATEAU_MIN_POINTS = 3
#: ``check_against_search`` scans to at most rate * age = 686.  This bounds the
#: grid, 686 / (rate * step) points; the cost itself is exact at every age.
SCAN_LIMIT = 686.0
# Quadrature panels: 20-node Gauss-Legendre, their count doubled at most
# _MAX_DOUBLINGS times.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_MAX_DOUBLINGS = 8
# Grid points per cost evaluation of the scan.  At this size each call's
# work arrays reuse memory the previous call freed: a 2^14-point call takes
# no page faults, a 2^16-point one several hundred, and faulting in fresh
# pages costs more than the arithmetic on them.
_CHUNK = 1 << 14
# Each zoom grid narrows a bracket 32-fold, down to this width.
_ZOOM_POINTS = 65
_ZOOM_WIDTH = 1e-10


@dataclass(frozen=True)
class MinimizationReport:
    """Outcome of a brute-force scan of the ownership cost.

    argmin_points holds the refined minimizer locations; plateau is the span
    of value-tied grid points when the minimum is flat at grid resolution.
    Every reported point attains min_value to within the tie tolerance.
    """

    argmin_points: tuple[float, ...]
    plateau: tuple[float, float] | None
    min_value: float
    grid_step: float
    refinements: int


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


def brute_force_minimize(params: AssetParams, t_max: float, step: float) -> MinimizationReport:
    """Locate all global minimizers of the ownership cost on [0, t_max].

    Scans the grid 0, step, ..., t_max once, refines all candidate basins
    (grid local minima and the left boundary) together, by repeated 65-point
    zooms of their brackets to width 1e-10 followed by shrinking quadratic
    fits, and keeps the basins whose refined values tie the best one within
    ``TIE_RTOL``.  Runs of >= 3 grid points value-tied with the minimum are
    reported as a plateau: there the cost is flat at rounding level and no
    value comparison can single out a point.  Uses only value comparisons of
    ``property_cost``.
    """
    if not step > 0.0:
        raise ValueError("step must be > 0")
    floor = max(2.0 * params.junction, 10.0)
    if t_max < floor:
        raise ValueError(f"scan horizon t_max must be >= {floor:g} for these parameters")
    n = int(math.floor(t_max / step + 1e-9))

    h_min, argmin_index, h_zero, basin_indices, chunks = _grid_scan(params, n, step, _CHUNK)
    threshold = h_min + TIE_RTOL * abs(h_min)
    runs = _tied_runs(params, step, chunks, threshold)

    plateau = None
    plateau_runs = [run for run in runs if run[1] - run[0] + 1 >= PLATEAU_MIN_POINTS]
    if plateau_runs:
        widest = max(plateau_runs, key=lambda run: run[1] - run[0])
        plateau = (widest[0] * step, widest[1] * step)

    indices = np.array(sorted(set(basin_indices) | {argmin_index}))
    locations, values = _zoom(
        params, np.maximum(indices - 1, 0) * step, np.minimum(indices + 1, n) * step
    )
    locations, values = _polish(params, locations, values, step)
    # The first two brackets reach down to age 0, whose cost the grid holds.
    at_zero = (indices <= 1) & (h_zero <= values)
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

    if not points:
        points.append(argmin_index * step)
    return MinimizationReport(
        argmin_points=tuple(points),
        plateau=plateau,
        min_value=best_value,
        grid_step=step,
        refinements=len(refined),
    )


# At most two genuine basins exist (the left boundary and the interior
# optimum); extra candidates only ever arise from rounding jitter in flat
# stretches, so a small fixed budget loses nothing.
_MAX_BASINS = 16


def _grid_ages(lo, hi, step):
    """Ages of the grid indices lo..hi-1, in one allocation."""
    ages = np.arange(lo, hi, dtype=float)
    ages *= step
    return ages


def _grid_scan(params, n, step, chunk):
    """One pass over the grid indices 0..n, ``chunk`` indices at a time.

    Returns the grid minimum, its index, the cost at age 0, the candidate
    basin indices (strict local minima, and each end where the cost does not
    rise towards it) and the (lo, hi, low, high) of each chunk: its index
    range [lo, hi) and its least and greatest value.
    """
    h_min = math.inf
    argmin_index = 0
    candidates: list[tuple[float, int]] = []
    chunks: list[tuple[int, int, float, float]] = []
    carry = np.empty(0)
    for lo in range(0, n + 1, chunk):
        hi = min(lo + chunk, n + 1)
        values = property_cost(params, _grid_ages(lo, hi, step))
        i = int(np.argmin(values))
        if values[i] < h_min:
            h_min = float(values[i])
            argmin_index = lo + i
        if lo == 0:
            h_zero = float(values[0])
            left_basin = len(values) < 2 or values[0] <= values[1]
        chunks.append((lo, hi, float(values[i]), float(values.max())))
        extended = np.concatenate([carry, values])
        interior = extended[1:-1]
        strict = np.flatnonzero((interior < extended[:-2]) & (interior < extended[2:]))
        for j in strict:
            index = lo - len(carry) + int(j) + 1
            candidates.append((float(extended[int(j) + 1]), index))
        candidates = sorted(candidates)[:_MAX_BASINS]
        carry = extended[-2:]
    basins = [index for _, index in candidates]
    if left_basin:
        basins.append(0)
    if n >= 1 and carry.size == 2 and carry[1] <= carry[0]:
        basins.append(n)
    return h_min, argmin_index, h_zero, basins, chunks


def _tied_runs(params, step, chunks, threshold):
    """Inclusive (start, end) index runs where the grid ties the minimum.

    Only a chunk whose value range straddles ``threshold`` is evaluated
    again: one wholly above it ends any open run, and one wholly at or below
    it extends the open run or starts one.
    """
    runs: list[tuple[int, int]] = []
    start = None
    for lo, hi, low, high in chunks:
        if low > threshold:
            flips = [] if start is None else [lo]
        elif high <= threshold:
            flips = [lo] if start is None else []
        else:
            tied = property_cost(params, _grid_ages(lo, hi, step)) <= threshold
            before = np.concatenate(([start is not None], tied[:-1]))
            flips = (lo + np.flatnonzero(tied != before)).tolist()
        # Flips alternate: each one starts a run or ends the open one.
        for flip in flips:
            if start is None:
                start = flip
            else:
                runs.append((start, flip - 1))
                start = None
    if start is not None:
        runs.append((start, chunks[-1][1] - 1))
    return runs


def _zoom(params, lo, hi):
    """Best grid point and value in each bracket [lo[k], hi[k]].

    Every level lays a ``_ZOOM_POINTS`` grid over each bracket, in one cost
    evaluation for all of them, and narrows the bracket to the two spacings
    around its best point, 1/32 of its width, until all are at most
    ``_ZOOM_WIDTH`` wide.
    """
    fractions = np.linspace(0.0, 1.0, _ZOOM_POINTS)
    rows = np.arange(len(lo))
    widest = max(float((hi - lo).max()), _ZOOM_WIDTH)
    levels = max(1, math.ceil(math.log(widest / _ZOOM_WIDTH, (_ZOOM_POINTS - 1) / 2)))
    for _ in range(levels):
        ages = lo[:, None] + (hi - lo)[:, None] * fractions
        values = property_cost(params, ages.ravel()).reshape(ages.shape)
        best = np.argmin(values, axis=1)
        lo = ages[rows, np.maximum(best - 1, 0)]
        hi = ages[rows, np.minimum(best + 1, _ZOOM_POINTS - 1)]
    return ages[rows, best], values[rows, best]


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


def check_against_search(
    params: AssetParams,
    result,
    step: float = 1e-3,
) -> str | None:
    """Compare a closed-form classification against the brute-force scan.

    Returns None on agreement, otherwise a one-line description of the first
    discrepancy.  Point minimizers must match within ``POINT_TOL`` (or fall
    inside a reported plateau: a minimum whose basin is flat to within the
    tie tolerance cannot be localized more tightly by value comparison).
    """
    t_max = max(2.0 * params.junction, 10.0)
    if result.interior_minimum_age is not None:
        t_max = max(t_max, 1.5 * result.interior_minimum_age)
    cap = SCAN_LIMIT / params.interest_rate
    if cap < t_max:
        if cap < max(2.0 * params.junction, 10.0):
            return f"scan horizon exceeds the scan limit rate*age = {SCAN_LIMIT:g}; not verifiable"
        t_max = cap
    report = brute_force_minimize(params, t_max, step)

    scale = max(abs(result.min_cost), 1e-300)
    if abs(report.min_value - result.min_cost) > VALUE_RTOL * scale:
        return (
            f"min cost mismatch: closed form {result.min_cost!r} vs "
            f"search {report.min_value!r}"
        )

    claimed = result.minimizers
    if claimed.kind == "interval":
        if report.plateau is None:
            return "closed form claims an interval of minimizers; search found none"
        lo, hi = claimed.values
        if abs(report.plateau[0] - lo) > PLATEAU_TOL or abs(report.plateau[1] - hi) > PLATEAU_TOL:
            return (
                f"plateau mismatch: closed form [{lo!r}, {hi!r}] vs "
                f"search [{report.plateau[0]!r}, {report.plateau[1]!r}]"
            )
        return None

    for point in claimed.values:
        in_plateau = report.plateau is not None and (
            report.plateau[0] - PLATEAU_TOL <= point <= report.plateau[1] + PLATEAU_TOL
        )
        near_point = any(abs(point - found) <= POINT_TOL for found in report.argmin_points)
        if not (in_plateau or near_point):
            return (
                f"minimizer {point!r} not reproduced by search "
                f"(found {report.argmin_points!r}, plateau {report.plateau!r})"
            )
    if report.plateau is None:
        for found in report.argmin_points:
            if not any(abs(point - found) <= POINT_TOL for point in claimed.values):
                return f"search found an extra minimizer at {found!r}"
    return None
