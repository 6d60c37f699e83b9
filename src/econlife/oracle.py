"""Independent numerical ground truth for the closed forms.

Two derivative-free tools, deliberately ignorant of the classification
machinery: adaptive quadrature for the discounted-maintenance integral, and
a single grid scan plus batched zoom / quadratic-fit refinement that locates
the global minimizers of the ownership cost by value comparison alone.
Tests and the fleet ``--verify`` mode use these to cross-check the
closed-form path; nothing here is consulted by that path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost_model import MAX_RATE_AGE, AssetParams, property_cost
from .errors import NumericError

__all__ = [
    "MinimizationReport",
    "integrate_discounted_maintenance",
    "brute_force_minimize",
    "check_against_search",
]

#: Grid values within this relative band of the minimum count as tied.
TIE_RTOL = 1e-12
#: A run of at least this many tied grid points is reported as a plateau.
PLATEAU_MIN_POINTS = 3
_MAX_QUAD_DEPTH = 60
# Grid points per cost evaluation of the scan: the chunk's temporaries stay
# in a per-core cache, where a point costs about half what it does at 2^20.
_CHUNK = 1 << 16
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
    """Discounted upkeep accumulated to age t, by adaptive Simpson quadrature.

    Integrates maint_slope * s * e**(-rate*s) over [0, t] to an
    absolute-plus-relative tolerance ``tol``, bisecting intervals until the
    local fifth-order error estimate passes.  Independent of the closed-form
    antiderivative, which the tests compare against.
    """
    if t < 0.0:
        raise ValueError("integration age must be >= 0")
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    if t == 0.0:
        return 0.0
    a = params.maint_slope
    r = params.interest_rate

    def integrand(s: float) -> float:
        return a * s * math.exp(-r * s)

    lo, hi = 0.0, float(t)
    f_lo, f_mid, f_hi = integrand(lo), integrand(0.5 * (lo + hi)), integrand(hi)
    whole = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    budget = tol * max(1.0, abs(whole))
    return _adaptive_simpson(integrand, lo, hi, f_lo, f_mid, f_hi, whole, budget, _MAX_QUAD_DEPTH)


def _adaptive_simpson(f, lo, hi, f_lo, f_mid, f_hi, whole, tol, depth):
    mid = 0.5 * (lo + hi)
    left_mid = 0.5 * (lo + mid)
    right_mid = 0.5 * (mid + hi)
    f_lm = f(left_mid)
    f_rm = f(right_mid)
    left = (mid - lo) / 6.0 * (f_lo + 4.0 * f_lm + f_mid)
    right = (hi - mid) / 6.0 * (f_mid + 4.0 * f_rm + f_hi)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise NumericError(
            f"adaptive quadrature did not converge on [{lo!r}, {hi!r}] "
            f"after {_MAX_QUAD_DEPTH} bisection levels"
        )
    return _adaptive_simpson(
        f, lo, mid, f_lo, f_lm, f_mid, left, 0.5 * tol, depth - 1
    ) + _adaptive_simpson(f, mid, hi, f_mid, f_rm, f_hi, right, 0.5 * tol, depth - 1)


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
        values = property_cost(params, np.arange(lo, hi, dtype=float) * step)
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
            tied = property_cost(params, np.arange(lo, hi, dtype=float) * step) <= threshold
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
    call; ``best`` collects the least value seen per basin.
    """
    v, best = v.copy(), best.copy()
    d = np.full(len(v), float(span))
    fitting = np.arange(len(v))
    for _ in range(levels):
        if fitting.size == 0:
            break
        d[fitting] = np.minimum(d[fitting], v[fitting])  # keep v - d a valid age
        dk, vk = d[fitting], v[fitting]
        ages = np.concatenate([vk - dk, vk, vk + dk])
        f_lo, f_v, f_hi = property_cost(params, ages).reshape(3, -1)
        best[fitting] = np.minimum(np.minimum(best[fitting], f_v), np.minimum(f_lo, f_hi))
        curvature = (f_lo - f_v) + (f_hi - f_v)
        fits = (dk > 0.0) & (curvature > 64.0 * np.finfo(float).eps * np.abs(f_v))
        shift = 0.5 * dk[fits] * (f_lo - f_hi)[fits] / curvature[fits]
        fitting = fitting[fits]
        v[fitting] += np.clip(shift, -d[fitting], d[fitting])
        d[fitting] /= 8.0
    if fitting.size:
        best[fitting] = np.minimum(best[fitting], property_cost(params, v[fitting]))
    return v, best


def check_against_search(
    params: AssetParams,
    result,
    step: float = 1e-3,
    value_rtol: float = 1e-9,
    point_tol: float = 1e-6,
    plateau_tol: float = 1e-3,
) -> str | None:
    """Compare a closed-form classification against the brute-force scan.

    Returns None on agreement, otherwise a one-line description of the first
    discrepancy.  Point minimizers must match within ``point_tol`` (or fall
    inside a reported plateau: a minimum whose basin is flat to within the
    tie tolerance cannot be localized more tightly by value comparison).
    """
    t_max = max(2.0 * params.junction, 10.0)
    if result.interior_minimum_age is not None:
        t_max = max(t_max, 1.5 * result.interior_minimum_age)
    cap = 0.98 * MAX_RATE_AGE / params.interest_rate
    if cap < t_max:
        if cap < max(2.0 * params.junction, 10.0):
            return "scan horizon exceeds the overflow guard; not verifiable"
        t_max = cap
    report = brute_force_minimize(params, t_max, step)

    scale = max(abs(result.min_cost), 1e-300)
    if abs(report.min_value - result.min_cost) > value_rtol * scale:
        return (
            f"min cost mismatch: closed form {result.min_cost!r} vs "
            f"search {report.min_value!r}"
        )

    claimed = result.minimizers
    if claimed.kind == "interval":
        if report.plateau is None:
            return "closed form claims an interval of minimizers; search found none"
        lo, hi = claimed.values
        if abs(report.plateau[0] - lo) > plateau_tol or abs(report.plateau[1] - hi) > plateau_tol:
            return (
                f"plateau mismatch: closed form [{lo!r}, {hi!r}] vs "
                f"search [{report.plateau[0]!r}, {report.plateau[1]!r}]"
            )
        return None

    for point in claimed.values:
        in_plateau = report.plateau is not None and (
            report.plateau[0] - plateau_tol <= point <= report.plateau[1] + plateau_tol
        )
        near_point = any(abs(point - found) <= point_tol for found in report.argmin_points)
        if not (in_plateau or near_point):
            return (
                f"minimizer {point!r} not reproduced by search "
                f"(found {report.argmin_points!r}, plateau {report.plateau!r})"
            )
    if report.plateau is None:
        for found in report.argmin_points:
            if not any(abs(point - found) <= point_tol for point in claimed.values):
                return f"search found an extra minimizer at {found!r}"
    return None
