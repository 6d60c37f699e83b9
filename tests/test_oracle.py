import dataclasses
import functools
import math
import sys
from decimal import Decimal
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    INSTANCE_C1,
    INSTANCE_C4_1,
    INSTANCE_C4_3,
    INSTANCE_C5,
    INSTANCE_FLAT,
    _gauss_legendre,
    draw_params,
    draw_wide_params,
    integrate_discounted_maintenance,
    reference_cost,
)
from econlife import (
    AssetParams,
    MinimizerSet,
    acquisition_threshold,
    brute_force_minimize,
    check_against_search,
    cost_model,
    economic_life,
    interior_minimum_age,
    maintenance_cost,
    oracle,
    property_cost,
)
from econlife.cost_model import cost_and_slope_pieces


def discounted_maintenance_antiderivative(params, t):
    # integral of a s e^(-r s): a (1 - e^(-r t)(1 + r t)) / r^2
    #                         = a e^(-r t) (e^(r t) - 1 - r t) / r^2
    r = params.interest_rate
    x = r * t
    return params.maint_slope * math.exp(-x) * (math.expm1(x) - x) / (r * r)


def test_integral_at_zero():
    assert integrate_discounted_maintenance(INSTANCE_C1, 0.0) == 0.0


def test_integral_matches_antiderivative(rng):
    for _ in range(40):
        p = draw_params(rng)
        t = float(rng.uniform(0.01, min(50.0, 600.0 / p.interest_rate)))
        value = integrate_discounted_maintenance(p, t)
        exact = discounted_maintenance_antiderivative(p, t)
        assert value == pytest.approx(exact, rel=1e-9, abs=1e-11)


def test_integral_undiscounted_limit():
    # At small r*t the integral approaches slope * t^2 / 2.
    p = AssetParams(100.0, 3.0, 20.0, 0.01)
    t = 0.05
    value = integrate_discounted_maintenance(p, t)
    assert value == pytest.approx(p.maint_slope * t * t / 2.0, rel=1e-3)


def test_integral_reaches_its_limit_at_huge_ages():
    # The integral tends to slope / rate^2; past rate * s = 750 the integrand
    # underflows, so no age can leave the quadrature without panels.
    p = INSTANCE_C1
    limit = p.maint_slope / p.interest_rate**2
    for t in (1e4, 1e300, math.inf):
        assert integrate_discounted_maintenance(p, t) == pytest.approx(limit, rel=1e-12)


@pytest.mark.parametrize("params, t", [(AssetParams(1.0, 1e300, 1.0, 1e-300), 1e300),
                                       (AssetParams(1.0, 1e308, 1.0, 1e-10), 1e10)])
def test_an_integral_past_the_float_range_is_inf(params, t):
    # The estimates are inf, so no two of them can agree within a relative band.
    assert integrate_discounted_maintenance(params, t) == math.inf


def test_an_integral_whose_integrand_passes_the_float_range_in_part_is_finite():
    # a s passes the float range from s = 180 on, where e^(-r s) is still
    # normal, and e^(-r s) underflows to 0 past s = 745: formed as
    # (a s) e^(-r s), the integrand was inf, then inf 0 = NaN.
    p, t = AssetParams(1.0, 1e306, 1.0, 1.0), 1e3
    integral = integrate_discounted_maintenance(p, t)
    assert math.isfinite(integral)
    r = p.interest_rate
    # e^(r t) / (e^(r t) - 1) = -1 / expm1(-r t), which stays in range
    assert maintenance_cost(p, t) == pytest.approx(math.expm1(r) * integral / -math.expm1(-r * t), rel=1e-8)


def test_integral_validation():
    for t in (-1.0, math.nan):
        with pytest.raises(ValueError, match="integration age must be >= 0"):
            integrate_discounted_maintenance(INSTANCE_C1, t)


def test_closed_form_maintenance_equals_quadrature_route(rng):
    for _ in range(30):
        p = draw_params(rng)
        t = float(rng.uniform(0.01, min(50.0, 600.0 / p.interest_rate)))
        r = p.interest_rate
        integral = integrate_discounted_maintenance(p, t)
        via_quadrature = math.expm1(r) * math.exp(r * t) * integral / math.expm1(r * t)
        assert maintenance_cost(p, t) == pytest.approx(via_quadrature, rel=1e-8)


def test_scan_finds_boundary_minimum():
    report = brute_force_minimize(INSTANCE_C1)
    assert report.argmin_points == (0.0,)
    assert report.plateau is None
    assert report.min_value == pytest.approx(property_cost(INSTANCE_C1, 0.0), rel=1e-12)


@pytest.mark.parametrize("params", [INSTANCE_C4_3, INSTANCE_C5])
def test_scan_finds_interior_minimum(params):
    report = brute_force_minimize(params)
    assert report.plateau is None
    assert len(report.argmin_points) == 1
    expected = interior_minimum_age(params)
    assert abs(report.argmin_points[0] - expected) <= 1e-6
    assert report.refinements >= 1


def test_scan_reports_plateau_when_minimum_is_flat():
    # slope == depreciation * rate with a large cost ratio: the flat initial
    # segment, the shallow dip, and the tail all tie within rounding, so the
    # search can only report a plateau; the closed-form optimum must lie in it.
    p = AssetParams(100.0, 1.6, 2.0, 0.8)
    result = economic_life(p)
    report = brute_force_minimize(p)
    assert report.plateau is not None
    lo, hi = report.plateau
    assert lo <= 1e-3 and hi >= p.junction
    assert lo <= result.interior_minimum_age <= hi
    assert report.min_value == pytest.approx(result.min_cost, rel=1e-9)


def test_scan_flat_segment_with_sharp_dip_prefers_interior_optimum():
    # Same knife-edge slope but a small cost ratio: the dip beyond the
    # junction is deep, so the initial flat segment is only a local plateau
    # and the global minimum is the isolated interior point.
    p = INSTANCE_FLAT
    result = economic_life(p)
    report = brute_force_minimize(p)
    assert report.plateau is None
    assert len(report.argmin_points) == 1
    assert abs(report.argmin_points[0] - result.interior_minimum_age) <= 1e-6


def test_refined_value_not_above_grid():
    params = INSTANCE_C4_3
    report = brute_force_minimize(params)
    ages = np.arange(10_001, dtype=float) * oracle.GRID_STEP  # to 10 y
    assert report.min_value <= property_cost(params, ages).min()


def test_scan_is_deterministic():
    first = brute_force_minimize(INSTANCE_C5)
    second = brute_force_minimize(INSTANCE_C5)
    assert first == second


def test_check_against_search_agrees_on_examples():
    for params in (INSTANCE_C1, INSTANCE_C4_3, INSTANCE_C5, INSTANCE_FLAT):
        assert check_against_search(params, economic_life(params)) is None


def test_scan_resolves_exact_tie_as_two_points():
    from econlife import acquisition_threshold

    base = AssetParams(100.0, 5.0, 20.0, 0.1)
    tie = AssetParams(acquisition_threshold(base), 5.0, 20.0, 0.1)
    result = economic_life(tie)
    assert result.minimizers.kind == "two_points"
    report = brute_force_minimize(tie)
    assert report.plateau is None
    assert len(report.argmin_points) == 2
    assert report.argmin_points[0] == pytest.approx(0.0, abs=1e-9)
    assert report.argmin_points[1] == pytest.approx(result.minimizers.values[1], abs=1e-6)
    assert check_against_search(tie, result) is None


def test_check_against_search_flags_tampered_results():
    params = INSTANCE_C4_3
    result = economic_life(params)
    wrong_cost = dataclasses.replace(result, min_cost=result.min_cost * 1.001)
    assert "min cost mismatch" in check_against_search(params, wrong_cost)
    wrong_spot = dataclasses.replace(
        result, minimizers=type(result.minimizers).point(result.interior_minimum_age + 0.5)
    )
    assert "not reproduced" in check_against_search(params, wrong_spot)
    # The band stays relative at a min_cost of 3.4e-305.
    tiny = AssetParams(1e-305, 1.0, 1e-305, 1.0)
    result = economic_life(tiny)
    assert check_against_search(tiny, result) is None
    too_high = dataclasses.replace(result, min_cost=result.min_cost * (1.0 + 1e-10))
    assert "min cost mismatch" in check_against_search(tiny, too_high)


def test_a_cost_past_the_float_range_is_searched_without_a_warning():
    # The suite turns a RuntimeWarning into an error; past age 0 the cost is inf.
    params = AssetParams(1e308, 1e308, 1e300, 1.0)
    report = brute_force_minimize(params)
    assert (report.argmin_points, report.min_value) == ((0.0,), property_cost(params, 0.0))
    assert check_against_search(params, economic_life(params)) is None


@pytest.mark.parametrize("shift, verdict", [(1e-7, None), (1e-5, "not reproduced")])
def test_a_moved_claim_agrees_while_its_cost_ties(shift, verdict):
    # Minimizers are compared by value: moved by a relative 1e-7, the claim's
    # cost ties the least value within 1e-14 and agrees; moved by 1e-5, its
    # cost lies 4e-11 above it and is rejected, though both lie in the bracket.
    result = economic_life(INSTANCE_C4_3)
    (age,) = result.minimizers.values
    moved = dataclasses.replace(result, minimizers=type(result.minimizers).point(age * (1.0 + shift)))
    found = check_against_search(INSTANCE_C4_3, moved)
    assert found is None if verdict is None else verdict in found


@pytest.mark.parametrize("kept", [0, 1])
def test_a_tie_claimed_as_one_point_misses_an_extra_minimizer(kept):
    # Age 0 and the interior optimum tie exactly; a claim of either alone
    # leaves the other's tied basin without a claimed point.
    result = economic_life(EXACT_TIE)
    one = dataclasses.replace(result, minimizers=type(result.minimizers).point(result.minimizers.values[kept]))
    assert check_against_search(EXACT_TIE, one).startswith("search found an extra minimizer at ")


# Exact ties two and 1.5 resolution steps apart: A = acquisition_threshold at
# a = r = 1 and b = -expm1(-u), so C4_2 at ages 0 and u, with u = 2e-3 and
# 1.5e-3.  Their brackets touch at one evaluated age, 1e-3 y.
CLOSE_TIES = [
    (AssetParams(1.9986673330667555e-06, 1.0, 0.001998001332666933, 1.0), 0.002),
    (AssetParams(1.1244377108742348e-06, 1.0, 0.0014988755622891258, 1.0), 0.0015),
]


@pytest.mark.parametrize("params, age", CLOSE_TIES)
def test_ties_whose_brackets_touch_are_reported_apart(params, age):
    result = economic_life(params)
    assert result.case.value == "C4_2" and result.minimizers.values == (0.0, age)
    report = brute_force_minimize(params)
    assert report.plateau is None
    (lo, mid), (touch, hi) = report.brackets
    assert lo == 0.0 and mid == touch == 0.001 and hi - touch <= 2.0 * oracle._spacing(touch)
    assert report.argmin_points == pytest.approx([0.0, age], abs=1e-9)
    assert check_against_search(params, result) is None
    for kept in (0.0, age):
        one = dataclasses.replace(result, minimizers=MinimizerSet.point(kept))
        assert check_against_search(params, one).startswith("search found an extra minimizer at ")


def test_a_claim_in_the_right_bracket_whose_cost_does_not_tie_is_rejected():
    # The optimum lies at 8.7e-8 y, past a full-depreciation age of 1.8e-10 y,
    # inside the first grid bracket [0, 1e-3 y], where the cost at age 0 is
    # 250 times higher.  A claim at 1.18e-7 y, 36% off, lies in that bracket
    # too, but its cost exceeds the least value by 4.7%: no tie.
    p = AssetParams(6556.142437440896, 1.737249962132903e18, 36409508719914.875, 0.21780982627826878)
    result = economic_life(p)
    report = brute_force_minimize(p)
    assert report.argmin_points == pytest.approx([result.interior_minimum_age], rel=1e-9)
    assert report.min_value == pytest.approx(result.min_cost, rel=1e-12)
    assert check_against_search(p, result) is None
    doctored = dataclasses.replace(result, minimizers=type(result.minimizers).point(1.178e-7))
    assert "not reproduced" in check_against_search(p, doctored)


def test_search_verifies_wide_ratio_assets():
    # Cost ratios down to 1e-20 and full-depreciation ages down to 1e-12 y put
    # sharp optima within a grid step of age 0, where the cost at age 0 lies
    # far above the optimum's; all of them verify.
    rng = np.random.default_rng(20261019)
    for _ in range(100):
        p = draw_wide_params(rng)
        assert check_against_search(p, economic_life(p)) is None, p


def test_check_against_search_agrees_past_the_horizon():
    for p in (
        # The optimum lies at 1,000,001 y, past the full-depreciation age of
        # 1e6 y.  From about 17 y on the cost ties its limit h(inf), so the
        # scan keeps the cells from there to inf as a plateau open to infinity.
        AssetParams(1e6, 1.0, 1.0, 1.0),
        # Optima at 3.4e6 y, 1.2e6 y and 5.1e81 y, where the capital and
        # maintenance pieces cancel across a long flat stretch: a grid of
        # 1e-3 y steps passed its point budget before it settled them.
        AssetParams(467868.52795063704, 1.6002674224095768e-06, 1977.6761513093934, 1.1398598269590886e-05),
        AssetParams(237417.32267545362, 2.2930989474818324e-06, 859811.547558511, 1.1041577490332767e-05),
        AssetParams(1.4504029835243377e+30, 8.614985459036953e-58, 5520073410997.727, 3.0231032535690386e-06),
    ):
        assert check_against_search(p, economic_life(p)) is None, p


def test_check_against_search_settles_a_long_flat_stretch_quickly():
    # The optimum lies at 1.01e7 y and the cost ties its limit from about
    # 2.7e6 y on.  Across that flat stretch the cost's two pieces cancel, so
    # their bounds settle few cells of width 1e-3 y, and a scan of such cells
    # passed its point budget; cells a 10,000th of their age wide settle it
    # in a few milliseconds.
    p = AssetParams(1.0, 1e-12, 1.0, 1e-5)
    start = time.perf_counter()
    verdict = check_against_search(p, economic_life(p))
    assert time.perf_counter() - start < 1.0
    assert verdict is None


def test_check_against_search_work_is_bounded_past_the_horizon(monkeypatch):
    # Optima past rate * age = 686: a scan of 1e-3 y cells out to 686 / rate
    # would exceed the bound several times over; the scan whose cells widen
    # with age past 10 y stays within it.
    rng = np.random.default_rng(1)
    far = [AssetParams(1e6, 1.0, 1.0, 1.0)]
    while len(far) < 4:
        p = draw_params(rng)
        if economic_life(p).minimizers.values[-1] * p.interest_rate > 686.0:
            far.append(p)
    counted = [0]  # ages at which the oracle evaluates the cost or its pieces

    def counting(evaluate):
        def wrapper(params, t):
            counted[0] += np.size(t)
            return evaluate(params, t)
        return wrapper

    monkeypatch.setattr(oracle, "cost_and_slope_pieces", counting(cost_and_slope_pieces))
    for p in far:
        counted[0] = 0
        assert check_against_search(p, economic_life(p)) is None, p
        assert counted[0] <= 100.0 / (p.interest_rate * 1e-3) + 2**17, p


# Interior optimum at rate * age ~ 1e4, far out where the grid spacing grows with age:
# beyond rate * age ~ 33 the cost is flat to within the tie tolerance, so the
# whole tail of the grid ties its minimum.
FAR_TIED_TAIL = AssetParams(1e4, 1.0, 1e3, 1.0)


EXACT_TIE = AssetParams(acquisition_threshold(INSTANCE_C4_1), 5.0, 20.0, 0.1)


def resolution_grid(end):
    """Ages a resolution step apart from 0 to past ``end``: ``GRID_STEP`` apart
    up to 10 y, then each 1 + 1e-4 times the one before."""
    geometric = np.arange(math.ceil(math.log(max(end, 10.0) / 10.0) / math.log1p(1e-4)) + 1)
    return np.concatenate((np.arange(10_000) * oracle.GRID_STEP, 10.0 * np.exp(geometric * math.log1p(1e-4))))


@pytest.mark.parametrize(
    "params, tied_tail",
    [
        (INSTANCE_C1, False),
        (INSTANCE_C4_3, False),
        (AssetParams(100.0, 1.6, 2.0, 0.8), True),
        (EXACT_TIE, False),
        (FAR_TIED_TAIL, True),
        (INSTANCE_C5, False),
    ],
    ids=["C1", "C4_3", "plateau", "exact_tie", "far_tied_tail", "C5_in_the_tail"],
)
def test_scan_is_split_invariant(monkeypatch, params, tied_tail):
    # Between them these rows hold cells wholly above the tie threshold,
    # wholly at or below it (the plateau and the tied tail) and across it,
    # the three cases the scan settles differently; C5's optimum at 18.4 y
    # lies past 10 y, where the resolution grows with age.  However finely
    # the search splits its cells, it finds a least value at or below the
    # tie threshold of the costs a resolution step apart from 0 to inf, ties
    # the tail exactly where those costs do, reports the same plateau and
    # points within a resolution step, and evaluates no age twice.  From
    # rate * age = _HOLD on every cost is h(inf) to the last bit, so the ages
    # up to there stand for all the later ones.
    values = property_cost(params, resolution_grid(cost_model._HOLD / params.interest_rate))
    assert values[-1] == property_cost(params, math.inf)
    h_min = values.min()
    threshold = h_min + oracle.TIE_RTOL * abs(h_min)
    assert (values[-1] <= threshold) == tied_tail
    evaluated, reports = [], []

    def recording(p, ages):
        evaluated.append(np.array(ages))
        return cost_and_slope_pieces(p, ages)

    monkeypatch.setattr(oracle, "cost_and_slope_pieces", recording)
    for split in (2, 7, oracle._SPLIT):
        monkeypatch.setattr(oracle, "_SPLIT", split)
        evaluated.clear()
        reports.append(brute_force_minimize(params))
        ages = np.concatenate(evaluated)
        assert np.unique(ages).size == ages.size
        assert reports[-1].min_value <= threshold
        assert (reports[-1].plateau is not None and reports[-1].plateau[1] == math.inf) == tied_tail
    last = reports[-1]
    for report in reports:
        assert report.min_value == pytest.approx(last.min_value, rel=2.0 * oracle.ZOOM_RTOL, abs=0.0)
        assert (report.plateau is None) == (last.plateau is None)
        if last.plateau is None:
            steps = np.abs(np.subtract(report.argmin_points, last.argmin_points)) / oracle._spacing(np.array(last.argmin_points))
            assert np.all(steps <= 1.0)
        else:  # any tied point may stand for a plateau that holds every refined basin
            assert all(end == other or abs(end - other) <= oracle._spacing(other) for end, other in zip(report.plateau, last.plateau))
            assert last.plateau[0] <= report.argmin_points[0] <= last.plateau[1]


@pytest.mark.parametrize("params", [INSTANCE_C1, INSTANCE_C5, EXACT_TIE, FAR_TIED_TAIL])
def test_the_scan_finishes_on_a_budget_of_exactly_its_points(monkeypatch, params):
    # GRID_BUDGET bounds the ages of all the search's cost evaluations
    # together, its scan's and its refinements': a budget of exactly that
    # many lets it finish, one fewer stops it before the evaluation that
    # would pass the budget.
    sizes = []

    def counting(p, ages):
        sizes.append(np.size(ages))
        return cost_and_slope_pieces(p, ages)

    monkeypatch.setattr(oracle, "cost_and_slope_pieces", counting)
    report = brute_force_minimize(params)
    calls = sizes.copy()
    assert len(calls) > 2
    monkeypatch.setattr(oracle, "GRID_BUDGET", sum(calls))
    sizes.clear()
    assert brute_force_minimize(params) == report and sizes == calls
    monkeypatch.setattr(oracle, "GRID_BUDGET", sum(calls) - 1)
    sizes.clear()
    with pytest.raises(oracle.ScanGaveUp, match=f"^the scan needs more than {sum(calls) - 1} cost evaluations$"):
        brute_force_minimize(params)
    assert sizes == calls[:-1]


def table(params, ages):
    """The search's table of ``ages``: the ages, then the pieces D, I, P and
    N and the costs h there, from ``cost_and_slope_pieces``."""
    return (ages, *cost_and_slope_pieces(params, ages))


def recording_refinements(monkeypatch):
    """The (bracket, ceiling, result) of every bracket the search refines, as
    it refines them: bracket is the ``table`` of the scan's ages that the
    refinement starts from, and result is None until the refinement
    returns."""
    refine, refined = oracle._refine, []

    def recording(params, bracket, ceiling, evaluate):
        refined.append((bracket.copy(), ceiling, None))
        refined[-1] = refined[-1][:2] + (refine(params, bracket, ceiling, evaluate),)
        return refined[-1][2]

    monkeypatch.setattr(oracle, "_refine", recording)
    return refine, refined


def refine_alone(refine, params, bracket, ceiling):
    """``refine`` of one bracket, outside a search."""
    with np.errstate(over="ignore"):  # as in the search, a span past the float range is inf
        return refine(params, bracket.copy(), ceiling, functools.partial(table, params))


def test_the_refinement_refines_each_bracket_as_if_it_were_alone(monkeypatch):
    # Each of two tied basins is refined by its own values only, bit for
    # bit as if it were the only bracket, and the report holds each one's
    # least point and value.
    refine, refined = recording_refinements(monkeypatch)
    for params in (EXACT_TIE, CLOSE_TIES[0][0], CLOSE_TIES[1][0]):
        refined.clear()
        report = brute_force_minimize(params)
        assert len(refined) == report.refinements == len(report.argmin_points) == 2
        for (bracket, ceiling, together), point in zip(refined, report.argmin_points):
            alone = refine_alone(refine, params, bracket, ceiling)
            assert np.array([alone]).tobytes() == np.array([together]).tobytes()
            assert together[0] == point
        assert report.min_value == min(value for _, _, (_, value) in refined)


# Rows with a candidate bracket that cannot tie: age 0, whose evaluated
# neighbour does not fall below it, 8% above the interior optimum, and an
# interior local minimum of the scan 2% above the global one.
CANNOT_TIE = [
    AssetParams(0.5519844334705131, 135192.20457280896, 417.42873173390933, 0.026181244508153345),
    AssetParams(0.00026552776730340885, 8.932485043194657, 0.06756032161172705, 0.03807376278257659),
]


def test_the_refinement_refines_every_candidate_bracket(monkeypatch):
    # The candidate brackets lie around each strict local minimum of the
    # scan's values and its argmin, and from age 0 where its evaluated
    # neighbour does not fall below it: one bracket for each of them and no
    # other, each the scan's own table from the age before the basin to the
    # one after (age inf opens none).  Two evaluated ages are neighbours
    # where the scan filled in a cell that holds both, a resolution step
    # apart; every gap it did not fill in is more than twice that wide, and a
    # filled step is off by a few ulp at most.  None of these rows fills in
    # its last cell, next to age inf, so no finite age neighbours age inf.
    # The search refines each bracket under the scan's tie threshold, and
    # refinements counts them.  One that cannot tie closes without a split,
    # so its only evaluation is the full-depreciation age and the double
    # after it where it spans that age; it stays above the report's tie band
    # even when refined with no ceiling, and is not reported.
    refine, refined = recording_refinements(monkeypatch)
    evaluations = []  # the index of the bracket being refined (-1 in the scan) and the table

    def recording(params, ages):
        pieces = cost_and_slope_pieces(params, ages)
        evaluations.append((len(refined) - 1, np.array((ages, *pieces))))
        return pieces

    monkeypatch.setattr(oracle, "cost_and_slope_pieces", recording)
    rng = np.random.default_rng(20261019)
    instances = [INSTANCE_C1, INSTANCE_C4_1, INSTANCE_C4_3, INSTANCE_C5, INSTANCE_FLAT, EXACT_TIE,
                 FAR_TIED_TAIL, AssetParams(100.0, 1.6, 2.0, 0.8), AssetParams(1e6, 1.0, 1.0, 1.0)]
    cannot_tie = 0
    for p in CANNOT_TIE + instances + [draw_params(rng) for _ in range(200)]:
        refined.clear()
        evaluations.clear()
        report = brute_force_minimize(p)
        scan = np.concatenate([columns for k, columns in evaluations if k < 0], axis=1)
        scan = scan[:, scan[0].argsort()]
        ages, h, last = scan[0], scan[-1], scan.shape[1] - 1
        assert ages[last] == math.inf and ages[last - 1] < sys.float_info.max / 2
        adjacent = np.diff(ages) <= 1.001 * oracle._spacing(ages[:-1])
        falls, rises = h[1:] < h[:-1], h[1:] > h[:-1]
        strict = (adjacent[:-1] & adjacent[1:] & falls[:-1] & rises[1:]).nonzero()[0] + 1
        age_0 = [0] if adjacent[0] and not falls[0] else []
        candidates = sorted({*strict.tolist(), int(h.argmin()), *age_0} - {last})
        expected = [scan[:, max(b - 1, 0) : min(b + 1, last - 1) + 1] for b in candidates]
        assert [bracket.tobytes() for bracket, _, _ in refined] == [bracket.tobytes() for bracket in expected], p
        least = h.min()
        assert report.refinements == len(refined)
        assert all(ceiling == least + oracle.TIE_RTOL * abs(least) for _, ceiling, _ in refined)
        tie_band = report.min_value + oracle.TIE_RTOL * abs(report.min_value)
        for k, (bracket, _, (_, value)) in enumerate(refined):
            if value <= tie_band:
                continue
            cannot_tie += 1
            ages = bracket[0]
            spans_junction = ages[0] <= p.junction < ages[-1]
            assert [index for index, _ in evaluations].count(k) == spans_junction, (p, ages)
            assert refine_alone(refine, p, bracket, math.inf)[1] > tie_band, (p, ages)
            assert (ages[0], ages[-1]) not in report.brackets
    assert cannot_tie >= len(CANNOT_TIE)


def test_age_0_is_a_candidate_only_where_its_evaluated_neighbour_does_not_fall(monkeypatch):
    # INSTANCE_C5's cost falls from age 0 to its optimum at 18.4 y, far
    # below: the scan drops the first cell, so it never evaluates age 0's
    # neighbour a resolution step on, and age 0 opens no bracket.
    # INSTANCE_C1's cost rises from age 0, its minimum, and the scan fills
    # the first cell in.
    evaluated = []

    def recording(params, ages):
        evaluated.append(np.array(ages))
        return cost_and_slope_pieces(params, ages)

    monkeypatch.setattr(oracle, "cost_and_slope_pieces", recording)
    for params, candidate in ((INSTANCE_C5, False), (INSTANCE_C1, True)):
        evaluated.clear()
        report = brute_force_minimize(params)
        ages = np.sort(np.concatenate(evaluated))
        assert (ages[1] == oracle.GRID_STEP) == candidate
        assert (report.brackets[0][0] == 0.0) == candidate


@pytest.mark.parametrize(
    "params",
    [
        AssetParams(46061.89279505064, 6.362473928320528e222, 5.733705842664479e-84, 2.852463935143124e-121),
        AssetParams(9.143131686032684e-127, 4.672754509709907e295, 3.3240379526453126e-164, 1.3612843309704562e-286),
    ],
)
def test_search_where_the_maintenance_cost_overflows(params):
    # a q/r lies past the double range at large ages, so the maintenance
    # piece and h(inf) are inf; the search takes that without a warning.
    assert property_cost(params, math.inf) == math.inf
    assert check_against_search(params, economic_life(params)) is None


def test_the_scan_fills_in_its_last_cell_next_to_the_largest_double(monkeypatch):
    # r times the largest double is under 27, so the cost still falls there
    # and its minimum is h(inf); the last cell [u, inf] straddles the tie
    # band at every depth.  Cut as the largest double, it narrows onto it,
    # and cells that ran on at one age would cut that double 63 ways each
    # time until the budget ran out.  Measured as its span to the largest
    # double, it is filled in once narrow enough: a few hundred ages, each
    # evaluated once.
    p = AssetParams(1.7e308, 1e-307, 1.7e308, 1.4e-307)
    evaluated = []

    def recording(params, ages):
        evaluated.append(np.array(ages))
        return cost_and_slope_pieces(params, ages)

    monkeypatch.setattr(oracle, "cost_and_slope_pieces", recording)
    report = brute_force_minimize(p)
    ages = np.concatenate(evaluated)
    assert ages.size <= 1_000 and np.unique(ages).size == ages.size
    assert report.argmin_points == (math.inf,) and report.plateau is None
    assert report.min_value == property_cost(p, math.inf) < property_cost(p, sys.float_info.max)


def test_search_verifies_a_row_whose_grid_holds_ten_billion_points():
    # The cost ties its limit only from about 2.35e7 y on, where a grid of
    # 1e-3 y steps would hold 2.35e10 points; the cost bounds settle almost
    # all of the grid's cells unevaluated.
    p = AssetParams(97190.81438747907, 3.6293333163775402e-06, 2.3092237057599535e-06, 1.322188696851144e-06)
    assert check_against_search(p, economic_life(p)) is None


def test_check_against_search_does_not_read_the_interior_age():
    # The claim's interior age once sized the scan: without it the scan
    # stopped at 10 y, short of the optimum at 18.4 y, and reported a
    # "min cost mismatch" against a correct claim.
    result = economic_life(INSTANCE_C5)
    assert check_against_search(INSTANCE_C5, dataclasses.replace(result, interior_minimum_age=None)) is None


def test_search_verifies_a_row_whose_horizon_passes_2_62_grid_points():
    # The full-depreciation age is about 1e59 y and the cost ties its limit
    # from about 2.3e19 y on, so a grid of 1e-3 y steps to either would hold
    # more than 2^62 points; the cells past 10 y lie far above the minimum at
    # age 0 and are dropped.
    p = AssetParams(1.079585349272943e-40, 5.136757683947801e+74, 1.1299543882839842e-99, 1.3269111341329422e-18)
    assert check_against_search(p, economic_life(p)) is None


def test_a_known_wrong_cost_stays_a_mismatch_past_2_62_grid_points():
    # Wrong C1 claims, whose optima a grid of 1e-3 y steps could not reach in
    # 2^62 points.  The first claims cost 2.7e-157 at age 0, but the cost
    # falls far below that past the full-depreciation age of 1.2e-20 y.  The
    # second claims cost 3.2e-59, but the cost at 2.4e60 y is 1.3e-96.  Where
    # b r underflowed to 0, the closed form once made both claims.
    for p in (
        AssetParams(3.272942103383382e-177, 4.127341197816655e-234, 2.7033611022228657e-157, 2.5684623474568874e-233),
        AssetParams(1.5419855818383203e-36, 5.4749114289142463e-157, 3.1548510694144076e-59, 1.0261909482037181e-271),
    ):
        r = p.interest_rate
        cost_at_zero = math.expm1(r) / r * (p.acquisition_cost * r + p.depreciation_rate)
        claim = SimpleNamespace(min_cost=cost_at_zero, minimizers=MinimizerSet.point(0.0))
        assert check_against_search(p, claim).startswith("min cost mismatch"), p


def test_a_scan_that_gives_up_still_refutes_a_cost_it_undercuts(monkeypatch):
    # Under a budget too small to finish, a correct claim is inconclusive and
    # a claim the evaluated costs undercut is a mismatch, which names the
    # least cost evaluated before the search gave up.
    monkeypatch.setattr(oracle, "GRID_BUDGET", 200)
    result = economic_life(INSTANCE_C4_3)
    assert check_against_search(INSTANCE_C4_3, result) == (
        "verification inconclusive: the scan needs more than 200 cost evaluations"
    )
    wrong_cost = dataclasses.replace(result, min_cost=result.min_cost * 1.001)
    verdict = check_against_search(INSTANCE_C4_3, wrong_cost)
    prefix = "min cost mismatch: closed form 22.55757832051617 vs search "
    assert verdict.startswith(prefix)
    least = float(verdict[len(prefix):])
    assert result.min_cost * (1.0 - oracle.VALUE_RTOL) <= least < wrong_cost.min_cost * (1.0 - oracle.VALUE_RTOL)


def test_a_tail_whose_costs_lie_far_below_the_grid_is_never_kept():
    # The optimum lies at 1.3e67 y and costs 1.0e4.  The cost falls like
    # 1/age from 1.8e28 at 1 y and ties its limit h(inf) only from about
    # 5e25 y on, so it lies above 1e22 at every age the first evaluation
    # takes short of inf.  The upper bound of the last cell, which ends at
    # inf, exceeds h(inf) only by the capital piece at its start, so were
    # h(inf), the value at the last grid point, left out of the least value,
    # that cell would tie the least value and be kept unevaluated, and the
    # check would report a false "min cost mismatch".
    p = AssetParams(1.7612545252373111e28, 7.746909620965645e-64, 7.923062032020201e51, 5.875792517486833e-25)
    assert check_against_search(p, economic_life(p)) is None


def test_an_open_plateau_agrees_with_an_interval_that_ends_in_the_tail():
    # The C2 interval [0, 5.2e18 y] ends at the junction.  The cost ties its
    # minimum at every age, so the scan keeps its first cells, up to 10 y, up
    # to 6.3e5 y and on to inf, unevaluated and reports the plateau [0, inf):
    # it cannot tell where in the last cell the interval ends, but the ages
    # it did evaluate pin the start.  The last of them short of inf is the
    # first evaluation's.
    p = AssetParams(7771.686176112378, 2.371737727930388e-16, 1.5080063814474131e-15, 0.15727637211017295)
    result = economic_life(p)
    report = brute_force_minimize(p)
    assert report.plateau == (0.0, math.inf) and report.tail_start == oracle._FIRST_AGES[-2]
    assert check_against_search(p, result) is None
    short = dataclasses.replace(result, minimizers=MinimizerSet("interval", (0.0, 5.0)))
    assert check_against_search(p, short).startswith("plateau mismatch")


def test_an_interval_claimed_at_a_point_minimum_is_rejected():
    result = economic_life(INSTANCE_C4_3)
    interval = dataclasses.replace(result, minimizers=MinimizerSet.closed_interval(0.0, 5.0))
    assert check_against_search(INSTANCE_C4_3, interval) == (
        "closed form claims an interval of minimizers; search found none"
    )


def test_a_finite_plateau_agrees_with_an_interval_only_at_its_ends():
    # The C5 optimum at 131.8 y is so flat that the search ties its minimum
    # over about 1.2 y, a plateau that ends short of the tail, each end
    # within a resolution step of 131.2569 y and 132.4700 y.  A claimed
    # interval agrees where both its ends lie within a resolution step of
    # the plateau's.
    p = AssetParams(3087.8032790488446, 3.5875904100739926, 427.9854844325287, 0.14518709410461267)
    plateau = brute_force_minimize(p).plateau
    assert all(abs(end - age) <= oracle._spacing(age) for end, age in zip(plateau, (131.2569, 132.4700)))
    result = economic_life(p)
    same = dataclasses.replace(result, minimizers=MinimizerSet.closed_interval(*plateau))
    assert check_against_search(p, same) is None
    longer = dataclasses.replace(result, minimizers=MinimizerSet.closed_interval(plateau[0], plateau[1] + 1.0))
    assert check_against_search(p, longer).startswith("plateau mismatch")


def test_the_grid_runs_from_zero_to_inf():
    # The resolution is GRID_STEP up to 10 y, then a 10,000th of the age, so
    # it is continuous at 10 y.  The first evaluation runs from age 0 to inf,
    # increasing, and the age before inf is finite.  Cutting a cell that ends
    # at inf cuts it as far as the largest double, and raises no
    # RuntimeWarning.
    spacing = oracle._spacing(np.array([0.0, 9.999, 10.0, 10.001, 1e300, math.inf]))
    assert spacing.tolist() == [oracle.GRID_STEP] * 3 + [pytest.approx(1.0001e-3, rel=1e-12), pytest.approx(1e296), math.inf]
    first = oracle._FIRST_AGES
    assert first[0] == 0.0 and first[-1] == math.inf and math.isfinite(first[-2])
    assert np.all(np.diff(first) > 0.0)
    cuts = oracle._cuts(np.array([0.0, first[-2], 1e308]), np.full(3, math.inf))
    assert np.all(np.isfinite(cuts)) and np.all(np.diff(cuts, axis=1) > 0.0)


def test_age_inf_opens_no_refinement_bracket(monkeypatch):
    # Where the cost's least evaluated value is h(inf), as for the optimum at
    # 5.1e81 y, age inf is the scan's argmin.  Its cost is the scan's own
    # value there, so no bracket starts from it, nor reaches it from the
    # evaluated age before.
    _, refined = recording_refinements(monkeypatch)
    far = AssetParams(1.4504029835243377e+30, 8.614985459036953e-58, 5520073410997.727, 3.0231032535690386e-06)
    assert brute_force_minimize(far).argmin_points == (math.inf,)
    for p in (INSTANCE_C1, INSTANCE_C5, FAR_TIED_TAIL, AssetParams(1e6, 1.0, 1.0, 1.0)):
        brute_force_minimize(p)
    assert refined and all(np.isfinite(bracket[0]).all() for bracket, _, _ in refined)


def test_the_first_evaluation_splits_both_finite_first_cells(monkeypatch):
    # The scan's first cost evaluation is one constant set of ages: [0, 10 y]
    # cut _SPLIT ways evenly and [10 y, 6.3e5 y] cut _SPLIT ways evenly in log
    # age, then 6.3e5 y, the first of _SPLIT such cuts of [10 y, the largest
    # double], and age inf, no age twice.  Starting there saves the level
    # that used to split both cells: this asset's search takes 3 cost
    # evaluations, none of them for its bracket.
    anchor = 10.0 * (sys.float_info.max / 10.0) ** (1.0 / oracle._SPLIT)
    steps = np.arange(oracle._SPLIT) / oracle._SPLIT
    expected = np.concatenate((10.0 * steps, 10.0 * (anchor / 10.0) ** steps, [anchor]))
    first = oracle._FIRST_AGES
    assert first.size == expected.size + 1 and first[-1] == math.inf
    assert first[:-1] == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert np.all(np.diff(first) > 0)
    calls = []

    def recording(params, ages):
        calls.append(ages)
        return cost_and_slope_pieces(params, ages)

    monkeypatch.setattr(oracle, "cost_and_slope_pieces", recording)
    brute_force_minimize(AssetParams(1000.0, 20.0, 100.0, 0.1))
    assert len(calls) == 3
    assert calls[0].tobytes() == first.tobytes()


def counting_evaluations(monkeypatch):
    """The sizes of the cost evaluations of the last search: those of its
    scan, and those it made while refining its brackets."""
    search, refine, scan, after = oracle._search, oracle._refine, [], []
    sizes = scan

    def searching(params, claimed):
        nonlocal sizes
        scan.clear()
        after.clear()
        sizes = scan
        return search(params, claimed)

    def refining(*args):
        nonlocal sizes
        sizes = after
        return refine(*args)

    def counting(params, ages):
        sizes.append(np.size(ages))
        return cost_and_slope_pieces(params, ages)

    monkeypatch.setattr(oracle, "_search", searching)
    monkeypatch.setattr(oracle, "_refine", refining)
    monkeypatch.setattr(oracle, "cost_and_slope_pieces", counting)
    return scan, after


RISING_FROM_AGE_0 = oracle.MinimizationReport(
    argmin_points=(0.0,), brackets=((0.0, 0.001),), plateau=None, min_value=31.55127542269429,
    refinements=1, tail_start=float(oracle._FIRST_AGES[-2]),
)


@pytest.mark.parametrize("params", [INSTANCE_C1, INSTANCE_C4_1], ids=["C1", "C4_1"])
def test_a_rise_from_age_0_closes_after_one_refinement_evaluation(monkeypatch, params):
    # The cost rises from age 0 and the slope's pieces at the bracket's two
    # ends, 0 and 1e-3 y, show it rising on all of it: the bracket closes at
    # age 0 on the one evaluation of those two ages, the scan's own, and no
    # cell is split.  The claim is priced in the scan's first evaluation,
    # after its ages.  The report is the one the former 65-point zoom gave,
    # and tail_start is the first evaluation's last finite age.
    scan, after = counting_evaluations(monkeypatch)
    result = economic_life(params)
    assert check_against_search(params, result) is None
    assert scan[0] == oracle._FIRST_AGES.size + len(result.minimizers.values)
    assert after == []
    assert brute_force_minimize(params) == RISING_FROM_AGE_0


def test_a_cell_whose_slope_may_take_either_sign_does_not_close():
    # Around EXACT_TIE's interior optimum the slope changes sign, and where
    # a == b r exactly (INSTANCE_FLAT) it is 0 up to the junction: the cells
    # between the bracket's ages neither rise nor fall, so some are split.
    # Away from its optimum a cell of INSTANCE_C5 (a < b r) falls and one of
    # INSTANCE_C1 (a > b r) rises: they close on the bracket's own ages,
    # with no evaluation.
    interior = economic_life(EXACT_TIE).minimizers.values[1]
    assert INSTANCE_FLAT.maint_slope == INSTANCE_FLAT.depreciation_rate * INSTANCE_FLAT.interest_rate
    for params, ages, closes in ((EXACT_TIE, [interior - 1e-3, interior, interior + 1e-3], False),
                                 (INSTANCE_FLAT, [0.0, 1e-3], False), (INSTANCE_FLAT, [1.0, 1.5, 2.0], False),
                                 (INSTANCE_C5, [1.0, 1.0005, 1.001], True), (INSTANCE_C1, [1.0, 1.0005, 1.001], True)):
        evaluated = []

        def evaluate(ages):
            evaluated.append(ages.size)
            return table(params, ages)

        with np.errstate(over="ignore"):
            age, value = oracle._refine(params, np.array(table(params, np.array(ages))), math.inf, evaluate)
        assert (not evaluated) == closes, (params, ages)
        assert age == (ages[-1] if params is INSTANCE_C5 else ages[0]) or not closes
    # The reports: their least values lie within ZOOM_RTOL of those the
    # former 65-point zoom found, 26.8619999140173 and 25.20506108275153, and
    # their points and bracket ends within a resolution step of those it
    # reported, (0, 5.10825634765625) in [0, 0.001] and [5.107, 5.109], and
    # 11.982904447208336 in [11.98164689488342, 11.984043344078865].
    for params, value, points, brackets in (
        (EXACT_TIE, 26.8619999140173, (0.0, 5.10825634765625), ((0.0, 0.001), (5.107, 5.109))),
        (INSTANCE_FLAT, 25.20506108275153, (11.982904447208336,), ((11.98164689488342, 11.984043344078865),)),
    ):
        report = brute_force_minimize(params)
        assert report.plateau is None and report.refinements == len(points)
        assert report.min_value == pytest.approx(value, rel=oracle.ZOOM_RTOL, abs=0.0)
        ends = np.array([report.argmin_points, *np.transpose(report.brackets)])
        former = np.array([points, *np.transpose(brackets)])
        assert np.all(np.abs(ends - former) <= oracle._spacing(former))


# Brackets [0, 1e-3 y] that hold the full-depreciation age, from a
# log-uniform fuzz over 200 decades.  The cost rises from age 0 up to the junction at 4.8e-146 y
# and on past it; past the junction at 7.6e-31 y it falls to an optimum at
# 8.7e-28 y.  The former 65-point zoom took 79 and 20 evaluations.
JUNCTION_IN_THE_FIRST_CELL = [
    AssetParams(3.627293839304786e-140, 1.5823129719984644e+228, 749007.076827202, 1.3966060201519761e-46),
    AssetParams(1.0449447321850678e+25, 2.7717891723377928e+79, 1.3713175971489063e+55, 3.31679781812039e-78),
]


@pytest.mark.parametrize("params, evaluations", zip(JUNCTION_IN_THE_FIRST_CELL, [2, 10]), ids=["rises", "falls_past_it"])
def test_a_bracket_that_holds_the_junction_is_cut_there(monkeypatch, params, evaluations):
    # The bracket's ends are the scan's; its first evaluation reads only the
    # junction J and the double after it, so every cell lies on one side of
    # J, and a rise on both sides closes there.  An optimum past J is reached
    # by 64-way geometric cuts of the 27 decades from J to 1e-3 y, and
    # certified within ZOOM_RTOL once its cells are about 1e-7 of its age
    # wide, which no two evaluations reach: it takes six, and at most ten are
    # allowed, as for every row of the log-uniform fuzz.
    assert 0.0 < params.junction < 1e-3
    _, after = counting_evaluations(monkeypatch)
    result = economic_life(params)
    assert check_against_search(params, result) is None
    assert len(after) <= evaluations and after[0] == 2
    assert brute_force_minimize(params).min_value == pytest.approx(result.min_cost, rel=1e-15)


@pytest.mark.parametrize(
    "params",
    [
        AssetParams(5e-324, 1.0, 1.0, 1.0),
        AssetParams(1e-310, 1.0, 1.0, 1.0),
        AssetParams(1e-315, 1e-290, 1e-5, 1.0),
        AssetParams(5e-324, 1e-300, 1.0, 0.5),
        AssetParams(1e-300, 1.0, 1e5, 1.0),
        AssetParams(1e-300, 1e-10, 1e5, 1e-3),
    ],
    ids=["least_A", "subnormal_A", "subnormal_A_and_tiny_a", "subnormal_cost", "overflowing_N",
         "overflowing_N_and_tiny_a"],
)
def test_a_subnormal_acquisition_cost_is_refined_in_few_evaluations(monkeypatch, params):
    # At a subnormal A the capital piece D = (A/t) p past the junction turns
    # subnormal from A/t < 2^-1022 on, and N = D (r + p/t) then rounds by
    # far more than _SLOPE_SLACK: the slope bounds take that on, and a cell
    # closes within ZOOM_RTOL of the least normal double where the least
    # cost is subnormal.  At A = 1e-300, normal, the junction lies at
    # 1e-305 y, and N, about b^2/A, overflows just past it: a cell there has
    # no finite bound on its fall, and the line from its high end, with the
    # bound on its rise, closes it.  The optimum near sqrt(2 A/a) closes by
    # the slope bound in a few evaluations, as at a moderate A.
    _, after = counting_evaluations(monkeypatch)
    if params.maint_slope >= 1e-290:
        result = economic_life(params)
        assert check_against_search(params, result) is None
        assert len(after) <= 10 and sum(after) <= 1000
    report = brute_force_minimize(params)
    assert len(after) <= 10 and sum(after) <= 1000
    (point,) = report.argmin_points
    assert point == pytest.approx(math.sqrt(2.0 * params.acquisition_cost / params.maint_slope), rel=1e-3)
    dense = property_cost(params, point * (1.0 + np.linspace(-1e-3, 1e-3, 2001)))
    assert report.min_value <= dense.min()


def test_the_refinement_work_is_bounded_at_a_subnormal_acquisition_cost(monkeypatch):
    # A log-uniform over the subnormal doubles and the least normal decade,
    # a and b over +-300 decades in odd rows and +-20 in even ones, the rate
    # over [1e-300, 1] but [1e-3, 1] in every third row: each search refines
    # in the bounds of the test above.
    _, after = counting_evaluations(monkeypatch)
    rng = np.random.default_rng(11)
    for k in range(300):
        A = float(10.0 ** rng.uniform(-323.5, -307.5))
        span = 300.0 if k % 2 else 20.0
        a, b = (10.0 ** rng.uniform(-span, span, 2)).tolist()
        r = float(10.0 ** (rng.uniform(-3.0, 0.0) if k % 3 == 0 else rng.uniform(-300.0, 0.0)))
        params = AssetParams(A, a, b, r)
        brute_force_minimize(params)
        assert len(after) <= 10 and sum(after) <= 1000, params


# Rows whose least cost is tiny against the width of their brackets, with a
# maintenance slope below 1e-295: (params, the verdict's start).  The first
# is C4_3, optimum at 4,472 y, least cost 4.5e-304; the second is claimed C2
# because b r rounds into the subnormal range, though the cost is flat to
# within TIE_RTOL from age 0 on; the other eight each evaluated more than
# 200,000 ages when the slope bounds were floored at the least normal
# double, which kept every cell's lower bound more than ZOOM_RTOL below the
# least value, so no cell closed (A and b at 10**uniform(-300, 300), a at
# 10**uniform(-308, -295), r at 10**uniform(-20, 0), default_rng(5)).
TINY_SLOPE = [
    (AssetParams(1e-300, 1e-307, 1e-300, 1e-10), "min cost mismatch: "),
    (AssetParams(7.790208525434191e-268, 7.2705e-319, 1.748191384683815e-298, 4.158889308481065e-21),
     "plateau mismatch: closed form [0.0, 4.4561531384294975e+30] vs search [0.0, inf]"),
    (AssetParams(4.361289646590475e-284, 5.430638672664589e-308, 1.8295890573943978e-28, 1.914605563582043e-16),
     "min cost mismatch: "),
    (AssetParams(7.842906279755301e-272, 7.21026107685734e-306, 2.0617746504586016e+210, 4.494751109678706e-16), None),
    (AssetParams(1.829726021820509e-296, 1.5893225256784396e-306, 9.300518881812086e-198, 1.1658263778887643e-10),
     "min cost mismatch: "),
    (AssetParams(1.0018808497378107e-300, 6.172611684986793e-306, 1.8051158068269747e-264, 2.2546184200457037e-12),
     "min cost mismatch: "),
    (AssetParams(4.4373516297181433e-299, 2.7655237566616598e-304, 1.2465593432353921e-183, 0.03649794566371161), None),
    (AssetParams(9.965333010702958e-265, 9.621474722498264e-306, 2.4613058531902858e-134, 1.7655792243537628e-19), None),
    (AssetParams(2.8056477970929022e-272, 2.1515907101651987e-306, 9.287653953163793e-94, 1.004670918185167e-15), None),
    (AssetParams(2.9292591437815625e-277, 2.1515452149754293e-305, 2.6086282359970327e-127, 1.201538008359015e-17), None),
]


@pytest.mark.parametrize("params, verdict", TINY_SLOPE)
def test_the_search_work_is_bounded_at_a_tiny_maintenance_slope(monkeypatch, params, verdict):
    # Each check takes at most 10 cost evaluations and 5,000 ages: the
    # counting evaluation fails as soon as a call would pass either bound,
    # before it allocates.  Below the least normal double P and N round by a
    # few 2^-1075 absolute, and the slope bounds are floored there, not at
    # 2^-1022.  A mismatch is a defect of the closed form at a tiny cost
    # ratio: its min_cost lies below the cost at its own claimed age.
    counted = [0, 0]

    def counting(p, ages):
        counted[0] += 1
        counted[1] += np.size(ages)
        assert counted[0] <= 10 and counted[1] <= 5000, counted
        return cost_and_slope_pieces(p, ages)

    monkeypatch.setattr(oracle, "cost_and_slope_pieces", counting)
    result = economic_life(params)
    found = check_against_search(params, result)
    assert found is None if verdict is None else found.startswith(verdict), found
    if found is not None and found.startswith("min cost mismatch"):
        error = reference_cost(params, result.minimizers.values[0]) / Decimal(result.min_cost) - 1
        assert error > oracle.VALUE_RTOL


@pytest.mark.parametrize("shift", [-1e-11, -3e-12, -1e-13, -1e-15, 1e-15, 1e-13, 3e-12, 1e-11])
def test_a_claim_beside_the_tie_threshold_is_inconclusive_not_a_failure(shift):
    # A = T (1 + shift), with T the tie threshold of INSTANCE_C4_1: the closed
    # form answers C4_3 below T and C4_1 above it, one point each, and at
    # q = 0.4 the threshold is a few ulp off at most, so the label is right.
    # Within about 3e-12 of T the two minima differ by less than TIE_RTOL,
    # so the search finds the other one tied, and a value check cannot tell
    # which is lower: check_against_search reads result.case and calls the
    # claim inconclusive, not a failure.  At 1e-11 it tells them apart and
    # agrees.  A claim without a case still reads as an extra minimizer.
    params = dataclasses.replace(EXACT_TIE, acquisition_cost=EXACT_TIE.acquisition_cost * (1.0 + shift))
    result = economic_life(params)
    assert result.case.value == ("C4_3" if shift < 0.0 else "C4_1")
    verdict = check_against_search(params, result)
    if abs(shift) < 1e-11:
        assert verdict == "verification inconclusive: two minima tie within the search's band"
        caseless = SimpleNamespace(min_cost=result.min_cost, minimizers=result.minimizers)
        assert check_against_search(params, caseless).startswith("search found an extra minimizer at ")
    else:
        assert verdict is None


@pytest.mark.parametrize("params", [INSTANCE_C4_3, EXACT_TIE, CLOSE_TIES[0][0]])
def test_the_claim_is_priced_in_the_first_evaluation(params):
    # The claimed ages' costs are those of property_cost, bit for bit, and
    # pricing them leaves the report as it is.
    claimed = economic_life(params).minimizers.values
    report, costs = oracle._search(params, claimed)
    assert costs.tobytes() == property_cost(params, np.array(claimed)).tobytes()
    assert report == brute_force_minimize(params)


def test_the_search_constants_are_read_only():
    # Every search shares them, so an in-place write raises instead of
    # changing every later search; cost_and_slope_pieces reads a read-only age array.
    for constant in (*_gauss_legendre(), oracle._BOUND_SLACK, oracle._FIRST_AGES):
        assert not constant.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            constant += 0
    ages = oracle._FIRST_AGES
    pieces = cost_and_slope_pieces(INSTANCE_C5, ages)
    assert all(piece.tobytes() == fresh.tobytes() for piece, fresh in zip(pieces, cost_and_slope_pieces(INSTANCE_C5, ages.copy())))


# Closed forms whose min_cost is wrong by 4.6e-13 to 3.6e-10 relative, from
# the D = 100 and D = 300 log-uniform fuzz: (case, error, params).
WRONG_BY_MORE_THAN_VALUE_RTOL = [
    ("C4_3", 4.4e-11, AssetParams(2.071376838017328e-68, 3.954377045383405e+65, 7.69263640987786e+94, 5.545728013343716e-91)),
    ("C4_3", 1.2e-12, AssetParams(2.6655552992895537e-61, 2.1741663346207874e+73, 8.93952432781844e+22, 1.260189149558117e-90)),
    ("C5", 3.3e-10, AssetParams(4.7599925448775195e+132, 1.8885211251412054e-206, 3.5638502402060624e+119, 2.174426988269029e-224)),
    ("C5", 3.6e-10, AssetParams(2.625060138816479e+68, 6.726651860195885e-141, 3.3563582694996526e+299, 2.5916854683555718e-192)),
    ("C4_3", 3.0e-12, AssetParams(5.823306171476541e+143, 5.837549607961526e-19, 2.3176422419473015e+93, 3.2677294215963695e-229)),
    ("C4_3", 5.1e-13, AssetParams(8.688502589675105e+66, 1.0453644976306828e+223, 3.411258998997453e+290, 1.457602517735338e-78)),
    ("C4_3", 4.6e-13, AssetParams(4.968064929084604e+78, 2.0082251160530074e+41, 5.6232303303865104e+75, 2.880392698122173e-175)),
]


@pytest.mark.parametrize("case, error, params", WRONG_BY_MORE_THAN_VALUE_RTOL)
def test_a_cost_wrong_past_value_rtol_is_a_mismatch(case, error, params):
    # The refinement closes within ZOOM_RTOL, so the search's least value is sharp
    # enough to refute a min_cost wrong by more than VALUE_RTOL = 1e-13.
    result = economic_life(params)
    assert result.case.value == case
    reference = reference_cost(params, result.minimizers.values[0])
    assert float(abs(Decimal(result.min_cost) - reference) / reference) == pytest.approx(error, rel=0.1)
    assert check_against_search(params, result).startswith("min cost mismatch")
