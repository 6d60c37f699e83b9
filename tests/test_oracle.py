import dataclasses
import math
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
from econlife.cost_model import cost_and_slope_pieces, cost_pieces


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


# Exact ties two and 1.5 grid steps apart: A = acquisition_threshold at
# a = r = 1 and b = -expm1(-u), so C4_2 at ages 0 and u, with u = 2e-3 and
# 1.5e-3.  Their brackets [0, 1e-3] and [1e-3, 3e-3] touch at one grid point.
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
    assert report.brackets == ((0.0, 0.001), (0.001, 0.003))
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
    monkeypatch.setattr(oracle, "cost_pieces", counting(cost_pieces))
    for p in far:
        counted[0] = 0
        assert check_against_search(p, economic_life(p)) is None, p
        assert counted[0] <= 100.0 / (p.interest_rate * 1e-3) + 2**17, p


# Interior optimum at rate * age ~ 1e4, far out where the grid spacing grows with age:
# beyond rate * age ~ 33 the cost is flat to within the tie tolerance, so the
# whole tail of the grid ties its minimum.
FAR_TIED_TAIL = AssetParams(1e4, 1.0, 1e3, 1.0)


EXACT_TIE = AssetParams(acquisition_threshold(INSTANCE_C4_1), 5.0, 20.0, 0.1)


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
    # Between them these grids hold cells wholly above the tie threshold,
    # wholly at or below it (the plateau and the tied tail) and across it,
    # the three cases the scan settles differently; C5's optimum at 18.4 y
    # lies past 10 y, where the grid spacing grows with age.  However finely
    # the scan splits its cells, it finds the minimum and the tied runs of
    # the whole grid, age inf included, and evaluates no point twice.  From
    # rate * age = _HOLD on every grid value is h(inf) to the last bit, so
    # the grid up to the first index there stands for all the later ones.
    hold = oracle._LINEAR_END + math.ceil(
        math.log(cost_model._HOLD / params.interest_rate / 10.0) / oracle._LOG_RATIO
    )
    values = property_cost(params, oracle._ages(np.arange(hold + 1)))
    assert values[-1] == property_cost(params, math.inf)
    h_min = values.min()
    threshold = h_min + oracle.TIE_RTOL * abs(h_min)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], values <= threshold, [0])).astype(np.int8)))
    whole_grid_runs = list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))
    if whole_grid_runs[-1][1] == hold:  # the run goes on to age inf
        whole_grid_runs[-1] = (whole_grid_runs[-1][0], oracle._LAST)
    assert (whole_grid_runs[-1][1] == oracle._LAST) == tied_tail
    # The split applies to the scan only: the refinement's cells are its own.
    scan, whole = oracle._scan, oracle._SPLIT

    def scanning(params, first=None):
        oracle._SPLIT = split
        try:
            return scan(params, first)
        finally:
            oracle._SPLIT = whole

    monkeypatch.setattr(oracle, "_scan", scanning)
    reports = []
    for split in (2, 7, whole):
        indices, scanned, least, d, i = oracle._scan(params)
        assert least == h_min
        assert np.array_equal(indices, np.unique(indices))
        assert np.array_equal(scanned, values[np.minimum(indices, hold)])
        pieces = cost_pieces(params, oracle._ages(indices))
        assert d.tobytes() == pieces[0].tobytes() and i.tobytes() == pieces[1].tobytes()
        assert oracle._tied_runs(indices, scanned <= threshold) == whole_grid_runs
        reports.append(brute_force_minimize(params))
        assert (reports[-1].plateau is not None and reports[-1].plateau[1] == math.inf) == tied_tail
    assert len({(report.plateau, report.min_value) for report in reports}) == 1
    if reports[0].plateau is None:
        assert reports[0].argmin_points == reports[1].argmin_points == reports[2].argmin_points
    else:  # any tied point may stand for a plateau that holds every refined basin
        assert all(reports[0].plateau[0] <= report.argmin_points[0] <= reports[0].plateau[1] for report in reports)


@pytest.mark.parametrize("params", [INSTANCE_C1, INSTANCE_C5, EXACT_TIE, FAR_TIED_TAIL])
def test_the_scan_finishes_on_a_budget_of_exactly_its_points(monkeypatch, params):
    # GRID_BUDGET bounds the points of all the scan's cost evaluations
    # together: a budget of exactly that many lets it finish, one fewer
    # stops it before the evaluation that would pass the budget.  The pieces
    # it returns are those of ``cost_pieces`` at its indices, bit for bit.
    sizes = []

    def counting_pieces(p, ages):
        sizes.append(np.size(ages))
        return cost_pieces(p, ages)

    monkeypatch.setattr(oracle, "cost_pieces", counting_pieces)
    scan = oracle._scan(params)
    indices, values, least, d, i = scan
    calls = sizes.copy()
    assert len(calls) > 2 and sum(calls) == indices.size
    pieces = cost_pieces(params, oracle._ages(indices))
    assert d.tobytes() == pieces[0].tobytes() and i.tobytes() == pieces[1].tobytes()
    monkeypatch.setattr(oracle, "GRID_BUDGET", indices.size)
    again = oracle._scan(params)
    assert again[2] == least and all(np.array_equal(a, b) for a, b in zip(again, scan))
    monkeypatch.setattr(oracle, "GRID_BUDGET", indices.size - 1)
    sizes.clear()
    with pytest.raises(oracle.ScanGaveUp):
        oracle._scan(params)
    assert sizes == calls[:-1]


def recording_refinements(monkeypatch):
    """The (ages, result) of every bracket the search refines, as it refines them."""
    refine, refined = oracle._refine, []

    def recording(params, ages):
        refined.append((ages.copy(), refine(params, ages)))
        return refined[-1][1]

    monkeypatch.setattr(oracle, "_refine", recording)
    return refine, refined


def test_zoom_refines_each_bracket_as_if_it_were_alone(monkeypatch):
    # Each of two tied basins is refined by its own values only, bit for
    # bit as if it were the only bracket, and the report holds each one's
    # least point and value.
    refine, refined = recording_refinements(monkeypatch)
    for params in (EXACT_TIE, CLOSE_TIES[0][0], CLOSE_TIES[1][0]):
        refined.clear()
        report = brute_force_minimize(params)
        assert len(refined) == report.refinements == len(report.argmin_points) == 2
        for (ages, together), point in zip(refined, report.argmin_points):
            alone = refine(params, ages.copy())
            assert np.array([alone]).tobytes() == np.array([together]).tobytes()
            assert together[0] == point
        assert report.min_value == min(value for _, (_, value) in refined)


def test_the_zoom_skips_only_brackets_that_cannot_tie(monkeypatch):
    # Of the candidate brackets (around each strict local minimum of the
    # scan's values and its argmin, and from age 0) the search refines only
    # those whose lower cost bound reaches the tie threshold.  Each one it
    # skips, refined alone, stays above the report's tie band, and
    # refinements counts the brackets refined.
    refine, refined = recording_refinements(monkeypatch)
    rng = np.random.default_rng(20261019)
    instances = [INSTANCE_C1, INSTANCE_C4_1, INSTANCE_C4_3, INSTANCE_C5, INSTANCE_FLAT, EXACT_TIE,
                 FAR_TIED_TAIL, AssetParams(100.0, 1.6, 2.0, 0.8), AssetParams(1e6, 1.0, 1.0, 1.0)]
    skipped = 0
    for p in instances + [draw_params(rng) for _ in range(200)]:
        refined.clear()
        report = brute_force_minimize(p)
        assert report.refinements == len(refined)
        indices, values = oracle._scan(p)[:2]
        basins = set(oracle._basins(indices, values)) | {int(indices[np.argmin(values)])}
        candidates = np.array(sorted(basins - {oracle._LAST}))
        grid = np.stack((np.maximum(candidates - 1, 0), candidates, np.minimum(candidates + 1, oracle._LAST - 1)), axis=1)
        brackets = {tuple(ages) for ages in oracle._ages(grid).tolist()}
        assert {tuple(ages.tolist()) for ages, _ in refined} <= brackets
        tie_band = report.min_value + oracle.TIE_RTOL * abs(report.min_value)
        for ages in brackets - {tuple(ages.tolist()) for ages, _ in refined}:
            skipped += 1
            assert refine(p, np.array(ages))[1] > tie_band, (p, ages)
    assert skipped > 100


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
    # a claim the evaluated costs undercut is a mismatch.
    monkeypatch.setattr(oracle, "GRID_BUDGET", 200)
    result = economic_life(INSTANCE_C4_3)
    assert check_against_search(INSTANCE_C4_3, result) == (
        "verification inconclusive: the scan needs more than 200 cost evaluations"
    )
    wrong_cost = dataclasses.replace(result, min_cost=result.min_cost * 1.001)
    assert check_against_search(INSTANCE_C4_3, wrong_cost) == (
        "min cost mismatch: closed form 22.55757832051617 vs search 22.537315439025278"
    )


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
    # to a 64th of the geometric indices (6.3e5 y) and on to inf,
    # unevaluated and reports the plateau [0, inf): it cannot tell where in
    # the last cell the interval ends, but the ages it did evaluate pin the
    # start.
    p = AssetParams(7771.686176112378, 2.371737727930388e-16, 1.5080063814474131e-15, 0.15727637211017295)
    result = economic_life(p)
    report = brute_force_minimize(p)
    first_cut = oracle._LINEAR_END + (oracle._LAST - oracle._LINEAR_END) // oracle._SPLIT
    assert report.plateau == (0.0, math.inf) and report.tail_start == oracle._ages(first_cut)
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
    # The C5 optimum at 131.8 y is so flat that the grid ties its minimum
    # over about 1.2 y, a plateau that ends short of the tail.  A claimed
    # interval agrees where both its ends lie within a grid spacing of the
    # plateau's.
    p = AssetParams(3087.8032790488446, 3.5875904100739926, 427.9854844325287, 0.14518709410461267)
    plateau = brute_force_minimize(p).plateau
    assert plateau == pytest.approx((131.2569, 132.4700), abs=1e-4)
    result = economic_life(p)
    same = dataclasses.replace(result, minimizers=MinimizerSet.closed_interval(*plateau))
    assert check_against_search(p, same) is None
    longer = dataclasses.replace(result, minimizers=MinimizerSet.closed_interval(plateau[0], plateau[1] + 1.0))
    assert check_against_search(p, longer).startswith("plateau mismatch")


def test_the_grid_runs_from_zero_to_inf():
    # GRID_STEP apart up to 10 y, then a 10,000th of the age apart, so the
    # spacing is continuous at 10 y; the last index is age inf and the one
    # before it finite.  The overflow to inf raises no RuntimeWarning.
    last = oracle._LAST
    ages = oracle._ages(np.array([0, 1, oracle._LINEAR_END - 1, oracle._LINEAR_END, oracle._LINEAR_END + 1, last - 1, last]))
    assert ages[:5].tolist() == [0.0, oracle.GRID_STEP, 9.999, 10.0, pytest.approx(10.001, rel=1e-12)]
    assert math.isfinite(ages[5]) and ages[5] > 1e308 and ages[6] == math.inf
    grid = oracle._ages(np.arange(0, last + 1, 997))
    assert np.all(np.diff(grid) > 0.0)


def test_age_inf_opens_no_zoom_bracket(monkeypatch):
    # Where the cost's least grid value is h(inf), as for the optimum at
    # 5.1e81 y, the last grid index, age inf, is the grid's argmin.  Its cost
    # is the grid's own value there, so no bracket starts from it, nor
    # reaches it from the index before.
    _, refined = recording_refinements(monkeypatch)
    far = AssetParams(1.4504029835243377e+30, 8.614985459036953e-58, 5520073410997.727, 3.0231032535690386e-06)
    assert brute_force_minimize(far).argmin_points == (math.inf,)
    for p in (INSTANCE_C1, INSTANCE_C5, FAR_TIED_TAIL, AssetParams(1e6, 1.0, 1.0, 1.0)):
        brute_force_minimize(p)
    last_finite = oracle._ages(np.array(oracle._LAST - 1))
    assert refined and all(ages[0] < last_finite and ages[-1] <= last_finite for ages, _ in refined)


def test_the_first_evaluation_splits_both_finite_first_cells(monkeypatch):
    # The scan's first cost evaluation is one constant grid: [0, 10 y] and
    # [10 y, 6.3e5 y] each split _SPLIT ways, that anchor and age inf, no
    # index twice.  Starting there saves the level that used to split both
    # cells: this asset's scan takes 3 cost evaluations where it took 4.
    anchor = oracle._LINEAR_END + (oracle._LAST - oracle._LINEAR_END) // oracle._SPLIT
    steps = np.arange(oracle._SPLIT)
    expected = np.concatenate((
        oracle._LINEAR_END * steps // oracle._SPLIT,
        oracle._LINEAR_END + (anchor - oracle._LINEAR_END) * steps // oracle._SPLIT,
        [anchor, oracle._LAST],
    ))
    assert np.array_equal(oracle._FIRST_INDICES, expected)
    assert np.all(np.diff(oracle._FIRST_INDICES) > 0)
    assert oracle._FIRST_AGES.tobytes() == oracle._ages(expected).tobytes()
    calls = []

    def recording(params, ages):
        calls.append(ages)
        return cost_pieces(params, ages)

    monkeypatch.setattr(oracle, "cost_pieces", recording)
    brute_force_minimize(AssetParams(1000.0, 20.0, 100.0, 0.1))
    assert len(calls) == 3
    assert calls[0] is oracle._FIRST_AGES


def counting_evaluations(monkeypatch):
    """The sizes of the scan's first cost evaluation and of the search's evaluations after its scan."""
    scan, first, after = oracle._scan, [], []

    def scanning(params, pieces=None):
        first.append(np.size(pieces[0]))
        result = scan(params, pieces)
        after.clear()
        return result

    def counting(evaluate):
        def wrapper(params, ages):
            after.append(np.size(ages))
            return evaluate(params, ages)
        return wrapper

    monkeypatch.setattr(oracle, "_scan", scanning)
    monkeypatch.setattr(oracle, "cost_pieces", counting(cost_pieces))
    monkeypatch.setattr(oracle, "cost_and_slope_pieces", counting(cost_and_slope_pieces))
    return first, after


RISING_FROM_AGE_0 = oracle.MinimizationReport(
    argmin_points=(0.0,), brackets=((0.0, 0.001),), plateau=None, min_value=31.55127542269429,
    refinements=1, tail_start=632181.8599623217,
)


@pytest.mark.parametrize("params", [INSTANCE_C1, INSTANCE_C4_1], ids=["C1", "C4_1"])
def test_a_rise_from_age_0_closes_after_one_zoom_evaluation(monkeypatch, params):
    # The cost rises from age 0 and the slope's pieces at the bracket's two
    # ends, 0 and 1e-3 y, show it rising on all of it: the bracket closes at
    # age 0 in its first evaluation, which reads only those two ages, and
    # no cell is split.  The claim is priced in the scan's first evaluation,
    # after its grid.  The report is the one the former 65-point zoom gave.
    first, after = counting_evaluations(monkeypatch)
    result = economic_life(params)
    assert check_against_search(params, result) is None
    assert first == [oracle._FIRST_AGES.size + len(result.minimizers.values)]
    assert after == [2]
    assert brute_force_minimize(params) == RISING_FROM_AGE_0


def test_a_cell_whose_slope_may_take_either_sign_does_not_close(monkeypatch):
    # Around EXACT_TIE's interior optimum the slope changes sign, and where
    # a == b r exactly (INSTANCE_FLAT) it is 0 up to the junction: the cells
    # of the first evaluation neither rise nor fall, so some are split again.
    # Away from its optimum a cell of INSTANCE_C5 (a < b r) falls and one of
    # INSTANCE_C1 (a > b r) rises: the first evaluation closes them.
    _, after = counting_evaluations(monkeypatch)
    interior = economic_life(EXACT_TIE).minimizers.values[1]
    assert INSTANCE_FLAT.maint_slope == INSTANCE_FLAT.depreciation_rate * INSTANCE_FLAT.interest_rate
    for params, ages, closes in ((EXACT_TIE, [interior - 1e-3, interior, interior + 1e-3], False),
                                 (INSTANCE_FLAT, [0.0, 0.0, 1e-3], False), (INSTANCE_FLAT, [1.0, 1.5, 2.0], False),
                                 (INSTANCE_C5, [1.0, 1.0005, 1.001], True), (INSTANCE_C1, [1.0, 1.0005, 1.001], True)):
        after.clear()
        age, value = oracle._refine(params, np.array(ages))
        assert (len(after) == 1) == closes, (params, ages)
        assert age == (ages[-1] if params is INSTANCE_C5 else ages[0]) or not closes
    # The reports, pinned: their least values lie within ZOOM_RTOL of those
    # the former 65-point zoom found, 26.8619999140173 and 25.20506108275153.
    exact_tie = brute_force_minimize(EXACT_TIE)
    assert exact_tie == oracle.MinimizationReport(
        argmin_points=(0.0, 5.10825634765625), brackets=((0.0, 0.001), (5.107, 5.109)), plateau=None,
        min_value=26.861999914017304, refinements=2, tail_start=632181.8599623217,
    )
    assert exact_tie.min_value == pytest.approx(26.8619999140173, rel=oracle.ZOOM_RTOL, abs=0.0)
    flat = brute_force_minimize(INSTANCE_FLAT)
    assert flat == oracle.MinimizationReport(
        argmin_points=(11.982904447208336,), brackets=((11.98164689488342, 11.984043344078865),), plateau=None,
        min_value=25.20506108275153, refinements=1, tail_start=632181.8599623217,
    )
    assert flat.min_value == pytest.approx(25.20506108275153, rel=oracle.ZOOM_RTOL, abs=0.0)


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
    # The bracket's first evaluation reads its two ends, the junction J and
    # the double after it, so every cell lies on one side of J, and a rise
    # on both sides closes there.  An optimum past J is reached by 64-way
    # geometric cuts of the 27 decades from J to 1e-3 y, and certified
    # within ZOOM_RTOL once its cells are about 1e-7 of its age wide, which
    # no two evaluations reach: it takes six, and at most ten are allowed,
    # as for every row of the log-uniform fuzz.
    assert 0.0 < params.junction < 1e-3
    _, after = counting_evaluations(monkeypatch)
    result = economic_life(params)
    assert check_against_search(params, result) is None
    assert len(after) <= evaluations and after[0] == 4
    assert brute_force_minimize(params).min_value == pytest.approx(result.min_cost, rel=1e-15)


@pytest.mark.parametrize(
    "params",
    [
        AssetParams(5e-324, 1.0, 1.0, 1.0),
        AssetParams(1e-310, 1.0, 1.0, 1.0),
        AssetParams(1e-315, 1e-290, 1e-5, 1.0),
        AssetParams(5e-324, 1e-300, 1.0, 0.5),
    ],
    ids=["least_A", "subnormal_A", "subnormal_A_and_tiny_a", "subnormal_cost"],
)
def test_a_subnormal_acquisition_cost_is_refined_in_few_evaluations(monkeypatch, params):
    # At a subnormal A the capital piece D = (A/t) p past the junction turns
    # subnormal from A/t < 2^-1022 on, and N = D (r + p/t) then rounds by
    # far more than _SLOPE_SLACK: the slope bounds take that on, the pieces'
    # bound closes the cells near the junction, where N overflows, and a
    # cell closes within ZOOM_RTOL of the least normal double where the
    # least cost is subnormal.  The optimum near sqrt(2 A/a) closes by the
    # slope bound in a few evaluations, as at a normal A.
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
    # changing every later search; cost_pieces reads a read-only age array.
    for constant in (*_gauss_legendre(), oracle._BOUND_SLACK,
                     oracle._FIRST_INDICES, oracle._FIRST_AGES):
        assert not constant.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            constant += 0
    ages = oracle._FIRST_AGES
    pieces = cost_pieces(INSTANCE_C5, ages)
    assert all(piece.tobytes() == fresh.tobytes() for piece, fresh in zip(pieces, cost_pieces(INSTANCE_C5, ages.copy())))


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
    # The zoom closes within ZOOM_RTOL, so the search's least value is sharp
    # enough to refute a min_cost wrong by more than VALUE_RTOL = 1e-13.
    result = economic_life(params)
    assert result.case.value == case
    reference = reference_cost(params, result.minimizers.values[0])
    assert float(abs(Decimal(result.min_cost) - reference) / reference) == pytest.approx(error, rel=0.1)
    assert check_against_search(params, result).startswith("min cost mismatch")
