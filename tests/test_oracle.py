import dataclasses
import math
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
    draw_params,
    draw_wide_params,
)
from econlife import (
    AssetParams,
    MinimizerSet,
    acquisition_threshold,
    brute_force_minimize,
    check_against_search,
    cost_model,
    economic_life,
    integrate_discounted_maintenance,
    interior_minimum_age,
    maintenance_cost,
    oracle,
    property_cost,
)
from econlife.cost_model import cost_pieces


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
        value = integrate_discounted_maintenance(p, t, tol=1e-11)
        exact = discounted_maintenance_antiderivative(p, t)
        assert value == pytest.approx(exact, rel=1e-9, abs=1e-11)


def test_integral_undiscounted_limit():
    # At small r*t the integral approaches slope * t^2 / 2.
    p = AssetParams(100.0, 3.0, 20.0, 0.01)
    t = 0.05
    value = integrate_discounted_maintenance(p, t, tol=1e-13)
    assert value == pytest.approx(p.maint_slope * t * t / 2.0, rel=1e-3)


def test_integral_reaches_its_limit_at_huge_ages():
    # The integral tends to slope / rate^2; past rate * s = 750 the integrand
    # underflows, so no age can leave the quadrature without panels.
    p = INSTANCE_C1
    limit = p.maint_slope / p.interest_rate**2
    for t in (1e4, 1e300, math.inf):
        assert integrate_discounted_maintenance(p, t) == pytest.approx(limit, rel=1e-12)


def test_integral_validation():
    with pytest.raises(ValueError):
        integrate_discounted_maintenance(INSTANCE_C1, -1.0)
    with pytest.raises(ValueError):
        integrate_discounted_maintenance(INSTANCE_C1, 1.0, tol=0.0)


def test_closed_form_maintenance_equals_quadrature_route(rng):
    for _ in range(30):
        p = draw_params(rng)
        t = float(rng.uniform(0.01, min(50.0, 600.0 / p.interest_rate)))
        r = p.interest_rate
        integral = integrate_discounted_maintenance(p, t, tol=1e-12)
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

    def counting(params, t):
        counted[0] += np.size(t)
        return property_cost(params, t)

    def counting_pieces(params, t):
        counted[0] += np.size(t)
        return cost_pieces(params, t)

    monkeypatch.setattr(oracle, "property_cost", counting)
    monkeypatch.setattr(oracle, "cost_pieces", counting_pieces)
    for p in far:
        counted[0] = 0
        assert check_against_search(p, economic_life(p)) is None, p
        assert counted[0] <= 100.0 / (p.interest_rate * 1e-3) + 2**17, p


# Interior optimum at rate * age ~ 1e4, far past the scan cap of 686 years:
# beyond rate * age ~ 33 the cost is flat to within the tie tolerance, so the
# whole tail of the grid ties its minimum.
CAPPED_TIED_TAIL = AssetParams(1e4, 1.0, 1e3, 1.0)


EXACT_TIE = AssetParams(acquisition_threshold(INSTANCE_C4_1), 5.0, 20.0, 0.1)


@pytest.mark.parametrize(
    "params, tied_tail",
    [
        (INSTANCE_C1, False),
        (INSTANCE_C4_3, False),
        (AssetParams(100.0, 1.6, 2.0, 0.8), True),
        (EXACT_TIE, False),
        (CAPPED_TIED_TAIL, True),
        (INSTANCE_C5, False),
    ],
    ids=["C1", "C4_3", "plateau", "exact_tie", "capped_tied_tail", "C5_in_the_tail"],
)
def test_scan_is_chunk_invariant(monkeypatch, params, tied_tail):
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
    reports = []
    for split in (2, 7, oracle._SPLIT):
        monkeypatch.setattr(oracle, "_SPLIT", split)
        indices, scanned, least = oracle._scan(params)
        assert least == h_min
        assert np.array_equal(indices, np.unique(indices))
        assert np.array_equal(scanned, values[np.minimum(indices, hold)])
        assert oracle._tied_runs(indices, scanned <= threshold) == whole_grid_runs
        reports.append(brute_force_minimize(params))
        assert (reports[-1].plateau is not None and reports[-1].plateau[1] == math.inf) == tied_tail
    assert len({(report.plateau, report.min_value) for report in reports}) == 1
    if reports[0].plateau is None:
        assert reports[0].argmin_points == reports[1].argmin_points == reports[2].argmin_points
    else:  # any tied point may stand for a plateau that holds every refined basin
        assert all(reports[0].plateau[0] <= report.argmin_points[0] <= reports[0].plateau[1] for report in reports)


@pytest.mark.parametrize("params", [INSTANCE_C1, INSTANCE_C5, EXACT_TIE, CAPPED_TIED_TAIL])
def test_the_scan_finishes_on_a_budget_of_exactly_its_points(monkeypatch, params):
    # GRID_BUDGET bounds the points of all the scan's cost evaluations
    # together: a budget of exactly that many lets it finish, one fewer
    # stops it before the evaluation that would pass the budget.
    sizes = []

    def counting_pieces(p, ages):
        sizes.append(np.size(ages))
        return cost_pieces(p, ages)

    monkeypatch.setattr(oracle, "cost_pieces", counting_pieces)
    indices, values, least = oracle._scan(params)
    calls = sizes.copy()
    assert len(calls) > 2 and sum(calls) == indices.size
    monkeypatch.setattr(oracle, "GRID_BUDGET", indices.size)
    again = oracle._scan(params)
    assert np.array_equal(again[0], indices) and np.array_equal(again[1], values) and again[2] == least
    monkeypatch.setattr(oracle, "GRID_BUDGET", indices.size - 1)
    sizes.clear()
    with pytest.raises(oracle.ScanGaveUp):
        oracle._scan(params)
    assert sizes == calls[:-1]


def test_zoom_refines_each_bracket_as_if_it_were_alone():
    # One batched zoom narrows each bracket by its own values only, whatever
    # the other brackets are, however wide, and however many levels they
    # take to close.  The brackets are left as they were passed.
    interior = economic_life(EXACT_TIE).minimizers.values[1]
    lo = np.array([0.0, interior - 1e-3, 1.0, 7.5, 0.5 * interior, 3e5])
    hi = np.array([1e-3, interior + 1e-3, 1e3, 7.5, 2.0 * interior, 1e300])
    given = (lo.copy(), hi.copy())
    together = oracle._zoom(EXACT_TIE, lo, hi)
    assert np.array_equal(lo, given[0]) and np.array_equal(hi, given[1])
    alone = [oracle._zoom(EXACT_TIE, lo[k : k + 1], hi[k : k + 1]) for k in range(lo.size)]
    assert together[0].tobytes() == np.concatenate([ages for ages, _ in alone]).tobytes()
    assert together[1].tobytes() == np.concatenate([values for _, values in alone]).tobytes()


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
    assert check_against_search(INSTANCE_C4_3, result).startswith("verification inconclusive: ")
    wrong_cost = dataclasses.replace(result, min_cost=result.min_cost * 1.001)
    assert check_against_search(INSTANCE_C4_3, wrong_cost).startswith("min cost mismatch")


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
    # is the grid's own value there, so no zoom starts from it, nor reaches
    # it from the index before.
    zoom = oracle._zoom
    brackets = []

    def recording(params, lo, hi):
        brackets.extend(zip(lo.tolist(), hi.tolist()))
        return zoom(params, lo, hi)

    monkeypatch.setattr(oracle, "_zoom", recording)
    far = AssetParams(1.4504029835243377e+30, 8.614985459036953e-58, 5520073410997.727, 3.0231032535690386e-06)
    assert brute_force_minimize(far).argmin_points == (math.inf,)
    for p in (INSTANCE_C1, INSTANCE_C5, CAPPED_TIED_TAIL, AssetParams(1e6, 1.0, 1.0, 1.0)):
        brute_force_minimize(p)
    last_finite = oracle._ages(np.array(oracle._LAST - 1))
    assert brackets and all(lo < last_finite and hi <= last_finite for lo, hi in brackets)
