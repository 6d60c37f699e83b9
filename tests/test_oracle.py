import dataclasses
import math
import time

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


def test_polish_undoes_a_fit_that_climbs_from_age_zero():
    # The optimum lies at 8.7e-8 y, past a full-depreciation age of 1.8e-10 y.
    # The first parabola fit spans age 0, where the cost is 250 times higher,
    # and its vertex lies uphill; keeping it lost the optimum.
    # It was reported at 1.18e-7 y, 36% off but inside an absolute 1e-6 y
    # point tolerance; the relative tolerance rejects such a location.
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
    # sharp optima within a grid step of age 0; before the polish undid uphill
    # fits, about one in five of these failed verification.
    rng = np.random.default_rng(20261019)
    for _ in range(100):
        p = draw_wide_params(rng)
        assert check_against_search(p, economic_life(p)) is None, p


def test_check_against_search_agrees_past_the_horizon():
    # The optimum lies at 1,000,001 y, past the full-depreciation age of 1e6 y.
    # From about 17 y on the cost ties its limit h(inf), so the scan keeps
    # its tail from there on as a plateau open to infinity.
    p = AssetParams(1e6, 1.0, 1.0, 1.0)
    assert check_against_search(p, economic_life(p)) is None


def test_check_against_search_is_inconclusive_over_the_grid_budget():
    # The optimum lies at 1.01e7 y and the cost reaches its limit only at
    # about 4.3e6 y.  Across that flat stretch the cost's two pieces cancel,
    # so their bounds settle few cells of the 1e-3 y grid: the scan would
    # evaluate more points than the budget allows, and the check gives up as
    # soon as a level of the scan would pass it.
    p = AssetParams(1.0, 1e-12, 1.0, 1e-5)
    start = time.perf_counter()
    verdict = check_against_search(p, economic_life(p))
    assert time.perf_counter() - start < 1.0
    assert verdict.startswith("verification inconclusive: ")


def test_check_against_search_work_is_bounded_past_the_horizon(monkeypatch):
    # Optima past rate * age = 686: a scan cut at 686 / rate would exceed
    # the bound several times over; the scan whose tail starts at the flat
    # age stays within it.
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
    "params, t_max, step, tied_tail",
    [
        (INSTANCE_C1, 10.0, 1e-3, False),
        (INSTANCE_C4_3, 10.0, 1e-3, False),
        (AssetParams(100.0, 1.6, 2.0, 0.8), 100.0, 1e-2, True),
        (EXACT_TIE, 10.0, 1e-3, False),
        (CAPPED_TIED_TAIL, 686.0, 5e-2, True),
        (INSTANCE_C5, 10.0, 1e-2, False),
    ],
    ids=["C1", "C4_3", "plateau", "exact_tie", "capped_tied_tail", "C5_in_the_tail"],
)
def test_scan_is_chunk_invariant(monkeypatch, params, t_max, step, tied_tail):
    # Between them these grids hold cells wholly above the tie threshold,
    # wholly at or below it (the plateau and the tied tail) and across it,
    # the three cases the scan settles differently; C5's optimum at 18.4 y
    # lies in the tail [10 y, inf), which the scan must cut.  However finely
    # it splits its cells, it finds the grid minimum and the tied runs of the
    # whole grid up to its last evaluated index, where the tail starts,
    # evaluates no point twice, and keeps or drops the tail alike.
    n = int(math.floor(t_max / step + 1e-9))
    reports = []
    for split in (2, 7, oracle._SPLIT):
        monkeypatch.setattr(oracle, "_SPLIT", split)
        indices, scanned, h_min, kept = oracle._scan(params, n, step)
        values = property_cost(params, np.arange(indices[-1] + 1, dtype=float) * step)
        assert h_min == min(values.min(), property_cost(params, math.inf))
        threshold = h_min + oracle.TIE_RTOL * abs(h_min)
        edges = np.flatnonzero(np.diff(np.concatenate(([0], values <= threshold, [0])).astype(np.int8)))
        whole_grid_runs = list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))
        assert np.array_equal(indices, np.unique(indices))
        assert np.array_equal(scanned, values[indices])
        assert scanned.min() == values.min()
        assert oracle._tied_runs(indices, scanned <= threshold) == whole_grid_runs
        assert kept == tied_tail
        reports.append(brute_force_minimize(params))
        assert (reports[-1].plateau is not None and reports[-1].plateau[1] == math.inf) == tied_tail
    assert len({(report.plateau, report.min_value) for report in reports}) == 1
    if reports[0].plateau is None:
        assert reports[0].argmin_points == reports[1].argmin_points == reports[2].argmin_points
    else:  # any tied point may stand for a plateau that holds every refined basin
        assert all(reports[0].plateau[0] <= report.argmin_points[0] <= reports[0].plateau[1] for report in reports)


def test_search_verifies_a_row_whose_grid_holds_ten_billion_points():
    # The flat age lies at about 2.35e7 y, so the 1e-3 y grid to it holds
    # 2.35e10 points, yet the cost bounds settle almost all of them unevaluated.
    p = AssetParams(97190.81438747907, 3.6293333163775402e-06, 2.3092237057599535e-06, 1.322188696851144e-06)
    assert check_against_search(p, economic_life(p)) is None


def test_check_against_search_does_not_read_the_interior_age():
    # The claim's interior age once sized the scan: without it the scan
    # stopped at 10 y, short of the optimum at 18.4 y, and reported a
    # "min cost mismatch" against a correct claim.
    result = economic_life(INSTANCE_C5)
    assert check_against_search(INSTANCE_C5, dataclasses.replace(result, interior_minimum_age=None)) is None


def test_search_verifies_a_row_whose_horizon_passes_2_62_grid_points():
    # The full-depreciation age is about 1e59 y and the flat age 2.3e19 y, so
    # a scan to either would need more than 2^62 grid points; the tail from
    # 7.2e13 y on lies far above the minimum at age 0 and is dropped.
    p = AssetParams(1.079585349272943e-40, 5.136757683947801e+74, 1.1299543882839842e-99, 1.3269111341329422e-18)
    assert check_against_search(p, economic_life(p)) is None


def test_a_known_wrong_cost_stays_a_mismatch_past_2_62_grid_points():
    # The closed form calls this C1 at cost 2.7e-157, but the cost falls far
    # below that past the full-depreciation age of 1.2e-20 y (a known wrong
    # answer).  The scan gives up at 2^62 grid points, yet it has evaluated
    # costs that undercut the claim, so the check names the mismatch.
    p = AssetParams(3.272942103383382e-177, 4.127341197816655e-234, 2.7033611022228657e-157, 2.5684623474568874e-233)
    assert check_against_search(p, economic_life(p)).startswith("min cost mismatch")


def test_a_scan_that_gives_up_still_refutes_a_cost_it_undercuts(monkeypatch):
    # Under a budget too small to finish, a correct claim is inconclusive and
    # a claim the evaluated costs undercut is a mismatch.
    monkeypatch.setattr(oracle, "GRID_BUDGET", 200)
    result = economic_life(INSTANCE_C4_3)
    assert check_against_search(INSTANCE_C4_3, result).startswith("verification inconclusive: ")
    wrong_cost = dataclasses.replace(result, min_cost=result.min_cost * 1.001)
    assert check_against_search(INSTANCE_C4_3, wrong_cost).startswith("min cost mismatch")


def test_a_tail_whose_costs_lie_far_below_the_grid_is_never_kept():
    # The optimum lies at 1.3e67 y and costs 1.0e4, while every cost on the
    # grid short of 2^62 points lies above 1e12.  The tail's upper bound
    # exceeds h(inf) only by its capital piece, so were h(inf) left out of the
    # least value, the tail would tie the grid's minimum and be kept
    # unevaluated, and the check would report a false "min cost mismatch".
    p = AssetParams(1.7612545252373111e28, 7.746909620965645e-64, 7.923062032020201e51, 5.875792517486833e-25)
    assert check_against_search(p, economic_life(p)).startswith("verification inconclusive: ")


def test_an_open_plateau_agrees_with_an_interval_that_ends_in_the_tail():
    # The C2 interval [0, 5.2e18 y] ends at the junction.  From the first cut
    # at 10 y on the cost ties its minimum, so the scan keeps the tail
    # unevaluated and reports the plateau [0, inf): it cannot tell where in
    # the tail the interval ends, but the ages it did evaluate pin the start.
    p = AssetParams(7771.686176112378, 2.371737727930388e-16, 1.5080063814474131e-15, 0.15727637211017295)
    result = economic_life(p)
    report = brute_force_minimize(p)
    assert report.plateau == (0.0, math.inf) and report.tail_start == 10.0
    assert check_against_search(p, result) is None
    short = dataclasses.replace(result, minimizers=MinimizerSet("interval", (0.0, 5.0)))
    assert check_against_search(p, short).startswith("plateau mismatch")
