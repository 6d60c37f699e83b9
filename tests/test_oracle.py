import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    INSTANCE_C1,
    INSTANCE_C4_1,
    INSTANCE_C4_3,
    INSTANCE_C5,
    INSTANCE_FLAT,
    draw_params,
)
from econlife import (
    AssetParams,
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


def _scan_horizon(params):
    horizon = max(2.0 * params.junction, 10.0)
    result = economic_life(params)
    if result.interior_minimum_age is not None:
        horizon = max(horizon, 1.5 * result.interior_minimum_age)
    return horizon


def test_scan_finds_boundary_minimum():
    report = brute_force_minimize(INSTANCE_C1, _scan_horizon(INSTANCE_C1), 1e-3)
    assert report.argmin_points == (0.0,)
    assert report.plateau is None
    assert report.min_value == pytest.approx(property_cost(INSTANCE_C1, 0.0), rel=1e-12)


@pytest.mark.parametrize("params", [INSTANCE_C4_3, INSTANCE_C5])
def test_scan_finds_interior_minimum(params):
    report = brute_force_minimize(params, _scan_horizon(params), 1e-3)
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
    report = brute_force_minimize(p, _scan_horizon(p), 1e-3)
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
    report = brute_force_minimize(p, _scan_horizon(p), 1e-3)
    assert report.plateau is None
    assert len(report.argmin_points) == 1
    assert abs(report.argmin_points[0] - result.interior_minimum_age) <= 1e-6


def test_scan_validation():
    with pytest.raises(ValueError):
        brute_force_minimize(INSTANCE_C1, _scan_horizon(INSTANCE_C1), 0.0)
    with pytest.raises(ValueError, match="horizon"):
        brute_force_minimize(INSTANCE_C1, 3.0, 1e-3)


def test_refined_value_not_above_grid():
    params = INSTANCE_C4_3
    step = 1e-3
    horizon = _scan_horizon(params)
    report = brute_force_minimize(params, horizon, step)
    ages = np.arange(int(horizon / step) + 1, dtype=float) * step
    assert report.min_value <= property_cost(params, ages).min()


def test_scan_is_deterministic():
    first = brute_force_minimize(INSTANCE_C5, _scan_horizon(INSTANCE_C5), 1e-3)
    second = brute_force_minimize(INSTANCE_C5, _scan_horizon(INSTANCE_C5), 1e-3)
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
    report = brute_force_minimize(tie, _scan_horizon(tie), 1e-3)
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


# Interior optimum at rate * age ~ 1e4, far past the scan cap of 686 years:
# beyond rate * age ~ 33 the cost is flat to within the tie tolerance, so the
# whole tail of the grid ties its minimum.
CAPPED_TIED_TAIL = AssetParams(1e4, 1.0, 1e3, 1.0)


EXACT_TIE = AssetParams(acquisition_threshold(INSTANCE_C4_1), 5.0, 20.0, 0.1)


@pytest.mark.parametrize(
    "params, t_max, step",
    [
        (INSTANCE_C1, _scan_horizon(INSTANCE_C1), 1e-3),
        (INSTANCE_C4_3, _scan_horizon(INSTANCE_C4_3), 1e-3),
        (AssetParams(100.0, 1.6, 2.0, 0.8), 100.0, 1e-2),
        (EXACT_TIE, _scan_horizon(EXACT_TIE), 1e-3),
        (CAPPED_TIED_TAIL, 686.0, 5e-2),
    ],
    ids=["C1", "C4_3", "plateau", "exact_tie", "capped_tied_tail"],
)
def test_scan_is_chunk_invariant(monkeypatch, params, t_max, step):
    # Between them these grids hold chunks wholly above the tie threshold,
    # wholly at or below it (the plateau and the tied tail) and across it,
    # the three cases _tied_runs settles differently.
    n = int(math.floor(t_max / step + 1e-9))
    values = property_cost(params, np.arange(n + 1, dtype=float) * step)
    h_min = float(values.min())
    threshold = h_min + oracle.TIE_RTOL * abs(h_min)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], values <= threshold, [0])).astype(np.int8)))
    whole_grid_runs = list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))

    reports = []
    for chunk in (7, 64, oracle._CHUNK):
        h, _, _, _, chunks = oracle._grid_scan(params, n, step, chunk)
        assert h == h_min
        assert oracle._tied_runs(params, step, chunks, threshold) == whole_grid_runs
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        reports.append(brute_force_minimize(params, t_max, step))
    assert reports[0] == reports[1] == reports[2]
