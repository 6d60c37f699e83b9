"""Acceptance suite: every numbered criterion checked at its stated tolerance.

Each test prints one ``criterion NN PASS/FAIL`` line (visible with ``-s`` or
``-rP``).  Randomized criteria use fixed seeds; the whole module is meant to
finish in a few minutes on a desktop.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import draw_params, integrate_discounted_maintenance
from econlife import (
    AssetParams,
    CaseLabel,
    acquisition_threshold,
    capital_cost,
    check_against_search,
    classify,
    economic_life,
    effective_rate,
    capital_recovery,
    future_value_of_annuity,
    gap,
    interior_minimum_age,
    present_value,
    property_cost,
    property_cost_derivative,
    slope_threshold,
    w0,
    w0_series,
)
from econlife.cli import main as cli_main
from econlife.lambert_w import BRANCH_POINT


@contextmanager
def criterion(number: int, description: str):
    failed = True
    try:
        yield
        failed = False
    finally:
        status = "FAIL" if failed else "PASS"
        print(f"criterion {number:02d} {status} - {description}")


def test_criterion_01_lambert_w_residual_and_series():
    with criterion(1, "Lambert W residual <= 1e-12 and series agreement <= 1e-10"):
        offsets = np.logspace(-9.0, math.log10(1e6 - BRANCH_POINT), 200)
        for z in BRANCH_POINT + offsets:
            w = w0(float(z))
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))
        for z in np.linspace(-0.3, 0.3, 61):
            z = float(z)
            assert abs(w0_series(z, 250) - w0(z)) <= 1e-10


def test_criterion_02_interior_age_gap_identity():
    with criterion(2, "gap(scaled interior age) reproduces the cost ratio <= 1e-10"):
        slope, rate = 5.0, 0.1
        for u in (1e-6, 1e-3, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
            params = AssetParams(u * slope / rate**2, slope, 1.0, rate)
            tau = rate * interior_minimum_age(params)
            assert abs(gap(tau) - u) <= 1e-10 * max(1.0, u)


def test_criterion_03_closed_form_equals_definition():
    with criterion(3, "piecewise cost equals capital + quadrature maintenance <= 1e-8"):
        rng = np.random.default_rng(333)
        for _ in range(200):
            p = draw_params(rng)
            horizon = min(2.5 * p.junction + 5.0, 650.0 / p.interest_rate)
            ages = rng.uniform(0.0, horizon, 60)
            ages = ages[np.abs(ages - p.junction) > 1e-6][:50]
            r = p.interest_rate
            for t in ages:
                t = float(t)
                h = property_cost(p, t)
                g = capital_cost(p, t)
                if t == 0.0:
                    f = 0.0
                else:
                    integral = integrate_discounted_maintenance(p, t)
                    f = math.expm1(r) * math.exp(r * t) * integral / math.expm1(r * t)
                assert abs(h - (g + f)) <= 1e-8 * abs(h)


def test_criterion_04_junction_continuity():
    with criterion(4, "cost continuous at the full-depreciation age <= 1e-5"):
        rng = np.random.default_rng(444)
        for _ in range(200):
            p = draw_params(rng)
            j = p.junction
            mid = property_cost(p, j)
            assert abs(property_cost(p, j - 1e-8) - property_cost(p, j + 1e-8)) <= 1e-5 * abs(mid)


def test_criterion_05_derivative_matches_finite_differences():
    with criterion(5, "derivative matches central differences <= 1e-5, both branches"):
        rng = np.random.default_rng(555)
        instances = 0
        while instances < 30:
            p = draw_params(rng)
            speed = p.depreciation_rate * p.interest_rate
            if abs(p.maint_slope - speed) < 1e-3 * speed:
                continue  # the first branch is then near-flat and below FD resolution
            instances += 1
            j = p.junction
            horizon = min(2.5 * j + 5.0, 300.0 / p.interest_rate)
            candidates = np.concatenate(
                [np.linspace(0.02 * j, 0.98 * j, 200), np.linspace(1.02 * j + 1e-3, horizon, 200)]
            )
            points = []
            for t in candidates:
                t = float(t)
                if t <= 2e-6:
                    continue
                d = property_cost_derivative(p, t)
                # central differences resolve the slope only where it clears
                # the rounding floor eps*h/delta ~ 2e-10 h
                if abs(d) >= 1e-4 * abs(property_cost(p, t)):
                    points.append((t, d))
            points = points[:: max(1, len(points) // 20)][:20]
            assert len(points) >= 10
            for t, d in points:
                delta = 1e-6
                fd = (property_cost(p, t + delta) - property_cost(p, t - delta)) / (2.0 * delta)
                assert abs(fd - d) <= 1e-5 * abs(d)


def test_criterion_06_first_branch_trichotomy():
    with criterion(6, "slope sign below the junction matches sign(slope - b*r); flat case constant"):
        rng = np.random.default_rng(666)
        for _ in range(200):
            p = draw_params(rng)
            speed = p.depreciation_rate * p.interest_rate
            for u in rng.uniform(1e-6, 1.0 - 1e-9, 10):
                d = property_cost_derivative(p, float(u) * p.junction)
                if p.maint_slope > speed:
                    assert d > 0.0
                elif p.maint_slope < speed:
                    assert d < 0.0
                else:
                    assert d == 0.0
        for _ in range(20):
            b = 10.0 ** rng.uniform(-2, 3)
            r = rng.uniform(0.01, 1.0)
            dep_age = rng.uniform(0.1, 50.0)
            p = AssetParams(b * dep_age, b * r, b, r)
            ages = np.linspace(1e-9, p.junction * (1 - 1e-9), 200)
            values = property_cost(p, ages)
            assert (values.max() - values.min()) <= 1e-12 * values.mean()
            assert property_cost_derivative(p, float(p.junction) * 0.5) == 0.0


def test_criterion_07_classifier_agrees_with_search():
    with criterion(7, "closed-form minimizers reproduced by grid search on 1000 instances"):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            p = draw_params(rng)
            result = economic_life(p)
            discrepancy = check_against_search(p, result)
            assert discrepancy is None, f"{p}: {discrepancy}"


def test_criterion_08_tie_threshold_boundary():
    with criterion(8, "acquisition at threshold ties both optima; +/-1% flips the argmin"):
        rng = np.random.default_rng(888)
        built = 0
        while built < 20:
            slope = 10.0 ** rng.uniform(-2, 3)
            b = 10.0 ** rng.uniform(-2, 3)
            r = rng.uniform(0.01, 1.0)
            if slope <= b * r * 1.001:
                continue
            threshold = acquisition_threshold(AssetParams(1.0, slope, b, r))
            if not (1.0 <= threshold <= 1e4):
                continue
            boundary = AssetParams(threshold, slope, b, r)
            if classify(boundary) is not CaseLabel.C4_2:
                continue
            built += 1
            h0 = property_cost(boundary, 0.0)
            h_star = property_cost(boundary, interior_minimum_age(boundary))
            assert abs(h0 - h_star) <= 1e-9 * h0
            up = economic_life(AssetParams(threshold * 1.01, slope, b, r))
            assert up.case is CaseLabel.C4_1 and up.minimizers.values == (0.0,)
            assert up.min_cost < property_cost(
                AssetParams(threshold * 1.01, slope, b, r), up.interior_minimum_age
            )
            down = economic_life(AssetParams(threshold * 0.99, slope, b, r))
            assert down.case is CaseLabel.C4_3 and down.minimizers.values[0] > 0.0
            assert down.min_cost < property_cost(AssetParams(threshold * 0.99, slope, b, r), 0.0)


def test_criterion_09_flat_and_decreasing_regimes_unreachable():
    with criterion(9, "slope threshold always exceeds depreciation speed on 1e5 samples"):
        rng = np.random.default_rng(999)
        acquisition = rng.uniform(1.0, 1e4, 100_000)
        dep_age = rng.uniform(0.1, 50.0, 100_000)
        rate = rng.uniform(0.01, 1.0, 100_000)
        b = acquisition / dep_age
        # threshold / (b r) = x / gap(x) with x = rate * dep_age, and
        # x - gap(x) = 1 - e^(-x) > 0 for x > 0, so the ratio exceeds 1:
        # the flat (C2) and decreasing (C3) regimes require slope >= threshold
        # while slope <= b r, which is impossible.
        x = rate * dep_age
        threshold = acquisition * rate**2 / np.array([gap(v) for v in x.tolist()])
        assert np.all(threshold > b * rate)
        for _ in range(200):
            p = draw_params(rng)
            assert slope_threshold(p) > p.depreciation_rate * p.interest_rate
            assert classify(p) not in (CaseLabel.C2, CaseLabel.C3)


def test_criterion_10_cash_flow_equivalences():
    with criterion(10, "rate conversions, round trips and the geometric-sum identity"):
        for r in (0.01, 0.1, 0.5, 1.0):
            assert abs(effective_rate(r, 10**6) - math.expm1(r)) <= 1e-5
        rng = np.random.default_rng(1010)
        for _ in range(500):
            present = rng.uniform(0.01, 1e6)
            rate = rng.uniform(1e-3, 1.0)
            periods = int(rng.integers(1, 361))
            annuity = capital_recovery(present, rate, periods)
            assert abs(present_value(annuity, rate, periods) - present) <= 1e-12 * present
        for _ in range(500):
            annuity = rng.uniform(0.01, 1e4)
            rate = rng.uniform(1e-3, 1.0)
            periods = int(rng.integers(1, 31))
            fv = future_value_of_annuity(annuity, rate, periods)
            rhs = annuity * ((1.0 + rate) ** periods - 1.0)
            assert abs(rate * fv - rhs) <= 1e-12 * abs(rhs)


CLASSIFY_GOLDEN = """\
case: C4_3
minimizers: t = 4.2854134374
min annual cost: 22.5350432772
interior minimum age: 4.2854134374
cost ratio: 0.08
slope threshold: 21.3552545557
acquisition threshold: 55.412811883
"""

FLEET_GOLDEN = """\
id,case,econ_life_lo,econ_life_hi,secondary_minimizer,min_annual_cost,error
m1,C1,0,0,,31.5512754227,
m2,C4_3,4.2854134374,4.2854134374,,22.5350432772,
bad,,,,,,depreciation_rate must be > 0
m3,C5,18.4140566044,18.4140566044,,19.3662323858,
"""

FLEET_INPUT = """\
id,acquisition_cost,maint_slope,depreciation_rate,interest_rate
m1,100,10,20,0.1
m2,40,5,20,0.1
bad,100,5,0,0.1
m3,100,1,20,0.1
"""


def test_criterion_11_cli_determinism_and_schema(tmp_path, capsys):
    with criterion(11, "CLI golden outputs, determinism and per-row error isolation"):
        flags = ["--acquisition", "40", "--maint-slope", "5", "--depreciation", "20", "--rate", "0.1"]
        assert cli_main(["classify", *flags]) == 0
        first = capsys.readouterr().out
        assert first == CLASSIFY_GOLDEN
        assert cli_main(["classify", *flags]) == 0
        assert capsys.readouterr().out == first

        assert cli_main(["curve", *flags]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,capital_cost,maintenance_cost,property_cost"
        assert len(lines) == 502
        for line in lines[1:]:
            t, g, f, h = map(float, line.split(","))
            assert h == pytest.approx(g + f, rel=1e-11)

        fleet = tmp_path / "fleet.csv"
        fleet.write_text(FLEET_INPUT, encoding="utf-8")
        assert cli_main(["fleet", "--input", str(fleet)]) == 0
        assert capsys.readouterr().out == FLEET_GOLDEN

        assert cli_main(["finance", "effective-rate", "--nominal", "0.1", "--periods", "1"]) == 0
        assert capsys.readouterr().out == "0.1\n"
        assert cli_main(["finance", "capital-recovery", "--present", "100", "--rate", "0.1", "--periods", "1"]) == 0
        assert capsys.readouterr().out == "110\n"


def test_criterion_12_cost_curve_shape(capsys):
    with criterion(12, "curve of an interior-optimum instance: maintenance up, cost dips once"):
        flags = ["--acquisition", "100", "--maint-slope", "1", "--depreciation", "20", "--rate", "0.1"]
        assert cli_main(["classify", *flags, "--format", "json"]) == 0
        capsys.readouterr()
        assert cli_main(["curve", *flags]) == 0
        out = capsys.readouterr().out
        rows = [list(map(float, line.split(","))) for line in out.strip().splitlines()[1:]]
        maintenance_col = [row[2] for row in rows]
        assert all(b >= a for a, b in zip(maintenance_col, maintenance_col[1:]))
        total = [row[3] for row in rows]
        best = min(range(len(total)), key=total.__getitem__)
        optimum = economic_life(AssetParams(100.0, 1.0, 20.0, 0.1))
        step = rows[1][0] - rows[0][0]
        assert abs(rows[best][0] - optimum.minimizers.values[0]) <= step
        # strictly falling to the dip, strictly rising past it (the straddling
        # pair is excluded: the grid cannot order values across the vertex)
        for i in range(0, best - 2):
            assert total[i + 1] < total[i]
        for i in range(best + 2, len(total) - 1):
            assert total[i + 1] > total[i]
