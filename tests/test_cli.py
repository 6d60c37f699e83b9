import csv
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import econlife
from conftest import draw_params
from econlife.cli import _build_parser, main
from econlife.errors import NumericError

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

C4_3_FLAGS = ["--acquisition", "40", "--maint-slope", "5", "--depreciation", "20", "--rate", "0.1"]
C1_FLAGS = ["--acquisition", "100", "--maint-slope", "10", "--depreciation", "20", "--rate", "0.1"]

CLASSIFY_C4_3_TEXT = """\
case: C4_3
minimizers: t = 4.2854134374
min annual cost: 22.5350432772
interior minimum age: 4.2854134374
cost ratio: 0.08
slope threshold: 21.3552545557
acquisition threshold: 55.412811883
"""

CLASSIFY_C1_CSV = """\
case,econ_life_lo,econ_life_hi,secondary_minimizer,min_annual_cost,interior_minimum_age,cost_ratio,slope_threshold,acquisition_threshold
C1,0,0,,31.5512754227,,0.1,9.38696899745,23.1435513142
"""

# The tie case C4_2 (acquisition pinned to the tie threshold) and the interval
# case C2 (slope threshold rounded onto depreciation * rate), the two
# minimizer kinds besides a single point.
C4_2_FLAGS = ["--acquisition", "55.41281188299534", "--maint-slope", "5", "--depreciation", "20", "--rate", "0.1"]
C2_FLAGS = [
    "--acquisition", "7771.686176112378", "--maint-slope", "2.371737727930388e-16",
    "--depreciation", "1.5080063814474131e-15", "--rate", "0.15727637211017295",
]

CLASSIFY_GOLDENS = {
    ("C4_2", "text"): """\
case: C4_2
minimizers: t = 0 and t = 5.10825623766
min annual cost: 26.861999914
interior minimum age: 5.10825623766
cost ratio: 0.110825623766
slope threshold: 15.8006318075
acquisition threshold: 55.412811883
""",
    ("C4_2", "json"): """\
{
  "case": "C4_2",
  "econ_life_lo": 0.0,
  "econ_life_hi": 0.0,
  "secondary_minimizer": 5.10825623766,
  "min_annual_cost": 26.861999914,
  "interior_minimum_age": 5.10825623766,
  "cost_ratio": 0.110825623766,
  "slope_threshold": 15.8006318075,
  "acquisition_threshold": 55.412811883
}
""",
    ("C4_2", "csv"): """\
case,econ_life_lo,econ_life_hi,secondary_minimizer,min_annual_cost,interior_minimum_age,cost_ratio,slope_threshold,acquisition_threshold
C4_2,0,0,5.10825623766,26.861999914,5.10825623766,0.110825623766,15.8006318075,55.412811883
""",
    ("C2", "text"): """\
case: C2
minimizers: all t in [0, 5.15361623911e+18]
min annual cost: 1323.66591688
interior minimum age: -
cost ratio: 8.10542065336e+17
slope threshold: 2.37173772793e-16
acquisition threshold: -
""",
    ("C2", "json"): """\
{
  "case": "C2",
  "econ_life_lo": 0.0,
  "econ_life_hi": 5.15361623911e+18,
  "secondary_minimizer": null,
  "min_annual_cost": 1323.66591688,
  "interior_minimum_age": null,
  "cost_ratio": 8.10542065336e+17,
  "slope_threshold": 2.37173772793e-16,
  "acquisition_threshold": null
}
""",
    ("C2", "csv"): """\
case,econ_life_lo,econ_life_hi,secondary_minimizer,min_annual_cost,interior_minimum_age,cost_ratio,slope_threshold,acquisition_threshold
C2,0,5.15361623911e+18,,1323.66591688,,8.10542065336e+17,2.37173772793e-16,
""",
}

CURVE_SMALL = """\
t,capital_cost,maintenance_cost,property_cost
0,25.2410203382,0,25.2410203382
2.5,19.0183165268,6.29958465106,25.3179011779
5,10.6916506378,12.0553720707,22.7470227084
7.5,7.97302889891,17.2774073889,25.2504362878
10,6.65511770543,21.9819467578,28.6370644632
"""

# rate * age 250 to 1000: each cost has reached its asymptote to 12 digits.
CURVE_FAR = """\
t,capital_cost,maintenance_cost,property_cost
0,31.5512754227,0,31.5512754227
2500,10.5170918076,105.170918076,115.688009883
5000,10.5170918076,105.170918076,115.688009883
7500,10.5170918076,105.170918076,115.688009883
10000,10.5170918076,105.170918076,115.688009883
"""

FLEET_INPUT = """\
id,acquisition_cost,maint_slope,depreciation_rate,interest_rate
m1,100,10,20,0.1
m2,40,5,20,0.1
bad,100,5,0,0.1
m3,100,1,20,0.1
"""

FLEET_OUTPUT = """\
id,case,econ_life_lo,econ_life_hi,secondary_minimizer,min_annual_cost,error
m1,C1,0,0,,31.5512754227,
m2,C4_3,4.2854134374,4.2854134374,,22.5350432772,
bad,,,,,,depreciation_rate must be > 0
m3,C5,18.4140566044,18.4140566044,,19.3662323858,
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env():
    """The environment for running the CLI in a subprocess from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_classify_text_golden(capsys):
    code, out, err = run_cli(capsys, "classify", *C4_3_FLAGS)
    assert code == 0 and err == ""
    assert out == CLASSIFY_C4_3_TEXT


def test_classify_json_golden(capsys):
    code, out, _ = run_cli(capsys, "classify", *C1_FLAGS, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "case": "C1",
        "econ_life_lo": 0.0,
        "econ_life_hi": 0.0,
        "secondary_minimizer": None,
        "min_annual_cost": 31.5512754227,
        "interior_minimum_age": None,
        "cost_ratio": 0.1,
        "slope_threshold": 9.38696899745,
        "acquisition_threshold": 23.1435513142,
    }


def test_classify_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "classify", *C1_FLAGS, "--format", "csv")
    assert code == 0
    assert out == CLASSIFY_C1_CSV


@pytest.mark.parametrize("case, fmt", sorted(CLASSIFY_GOLDENS))
def test_classify_tie_and_interval_goldens(capsys, case, fmt):
    flags = C4_2_FLAGS if case == "C4_2" else C2_FLAGS
    code, out, err = run_cli(capsys, "classify", *flags, "--format", fmt)
    assert code == 0 and err == ""
    assert out == CLASSIFY_GOLDENS[case, fmt]


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "argv, field",
    [
        (["classify", "--acquisition", "4.047588322328179e+259", "--maint-slope", "3.57842399108513e-88",
          "--depreciation", "3.0693584168295437e+119", "--rate", "1.0223713365911213e-207"],
         "acquisition_threshold"),
        (["finance", "future-value", "--annuity", "1e308", "--rate", "1", "--periods", "10"], "value"),
    ],
    ids=["overflowing_tie_threshold", "overflowing_future_value"],
)
def test_json_keeps_a_non_finite_number_as_its_text(capsys, argv, field):
    # json.loads accepts Infinity and NaN; strict JSON has neither
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out, parse_constant=_no_constant)[field] == "inf"


def test_classify_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "classify", *C4_3_FLAGS)
    _, second, _ = run_cli(capsys, "classify", *C4_3_FLAGS)
    assert first == second


def test_classify_missing_flag_exits_1(capsys):
    code, out, err = run_cli(capsys, "classify", "--acquisition", "40")
    assert code == 1
    assert out == ""
    assert "usage" in err and "--maint-slope" in err


def test_usage_errors_are_argparse_reports_with_exit_1(capsys):
    code, out, err = run_cli(capsys, "classify", "--acquisition", "40")
    usage = _build_parser()._subparsers._group_actions[0].choices["classify"].format_usage()
    assert code == 1 and out == ""
    assert err == usage + (
        "econlife classify: error: the following arguments are required: "
        "--maint-slope, --depreciation, --rate\n"
    )
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert len(econlife.__all__) == len(set(econlife.__all__)) == 31


def test_classify_invalid_value_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--acquisition", "-5", "--maint-slope", "5",
        "--depreciation", "20", "--rate", "0.1",
    )
    assert code == 1
    assert "acquisition_cost" in err


def test_classify_vanishing_full_depreciation_age(capsys):
    # gap(rate * junction) underflows to 0 for this asset
    code, out, err = run_cli(
        capsys, "classify", "--acquisition", "1e-200", "--maint-slope", "1",
        "--depreciation", "1", "--rate", "0.5",
    )
    assert code == 0 and err == ""
    assert out.startswith("case: C4_3\nminimizers: t = 1.41421356237e-100\n")


def test_curve_small_golden(capsys):
    code, out, _ = run_cli(capsys, "curve", *C4_3_FLAGS, "--t-max", "10", "--step", "2.5")
    assert code == 0
    assert out == CURVE_SMALL


def test_curve_default_grid(capsys):
    code, out, _ = run_cli(capsys, "curve", *C4_3_FLAGS)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,capital_cost,maintenance_cost,property_cost"
    assert len(lines) == 502  # header + 501 samples
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    for t, g, f, h in rows:
        assert h == pytest.approx(g + f, rel=1e-11)
    # the cheapest row sits within one grid step of the classified optimum
    best = min(rows, key=lambda row: row[3])
    step = rows[1][0] - rows[0][0]
    assert abs(best[0] - 4.2854134374) <= step


def test_curve_rejects_bad_grid(capsys):
    code, _, err = run_cli(capsys, "curve", *C4_3_FLAGS, "--t-max", "1", "--step", "2")
    assert code == 1 and "step" in err


def test_curve_reaches_the_asymptote_past_rate_age_700(capsys):
    code, out, _ = run_cli(capsys, "curve", *C1_FLAGS, "--t-max", "10000", "--step", "2500")
    assert code == 0
    assert out == CURVE_FAR


def test_curve_where_rate_squared_underflows(capsys):
    # r^2 = 1e-400 underflows to 0; the maintenance column used to read nan
    code, out, _ = run_cli(
        capsys, "curve", "--acquisition", "1", "--maint-slope", "10", "--depreciation", "1",
        "--rate", "1e-200", "--t-max", "2", "--step", "1",
    )
    assert code == 0
    assert out == "t,capital_cost,maintenance_cost,property_cost\n0,1,0,1\n1,1,5,6\n2,0.5,10,10.5\n"


def test_curve_default_grid_where_the_cost_ratio_underflows(capsys):
    # A r^2 / a = 1e-401 underflows to 0, yet classify answers C1 at t = 0;
    # the default grid spans twice the full-depreciation age of 1e-200 y
    code, out, _ = run_cli(
        capsys, "curve", "--acquisition", "1e-200", "--maint-slope", "1e201",
        "--depreciation", "1", "--rate", "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 502
    assert lines[1] == "0,1.71828182846,0,1.71828182846"
    assert lines[-1] == "2e-200,0.85914091423,17.1828182846,18.0419591988"


def test_curve_rejects_infinite_horizon(capsys):
    code, _, err = run_cli(capsys, "curve", *C1_FLAGS, "--t-max", "inf", "--step", "1")
    assert code == 1 and "t_max < inf" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["finance", "present-value", "--annuity", "1", "--rate", "1e300", "--periods", "3"],
        ["finance", "capital-recovery", "--present", "1", "--rate", "1e3", "--periods", "200"],
        ["curve", *C4_3_FLAGS, "--t-max", "1e300", "--step", "1e-300"],
        ["finance", "effective-rate", "--nominal", "0.1", "--periods", "1" + "0" * 400],
    ],
)
def test_a_number_past_the_float_range_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "overflows the float range" in err


def test_curve_refuses_a_grid_past_its_point_cap(capsys):
    # 1e18 points: numpy would fail to allocate them with a traceback
    code, out, err = run_cli(capsys, "curve", *C4_3_FLAGS, "--t-max", "1e15", "--step", "1e-3")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "more than 1000000" in err


def test_fleet_golden(tmp_path, capsys):
    path = tmp_path / "fleet.csv"
    path.write_text(FLEET_INPUT, encoding="utf-8")
    code, out, _ = run_cli(capsys, "fleet", "--input", str(path))
    assert code == 0
    assert out == FLEET_OUTPUT


def test_fleet_reads_a_csv_saved_with_a_byte_order_mark(tmp_path, capsys):
    # Spreadsheets save "CSV UTF-8" with a byte-order mark before the header;
    # it once made the header malformed.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(FLEET_INPUT, encoding="utf-8")
    marked.write_text(FLEET_INPUT, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbfid,")
    outputs = [run_cli(capsys, "fleet", "--input", str(path)) for path in (plain, marked)]
    assert outputs[0] == outputs[1] == (0, FLEET_OUTPUT, "")


def test_fleet_verify_golden(capsys):
    # tests/data holds the rows that bench/gen.py's verify_inputs draws for
    # seeds 1-3, each id prefixed by its seed, and their fleet --verify
    # output, in which every row agrees with the search.  A change to the
    # search keeps these bytes.
    code, out, err = run_cli(capsys, "fleet", "--input", str(DATA / "verify_rows.csv"), "--verify")
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "verify_rows.fleet.csv").read_bytes()


def test_fleet_row_with_vanishing_full_depreciation_age(tmp_path, capsys):
    # gap(rate * junction) underflows to 0 for the added row; it still gets a
    # result, and the other rows are unchanged
    path = tmp_path / "fleet.csv"
    path.write_text(FLEET_INPUT + "x,1e-300,1,1,1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "fleet", "--input", str(path))
    assert code == 0
    assert out == FLEET_OUTPUT + "x,C5,1.41421356237e-150,1.41421356237e-150,,2.43001746579e-150,\n"


def test_fleet_row_with_overflowing_cost_ratio(tmp_path, capsys):
    # A r^2 / a = 1e600 leaves the float range; the row's error names the
    # cost ratio, and the other rows are unchanged
    path = tmp_path / "fleet.csv"
    path.write_text(FLEET_INPUT + "big,1e300,1e-300,1,1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "fleet", "--input", str(path))
    assert code == 0
    assert out == FLEET_OUTPUT + (
        "big,,,,,,cost ratio A*r^2/a = acquisition_cost * interest_rate**2 / maint_slope "
        "overflows the float range\n"
    )


def test_fleet_row_with_underflowing_cost_ratio(tmp_path, capsys):
    # r^2 underflows to 0 for the added row; its error names the cost ratio,
    # where it used to stop the run with a ZeroDivisionError
    path = tmp_path / "fleet.csv"
    path.write_text(FLEET_INPUT + "tiny,1,1e-10,1,1e-200\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "fleet", "--input", str(path))
    assert code == 0
    assert out == FLEET_OUTPUT + (
        "tiny,,,,,,cost ratio A*r^2/a = acquisition_cost * interest_rate**2 / maint_slope "
        "underflows to 0\n"
    )


# r * r underflows for this row although its cost ratio is 8.9e31; it used to
# stop the whole run with a ZeroDivisionError from the interior cost.
DEFECT_ROW = (
    "z,4.97543010107662e+280,1.0055933982423786e-171,1.1457703164723914e+103,"
    "1.3366707472685276e-210\n"
)


def test_fleet_row_with_underflowing_rate_squared(tmp_path, capsys):
    path = tmp_path / "fleet.csv"
    path.write_text(FLEET_INPUT + DEFECT_ROW, encoding="utf-8")
    code, out, _ = run_cli(capsys, "fleet", "--input", str(path))
    assert code == 0
    assert out == FLEET_OUTPUT + "z,C5,6.61351982105e+241,6.61351982105e+241,,6.65051187119e+70,\n"


def test_fleet_row_with_overflowing_tie_threshold(tmp_path, capsys):
    # r * r underflows and b / r overflows; the tie threshold, about 4e326,
    # is read as inf, where it used to stop the run with a ZeroDivisionError
    path = tmp_path / "fleet.csv"
    path.write_text(
        FLEET_INPUT + "z,4.047588322328179e+259,3.57842399108513e-88,3.0693584168295437e+119,"
        "1.0223713365911213e-207\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "fleet", "--input", str(path))
    assert code == 0
    assert out == FLEET_OUTPUT + "z,C4_3,4.75627839145e+173,4.75627839145e+173,,1.70199807043e+86,\n"


# Rows of the benchmark's library inputs (l1735 and l3491 of seed 2, l1615 of
# seed 3) whose printed age or cost once missed the correct rounding by one
# digit, through the cancelling residual of gap(tau) = c.  References: 80-digit
# Newton solve of gap(r t) = A r^2 / a, and min cost (e^r - 1) a t / r, which
# the cash-flow definition matches.
ROUNDING_ROWS = [
    ("l1735,967.8036493883741,3410241.408023433,926124.9388626511,0.10052601928147871",
     "0.02383358922413898150816116", "85503.98785725153175926696"),
    ("l3491,8840.44098769626,4397327.068199762,111812871549688.98,0.2569602202319048",
     "0.06358264173974996486087827", "318801.0256012464826201427"),
    ("l1615,7983.564856657001,243959741.13481864,63659312901.92294,0.9801776019842461",
     "0.008100814700365116157623980", "3356896.376645410106842783"),
]


def test_fleet_prints_correctly_rounded_interior_optima(tmp_path, capsys):
    path = tmp_path / "fleet.csv"
    path.write_text(FLEET_INPUT.splitlines()[0] + "\n" + "".join(f"{row}\n" for row, _, _ in ROUNDING_ROWS),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "fleet", "--input", str(path))
    assert code == 0
    printed = list(csv.DictReader(io.StringIO(out)))
    assert len(printed) == len(ROUNDING_ROWS)
    for fields, (_, age, cost) in zip(printed, ROUNDING_ROWS):
        age, cost = (format(Decimal(v), ".12g") for v in (age, cost))
        assert (fields["econ_life_lo"], fields["econ_life_hi"], fields["min_annual_cost"]) == (age, age, cost)


def test_fleet_verify_where_rate_squared_underflows(tmp_path, capsys):
    # The search's cost evaluation divided by r^2 = 0 and stopped the run
    # with a ZeroDivisionError traceback.
    path = tmp_path / "fleet.csv"
    path.write_text(FLEET_INPUT.splitlines(keepends=True)[0] + "c,1,10,1,1e-200\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "fleet", "--input", str(path), "--verify")
    assert code == 0
    assert out.splitlines()[1:] == ["c,C1,0,0,,1,"]


def test_fleet_verify_reaches_an_optimum_far_below_the_grid(tmp_path, capsys):
    # The optimum lies at 1.4e-150 y.  The search's zoom used to stop at a
    # fixed width of 1e-10 y and reported a false "min cost mismatch".
    path = tmp_path / "fleet.csv"
    path.write_text(FLEET_INPUT.splitlines(keepends=True)[0] + "x,1e-300,1,1,1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "fleet", "--input", str(path), "--verify")
    assert code == 0
    assert out.splitlines()[1:] == ["x,C5,1.41421356237e-150,1.41421356237e-150,,2.43001746579e-150,"]


def test_fleet_verify_where_costs_pass_the_float_range_writes_no_warning(tmp_path):
    # numpy wrote two overflow RuntimeWarnings to stderr from the search's costs.
    path = tmp_path / "fleet.csv"
    path.write_text(FLEET_INPUT.splitlines(keepends=True)[0] + "y,1e308,1e308,1e300,1\n", encoding="utf-8")
    argv = [sys.executable, "-m", "econlife.cli", "fleet", "--input", str(path), "--verify"]
    done = subprocess.run(argv, cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[1:] == ["y,C1,0,0,,1.71828184564e+308,"]


def test_fleet_verify_inconclusive_is_not_a_failure(tmp_path, capsys, monkeypatch):
    # under a point budget too small for the search to finish, the row is
    # inconclusive, not failed
    monkeypatch.setattr("econlife.oracle.GRID_BUDGET", 200)
    path = tmp_path / "fleet.csv"
    path.write_text(FLEET_INPUT.splitlines(keepends=True)[0] + "y,1,1e-12,1,1e-5\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "fleet", "--input", str(path), "--verify")
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert row["case"] == ""
    assert row["error"].startswith("verification inconclusive: ")


def test_fleet_verify_failure_fills_the_error_column(tmp_path, capsys, monkeypatch):
    # only the row of m2 disagrees with the search; every other row, the
    # invalid one included, reads as without --verify
    def check(params, result):
        return "fixed discrepancy" if params.acquisition_cost == 40.0 else None

    monkeypatch.setattr("econlife.cli.check_against_search", check)
    path = tmp_path / "fleet.csv"
    path.write_text(FLEET_INPUT, encoding="utf-8")
    code, out, _ = run_cli(capsys, "fleet", "--input", str(path), "--verify")
    assert code == 0
    assert out == FLEET_OUTPUT.replace(
        "m2,C4_3,4.2854134374,4.2854134374,,22.5350432772,\n",
        "m2,,,,,,verification failed: fixed discrepancy\n",
    )


def test_fleet_output_file_and_round_trip(tmp_path, capsys):
    src = tmp_path / "fleet.csv"
    src.write_text(FLEET_INPUT, encoding="utf-8")
    dst = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "fleet", "--input", str(src), "--output", str(dst))
    assert code == 0 and out == ""
    rows = list(csv.DictReader(io.StringIO(dst.read_text(encoding="utf-8"))))
    # re-running classify per clean row reproduces the same serialized values
    by_id = {row["id"]: row for row in rows}
    code, out, _ = run_cli(capsys, "classify", *C4_3_FLAGS, "--format", "csv")
    classify_row = list(csv.DictReader(io.StringIO(out)))[0]
    assert classify_row["econ_life_lo"] == by_id["m2"]["econ_life_lo"]
    assert classify_row["min_annual_cost"] == by_id["m2"]["min_annual_cost"]
    assert by_id["bad"]["error"] == "depreciation_rate must be > 0"
    assert by_id["m1"]["error"] == ""


def test_fleet_duplicate_ids_flagged(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text(
        "id,acquisition_cost,maint_slope,depreciation_rate,interest_rate\n"
        "x,100,10,20,0.1\nx,40,5,20,0.1\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "fleet", "--input", str(path))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["error"] == ""
    assert "duplicate id" in rows[1]["error"]


def test_fleet_boundary_row_has_secondary_minimizer(tmp_path, capsys):
    # acquisition pinned to the tie threshold for slope 5, depreciation 20,
    # rate 0.1; repr round-trips the float, so the equality is exact
    path = tmp_path / "edge.csv"
    path.write_text(
        "id,acquisition_cost,maint_slope,depreciation_rate,interest_rate\n"
        "edge,55.41281188299534,5,20,0.1\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "fleet", "--input", str(path))
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert row["case"] == "C4_2"
    assert row["econ_life_lo"] == "0" and row["econ_life_hi"] == "0"
    assert row["secondary_minimizer"] == "5.10825623766"


def test_fleet_malformed_header_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("id,acq,maint_slope,depreciation_rate,interest_rate\nx,1,1,1,0.5\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "fleet", "--input", str(path))
    assert code == 1 and "malformed header" in err


def test_fleet_unreadable_file_exits_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "fleet", "--input", str(tmp_path / "missing.csv"))
    assert code == 1 and "cannot read" in err


def test_fleet_unwritable_output_exits_1(tmp_path, capsys):
    src, dst = tmp_path / "fleet.csv", tmp_path / "missing" / "out.csv"
    src.write_text(FLEET_INPUT, encoding="utf-8")
    code, out, err = run_cli(capsys, "fleet", "--input", str(src), "--output", str(dst))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {str(dst)!r}: ") and err.count("\n") == 1


def test_fleet_field_count_and_number_errors(tmp_path, capsys):
    # a blank line is a row of no fields; each bad row fills its error column
    path = tmp_path / "fleet.csv"
    path.write_text(
        FLEET_INPUT.splitlines(keepends=True)[0]
        + "f4,1,1,1\nf6,1,1,1,0.5,0\n\nnan,1,x 1,1,0.5\nok,40,5,20,0.1\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "fleet", "--input", str(path))
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == [
        "f4,,,,,,\"expected 5 fields, got 4\"",
        "f6,,,,,,\"expected 5 fields, got 6\"",
        ",,,,,,\"expected 5 fields, got 0\"",
        "nan,,,,,,maint_slope is not a number: 'x 1'",
        "ok,C4_3,4.2854134374,4.2854134374,,22.5350432772,",
    ]


def test_a_numeric_failure_exits_2(capsys, monkeypatch):
    def fail(params):
        raise NumericError("no convergence")

    monkeypatch.setattr("econlife.cli.economic_life", fail)
    code, out, err = run_cli(capsys, "classify", *C4_3_FLAGS)
    assert (code, out, err) == (2, "", "numeric error: no convergence\n")


def test_a_closed_stdout_pipe_exits_0_quietly():
    # as `econlife curve ... | head -1`: the reader leaves after one line,
    # long before the 20,001 rows (about 1 MB) fit in the pipe
    argv = [sys.executable, "-m", "econlife.cli", "curve", *C4_3_FLAGS, "--t-max", "100", "--step", "0.005"]
    with subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first == b"t,capital_cost,maintenance_cost,property_cost\n"
    assert (code, err) == (0, b"")


def test_fleet_verify_clean_on_random_rows(tmp_path, capsys, rng):
    lines = ["id,acquisition_cost,maint_slope,depreciation_rate,interest_rate"]
    for i in range(50):
        p = draw_params(rng)
        lines.append(
            f"asset{i:02d},{p.acquisition_cost!r},{p.maint_slope!r},"
            f"{p.depreciation_rate!r},{p.interest_rate!r}"
        )
    path = tmp_path / "random.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "fleet", "--input", str(path), "--verify")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 50
    assert all(row["error"] == "" for row in rows)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["finance", "effective-rate", "--nominal", "0.1", "--periods", "1"], "0.1"),
        (["finance", "capital-recovery", "--present", "100", "--rate", "0.1", "--periods", "1"], "110"),
        (["finance", "future-value", "--annuity", "100", "--rate", "0.1", "--periods", "2"], "210"),
        (["finance", "present-value", "--annuity", "110", "--rate", "0.1", "--periods", "1"], "100"),
        (["finance", "effective-rate", "--nominal", "0.1", "--periods", "1000000"], "0.10517091255"),
    ],
)
def test_finance_golden(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.strip() == expected


def test_finance_json_and_csv(capsys):
    code, out, _ = run_cli(
        capsys, "finance", "capital-recovery", "--present", "100", "--rate", "0.1",
        "--periods", "1", "--format", "json",
    )
    assert code == 0 and json.loads(out) == {"value": 110.0}
    code, out, _ = run_cli(
        capsys, "finance", "capital-recovery", "--present", "100", "--rate", "0.1",
        "--periods", "1", "--format", "csv",
    )
    assert code == 0 and out == "value\n110\n"


FINANCE_FLAGS = {
    "capital-recovery": ["--present", "100", "--rate", "0.1", "--periods", "3"],
    "present-value": ["--annuity", "110", "--rate", "0.07", "--periods", "5"],
    "future-value": ["--annuity", "100", "--rate", "0.1", "--periods", "2"],
    "effective-rate": ["--nominal", "0.1", "--periods", "12"],
}


@pytest.mark.parametrize(
    "operation, fmt, expected",
    [
        ("capital-recovery", "json", '{"value": 40.2114803625}\n'),
        ("capital-recovery", "csv", "value\n40.2114803625\n"),
        ("present-value", "json", '{"value": 451.021717954}\n'),
        ("present-value", "csv", "value\n451.021717954\n"),
        ("future-value", "json", '{"value": 210.0}\n'),
        ("future-value", "csv", "value\n210\n"),
        ("effective-rate", "json", '{"value": 0.104713067441}\n'),
        ("effective-rate", "csv", "value\n0.104713067441\n"),
    ],
)
def test_finance_json_and_csv_goldens(capsys, operation, fmt, expected):
    code, out, err = run_cli(capsys, "finance", operation, *FINANCE_FLAGS[operation], "--format", fmt)
    assert code == 0 and err == ""
    assert out == expected


@pytest.mark.parametrize("operation", sorted(FINANCE_FLAGS))
def test_finance_missing_flag_exits_1(capsys, operation):
    flags = FINANCE_FLAGS[operation]
    code, out, err = run_cli(capsys, "finance", operation, *flags[2:])
    assert code == 1 and out == ""
    assert "usage" in err and f"required: {flags[0]}" in err


def test_finance_invalid_input_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "finance", "effective-rate", "--nominal", "-1", "--periods", "12"
    )
    assert code == 1 and "nominal" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["capital-recovery", "--present", "100", "--rate", "nan", "--periods", "3"], "rate must be >= 0"),
        (["present-value", "--annuity", "1", "--rate", "nan", "--periods", "3"], "rate must be >= 0"),
        (["future-value", "--annuity", "1", "--rate", "inf", "--periods", "3"], "rate must be finite; got inf"),
        (["effective-rate", "--nominal", "inf", "--periods", "12"], "nominal rate must be finite; got inf"),
    ],
)
def test_finance_refuses_a_non_finite_rate(capsys, argv, message):
    code, out, err = run_cli(capsys, "finance", *argv)
    assert code == 1 and out == "" and err == f"error: {message}\n"
