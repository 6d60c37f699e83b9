"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checker  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from econlife import property_cost  # noqa: E402
from econlife.cli import main as cli_main  # noqa: E402

SMALL = {
    "fleet": lambda seed: gen.fleet_inputs(seed, clean_rows=400),
    "verify": lambda seed: gen.verify_inputs(seed, rows=3, pool_per_row=4),
    "library": lambda seed: gen.library_inputs(seed, assets=200),
}


def _fleet_output(inputs, tmp_path):
    (tmp_path / "in.csv").write_text(inputs.text)
    assert cli_main(["fleet", "--input", str(tmp_path / "in.csv"), "--output", str(tmp_path / "out.csv")]) == 0
    return (tmp_path / "out.csv").read_text()


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_same_inputs(workload):
    first, second = SMALL[workload](7), SMALL[workload](7)
    assert first.text == second.text and first.sha256 == second.sha256
    assert SMALL[workload](8).text != first.text


def test_same_seed_same_cli_output(tmp_path):
    inputs = SMALL["fleet"](7)
    first = _fleet_output(inputs, tmp_path)
    assert _fleet_output(gen.fleet_inputs(7, clean_rows=400), tmp_path) == first


def test_planted_rows_are_planted():
    inputs = SMALL["fleet"](3)
    kinds = [k for k in inputs.planted if k is not None]
    assert sorted(set(kinds)) == sorted(gen.PLANTED_KINDS)
    assert len(kinds) == round(400 * gen.PLANTED_SHARE)


def test_clean_output_passes(tmp_path):
    inputs = SMALL["fleet"](3)
    verdicts = checker.check_fleet_output(inputs, _fleet_output(inputs, tmp_path))
    assert verdicts.problems == [] and verdicts.failed == 0
    assert verdicts.attempted == len(inputs.rows)


def test_checker_flags_perturbed_cost_and_silent_planted_row(tmp_path):
    inputs = SMALL["fleet"](3)
    lines = _fleet_output(inputs, tmp_path).splitlines()
    clean = inputs.planted.index(None)
    planted = next(i for i, k in enumerate(inputs.planted) if k is not None)
    fields = lines[1 + clean].split(",")
    fields[5] = repr(float(fields[5]) * (1 + 1e-6))
    lines[1 + clean] = ",".join(fields)
    # A planted row answered as if it were clean.
    lines[1 + planted] = ",".join([inputs.rows[planted][0]] + fields[1:])
    verdicts = checker.check_fleet_output(inputs, "\n".join(lines) + "\n")
    assert verdicts.failures == {"invariant": 1, "planted_without_error": 1}
    assert verdicts.problems == []


def test_checker_flags_missing_rows(tmp_path):
    inputs = SMALL["fleet"](3)
    output = _fleet_output(inputs, tmp_path)
    verdicts = checker.check_fleet_output(inputs, output.rsplit("\n", 2)[0] + "\n")
    assert verdicts.problems


def test_fleet_loop_times_every_row_and_keeps_the_output(tmp_path):
    inputs = SMALL["fleet"](3)
    expected = _fleet_output(inputs, tmp_path)
    output, report = tmp_path / "loop.csv", tmp_path / "loop.json"
    cmd = [sys.executable, str(BENCH / "fleetloop.py"), "0.5", str(report), str(tmp_path / "in.csv"), str(output)]
    subprocess.run(cmd, check=True, env=dict(os.environ, PYTHONPATH=str(BENCH.parent / "src")))
    assert output.read_text() == expected
    result = json.loads(report.read_text())
    # One segment before the first row, then one per clean row.
    assert result["segments"] == 1 + sum(k is None for k in inputs.planted)
    assert result["runs"] >= 1 and result["total_ns"] > 0
    assert 0 < result["row_p50_ns"] <= result["row_p99_ns"]


def test_reference_cost_matches_package_cost():
    draw = gen.load_draw_params()
    rng = np.random.default_rng(5)
    for _ in range(50):
        params = draw(rng)
        ages = [0.0, params.junction, rng.uniform(0.0, 3.0 * params.junction)]
        values = (params.acquisition_cost, params.maint_slope, params.depreciation_rate, params.interest_rate)
        for t in ages:
            expected = property_cost(params, t)
            assert float(checker.reference_cost(*values, t)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_trace_counts_repeat_exactly(workload, tmp_path):
    inputs = SMALL[workload](4)
    counts = []
    for attempt in range(2):
        work = tmp_path / str(attempt)
        work.mkdir()
        result = run.measure_traced(workload, inputs, work, 0.0).result()
        assert result["correct"]
        counts.append({k: v for k, v in result["metrics"].items() if v["unit"] in ("count", "calls/asset", "points/row")})
    assert counts[0] == counts[1]
    assert counts[0]["classifier.calls"]["value"] == sum(k is None for k in inputs.planted)
    oracle_calls = counts[0]["oracle.check_against_search.calls"]["value"]
    assert (oracle_calls > 0) == (workload == "verify")


def test_run_refuses_a_directory_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "fleet", "--seed", "1", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
