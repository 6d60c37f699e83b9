"""Layered benchmark of econlife.

Run from the repository root:

    python3 bench/run.py --workload fleet --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1      # every workload, untraced then traced

Workloads (one client, closed loop, one process and one thread):

* ``fleet``   -- the ``econlife.cli`` fleet command, repeated in a fresh
  interpreter (see fleetloop.py), over a CSV of draw_params rows with
  planted malformed rows; set-up is ``python -m econlife.cli fleet`` on a
  header-only CSV;
* ``verify``  -- the same with ``--verify``, over a few dozen unrestricted
  draw_params rows;
* ``library`` -- ``economic_life`` called once per asset in a fresh
  interpreter (see libloop.py).

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
inputs in process, untraced and traced in turn, and reports per-layer
metrics from spans recorded around each layer's public functions (see
tracer.py).  Every output row is checked by checker.py.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: ``correct`` is false when an output as a whole is wrong (a
failed process, missing rows, runs that disagree), and ``failed`` counts
the rows or calls that fail their check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import checker
import gen
import libloop
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFTEST = ROOT / "tests" / "conftest.py"
WORKLOADS = ("fleet", "verify", "library")

SETUP_REPEATS = 5


class Run:
    """Outcome of one benchmark run: result fields plus report lines."""

    def __init__(self, verdicts):
        self.verdicts = verdicts
        self.metrics: dict = {}
        self.lines: list[str] = []

    def add(self, name, value, unit, note=""):
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.lines.append(f"  {name:<36} {value:>14.6g} {unit:<12} {note}")

    def result(self) -> dict:
        v = self.verdicts
        return {"correct": not v.problems, "attempted": v.attempted, "failed": v.failed, "metrics": self.metrics}

    def report(self) -> list[str]:
        v = self.verdicts
        lines = list(self.lines)
        frac = v.failed / v.attempted if v.attempted else 0.0
        lines.append(f"  {'failed_frac':<36} {frac:>14.6g} {'1':<12} {v.failed} of {v.attempted}")
        for reason, count in sorted(v.failures.items()):
            lines.append(f"    {reason}: {count}, e.g. {v.examples[reason][:160]}")
        for problem in v.problems:
            lines.append(f"  PROBLEM: {problem}")
        return lines


# -- processes -----------------------------------------------------------


def _run_process(cmd, work: Path):
    """Run cmd to completion; (wall seconds, peak RSS in MB, exit status, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (work / "stderr.txt").read_text(errors="replace")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr


def _setup_times(cmd, work: Path, problems: list) -> list[float]:
    """Wall times of SETUP_REPEATS runs of cmd, after one warm-up run."""
    walls = []
    for i in range(SETUP_REPEATS + 1):
        wall, _, code, stderr = _run_process(cmd, work)
        if code != 0:
            problems.append(f"set-up run exited with status {code}: {stderr[-300:]}")
            return walls or [wall]
        if i:
            walls.append(wall)
    return walls


def _cli_argv(workload, input_path, output_path):
    argv = ["fleet", "--input", str(input_path), "--output", str(output_path)]
    return argv + ["--verify"] if workload == "verify" else argv


# -- end-to-end runs -----------------------------------------------------


def measure_cli(workload, inputs, work: Path, seconds: float) -> Run:
    input_path, header_path = work / "input.csv", work / "header.csv"
    output_path, report_path = work / "output.csv", work / "loop.json"
    input_path.write_text(inputs.text)
    header_path.write_text(inputs.text.splitlines()[0] + "\n")
    problems: list[str] = []
    cli = [sys.executable, "-m", "econlife.cli"]
    setup = _setup_times(cli + _cli_argv(workload, header_path, output_path), work, problems)
    report = None
    if not problems:
        loop = [sys.executable, str(BENCH / "fleetloop.py"), repr(float(seconds)), str(report_path), str(input_path), str(output_path)]
        _, peak_mb, code, stderr = _run_process(loop + (["--verify"] if workload == "verify" else []), work)
        if code != 0:
            problems.append(f"timed CLI loop exited with status {code}: {stderr[-300:]}")
        else:
            report = json.loads(report_path.read_text())
    if report is None:
        verdicts = checker.Verdicts(attempted=len(inputs.rows))
        nan = float("nan")
        report, peak_mb = {"runs": 0, "segments": 0, "total_ns": nan, "row_p50_ns": nan, "row_p99_ns": nan}, nan
    else:
        verdicts = checker.check_fleet_output(inputs, output_path.read_text())
    verdicts.problems[:0] = problems
    run = Run(verdicts)
    rows, runs = len(inputs.rows), report["runs"]
    fastest = f"{report['segments']} segments, each the fastest of {runs} CLI runs"
    run.add("setup_s", statistics.median(setup), "s", f"median of {len(setup)} CLI runs on a header-only input")
    run.add("rows_per_s", rows / (report["total_ns"] / 1e9), "rows/s", f"{rows} rows / summed time of {fastest}")
    run.add("latency_p50_us", report["row_p50_ns"] / 1e3, "us", f"per row, over {fastest}")
    run.add("latency_p99_us", report["row_p99_ns"] / 1e3, "us", f"per row, over {fastest}")
    run.add("peak_rss_mb", peak_mb, "MB", "the process running the CLI loop")
    return run


def measure_library(inputs, work: Path, seconds: float) -> Run:
    input_path, output_path = work / "input.csv", work / "library.json"
    input_path.write_text(inputs.text)
    problems: list[str] = []
    setup = _setup_times([sys.executable, "-c", "import econlife"], work, problems)
    cmd = [sys.executable, str(BENCH / "libloop.py"), str(input_path), repr(float(seconds)), str(output_path)]
    wall, peak_mb, code, stderr = _run_process(cmd, work)
    if code != 0:
        problems.append(f"library loop exited with status {code}: {stderr[-300:]}")
        nan = float("nan")
        report = {"passes": 0, "assets": len(inputs.rows), "total_ns": nan, "p50_ns": nan, "p99_ns": nan}
        verdicts = checker.Verdicts(attempted=len(inputs.rows))
    else:
        report = json.loads(output_path.read_text())
        verdicts = checker.check_library_results(inputs, report["results"])
    verdicts.problems[:0] = problems
    run = Run(verdicts)
    n, passes = report["assets"], report["passes"]
    per_asset = f"over {n} assets, each the fastest of {passes} calls"
    run.add("setup_s", statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters importing econlife")
    run.add("rows_per_s", n / (report["total_ns"] / 1e9), "rows/s", f"assets / summed latency, {per_asset}")
    run.add("latency_p50_us", report["p50_ns"] / 1e3, "us", f"per economic_life call, {per_asset}")
    run.add("latency_p99_us", report["p99_ns"] / 1e3, "us", f"per economic_life call, {per_asset}")
    run.add("peak_rss_mb", peak_mb, "MB", "library loop process")
    return run


# -- traced runs ---------------------------------------------------------


def _layer_metrics(tracer, wall: float):
    """(counts, times) of one traced repetition; counts repeat exactly."""
    calls, points = tracer.calls, tracer.points
    selfs = tracer.self_seconds()
    assets = calls["classifier.economic_life"]
    w0 = calls["lambert_w.w0"]
    checked = calls["oracle.check_against_search"]
    cost_points = points["cost_model.property_cost"]
    counts = {
        "classifier.calls": assets,
        "lambert_w.w0.calls": w0,
        "lambert_w.w0.calls_per_asset": w0 / assets if assets else 0.0,
        "numerics.expm1_minus.calls": calls["numerics.expm1_minus"],
        "numerics.expm1_minus.points": points["numerics.expm1_minus"],
        "cost_model.property_cost.calls": calls["cost_model.property_cost"],
        "cost_model.property_cost.points": cost_points,
        "oracle.check_against_search.calls": checked,
        "oracle.brute_force_minimize.calls": calls["oracle.brute_force_minimize"],
        "oracle.points_per_row": cost_points / checked if checked else 0.0,
    }
    times = {"wall_s": wall}
    for layer in LAYERS:
        times[f"{layer}.self_s"] = selfs[layer]
        times[f"{layer}.self_pct"] = 100.0 * selfs[layer] / wall
    times["classifier.self_us_per_call"] = 1e6 * selfs["classifier"] / assets if assets else 0.0
    times["lambert_w.ns_per_call"] = 1e9 * selfs["lambert_w"] / w0 if w0 else 0.0
    times["cost_model.ns_per_point"] = 1e9 * selfs["cost_model"] / cost_points if cost_points else 0.0
    return counts, times


def _traced_pairs(run_once, seconds: float):
    """Alternate untraced and traced repetitions until ``seconds`` pass.

    run_once(traced) returns (wall, output, tracer, problem or None).
    Returns untraced walls, (counts, times) per traced repetition, the
    distinct outputs and any problems.
    """
    plain_walls, traced, outputs, problems = [], [], set(), []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for is_traced in (False, True):
            wall, output, tracer, problem = run_once(is_traced)
            if problem:
                return plain_walls, traced, outputs, [problem]
            outputs.add(output)
            if is_traced:
                traced.append(_layer_metrics(tracer, wall))
            else:
                plain_walls.append(wall)
    if len(outputs) != 1:
        problems.append("traced and untraced outputs differ")
    if any(counts != traced[0][0] for counts, _ in traced):
        problems.append("layer counts differ between traced runs on the same input")
    return plain_walls, traced, outputs, problems


def _cli_runner(workload, inputs, work: Path):
    """run_once for ``econlife.cli.main`` in process; output is the CSV text."""
    import econlife.cli  # importable once main() has put src on sys.path

    input_path = work / "input.csv"
    input_path.write_text(inputs.text)

    def run_once(is_traced):
        output_path = work / ("traced.csv" if is_traced else "plain.csv")
        argv = _cli_argv(workload, input_path, output_path)
        tracer = Tracer()
        start = time.perf_counter()
        if is_traced:
            with tracer.installed():
                code = tracer.wrap("cli.main", econlife.cli.main)(argv)
        else:
            code = econlife.cli.main(argv)
        wall = time.perf_counter() - start
        if code != 0:
            return wall, None, tracer, f"in-process CLI returned status {code}"
        return wall, output_path.read_text(), tracer, None

    return run_once


def _library_runner(inputs):
    """run_once for one pass of economic_life; output is the results as JSON."""
    from econlife import economic_life

    params = libloop.load_params(inputs.text)
    latencies = array("q", [0]) * len(params)
    libloop.run_pass(economic_life, params, latencies)  # warm-up

    def run_once(is_traced):
        tracer = Tracer()
        start = time.perf_counter()
        if is_traced:
            with tracer.installed():
                results = libloop.run_pass(tracer.wrap("classifier.economic_life", economic_life), params, latencies)
        else:
            results = libloop.run_pass(economic_life, params, latencies)
        wall = time.perf_counter() - start
        return wall, json.dumps([libloop.describe(r) for r in results]), tracer, None

    return run_once


#: Per-layer metrics and their units, in the order of the layer map in
#: baseline.json.  Layer self times are shares of the traced wall time, so
#: that a layer a workload never enters reads 0 % rather than a time.
PER_LAYER_UNITS = {
    "cli.self_pct": "%",
    "classifier.calls": "count",
    "classifier.self_pct": "%",
    "classifier.self_us_per_call": "us",
    "lambert_w.w0.calls": "count",
    "lambert_w.w0.calls_per_asset": "calls/asset",
    "lambert_w.self_pct": "%",
    "lambert_w.ns_per_call": "ns",
    "numerics.expm1_minus.calls": "count",
    "numerics.expm1_minus.points": "count",
    "numerics.self_pct": "%",
    "cost_model.property_cost.calls": "count",
    "cost_model.property_cost.points": "count",
    "cost_model.self_pct": "%",
    "oracle.check_against_search.calls": "count",
    "oracle.brute_force_minimize.calls": "count",
    "oracle.points_per_row": "points/row",
    "oracle.self_pct": "%",
    "trace.overhead_pct": "%",
}


def measure_traced(workload, inputs, work: Path, seconds: float) -> Run:
    if workload == "library":
        run_once, unit_of_work = _library_runner(inputs), "pass over the assets"
    else:
        run_once, unit_of_work = _cli_runner(workload, inputs, work), "CLI run"
    plain, traced, outputs, problems = _traced_pairs(run_once, seconds)
    if not traced:
        verdicts = checker.Verdicts(attempted=len(inputs.rows))
    elif workload == "library":
        verdicts = checker.check_library_results(inputs, json.loads(next(iter(outputs))))
    else:
        verdicts = checker.check_fleet_output(inputs, next(iter(outputs)))
    verdicts.problems[:0] = problems
    run = Run(verdicts)
    if not traced:
        return run
    n = len(traced)
    values = dict(traced[0][0])
    values.update({key: statistics.median([times[key] for _, times in traced]) for key in traced[0][1]})
    values["trace.overhead_pct"] = 100.0 * (values["wall_s"] / statistics.median(plain) - 1.0)
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_pct":
            note = f"traced vs untraced {unit_of_work} wall, medians of {n} and {len(plain)}"
        elif name in traced[0][0]:
            note = f"per {unit_of_work}"
        else:
            note = f"median of {n} traced runs"
        run.add(name, values[name], unit, note)
    run.lines.append(f"  report only: traced {unit_of_work} wall {values['wall_s']:.6g} s; self time per layer:")
    run.lines.append("    " + ", ".join(f"{layer} {values[f'{layer}.self_s']:.6g} s" for layer in LAYERS))
    run.lines.append(f"    cost_model.ns_per_point {values['cost_model.ns_per_point']:.6g} ns")
    return run


# -- entry point ---------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, list[str]]:
    inputs = gen.WORKLOADS[workload](seed)
    planted = [k for k in inputs.planted if k is not None]
    head = [
        f"econlife bench: workload={workload} seed={seed} seconds={seconds:g} trace={int(traced)}",
        f"  inputs: {len(inputs.rows)} rows, {len(planted)} planted malformed "
        f"({len(planted) / len(inputs.rows):.2%}), sha256 {inputs.sha256}",
    ]
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{int(traced)}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if traced:
            run = measure_traced(workload, inputs, work, seconds)
        elif workload == "library":
            run = measure_library(inputs, work, seconds)
        else:
            run = measure_cli(workload, inputs, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    return run.result(), head + run.report()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="ignored with --workload all, which runs both")
    args = parser.parse_args(argv)
    if not (SRC / "econlife" / "__init__.py").is_file() or not CONFTEST.is_file():
        print(f"error: {ROOT} holds no econlife checkout (need src/econlife and tests/conftest.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for traced in (False, True):
        for workload in WORKLOADS:
            result, lines = run_workload(workload, args.seed, args.seconds, traced)
            print("\n".join(lines), flush=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
