"""The ``library`` workload: one client calling ``economic_life`` in a loop.

Run as a script in a fresh interpreter, so that peak memory is that of the
measured process alone:

    PYTHONPATH=src python3 bench/libloop.py INPUT_CSV SECONDS OUTPUT_JSON

One untimed pass warms up and supplies the results that are checked; then
whole passes over the assets are timed, call by call, until SECONDS have
passed.  Each asset's latency is the fastest of its timed calls: other
tenants of a shared machine slow the CPU in bursts, and the undisturbed cost
of a call is the figure that repeats from run to run.  Percentiles are taken
over the assets; throughput is the number of assets over the sum of their
latencies.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array

import numpy as np


def load_params(text: str):
    from econlife import AssetParams

    params = []
    for line in text.splitlines()[1:]:
        _, A, a, b, r = line.split(",")
        params.append(AssetParams(float(A), float(a), float(b), float(r)))
    return params


def run_pass(call, params, latencies: array) -> list:
    """Call ``call`` on every asset, timing each call into ``latencies``.

    Returns the results in order; a raised exception takes its result's place.
    """
    clock = time.perf_counter_ns
    results = []
    for i, p in enumerate(params):
        start = clock()
        try:
            result = call(p)
        except Exception as exc:  # counted as a failed call by the checker
            result = exc
        latencies[i] = clock() - start
        results.append(result)
    return results


def describe(result) -> dict:
    """JSON-ready form of one result, as the checker reads it."""
    if isinstance(result, Exception):
        return {"error": f"{type(result).__name__}: {result}"}
    return {
        "case": result.case.value,
        "minimizers": [float(v) for v in result.minimizers.values],
        "min_cost": float(result.min_cost),
    }


def main(input_path: str, seconds: float, output_path: str) -> None:
    from econlife import economic_life

    with open(input_path, encoding="utf-8") as handle:
        params = load_params(handle.read())
    latencies = array("q", [0]) * len(params)
    first = run_pass(economic_life, params, latencies)
    fastest = np.full(len(params), np.iinfo(np.int64).max)
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        run_pass(economic_life, params, latencies)
        np.minimum(fastest, np.frombuffer(latencies, dtype=np.int64), out=fastest)
        passes += 1
    cuts = statistics.quantiles(fastest.tolist(), n=100, method="inclusive")
    report = {
        "passes": passes,
        "assets": len(params),
        "total_ns": int(fastest.sum()),
        "p50_ns": cuts[49],
        "p99_ns": cuts[98],
        "results": [describe(r) for r in first],
    }
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3])
