"""The ``fleet`` and ``verify`` workloads' timed loop: the fleet CLI in process.

Run as a script in a fresh interpreter:

    PYTHONPATH=src python3 bench/fleetloop.py SECONDS REPORT_JSON INPUT_CSV OUTPUT_CSV [--verify]

``econlife.cli.main(["fleet", ...])`` runs over the whole file at least
once and then again for as long as another run, at the pace so far, ends
within SECONDS; every run must write the same bytes.

Each run is cut into segments at the start of every call through the names
in CUTS: ``econlife.cli.economic_life`` starts a row (its parse,
classification, verification and formatting), and
``econlife.oracle.property_cost`` splits a verified row into the search's
cost evaluations.  The first segment also holds argument parsing and reading
the file, the last one writing it.  Each segment's time is the fastest of
its runs: other tenants of a shared machine slow the CPU in bursts of
milliseconds, so a CLI run of seconds always catches some, but a short
segment often runs undisturbed, and that undisturbed time is the figure that
repeats from run to run.  A run over the file takes the sum of the fastest
segments, and a row the sum of its own.  A name that is missing or no longer
called per row gives fewer, longer segments, which are timed the same way,
only less steadily.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import sys
import time
from array import array

#: (module, name, whether a call starts a row) of each call that cuts a run.
CUTS = (("econlife.cli", "economic_life", True), ("econlife.oracle", "property_cost", False))


def _cut_at(module, name: str, stamps: array, row_starts: array | None) -> None:
    """Rebind module.name so that every call appends its start time to stamps."""
    original = getattr(module, name, None)
    if not callable(original):
        return
    clock = time.perf_counter_ns

    def stamped(*args, **kwargs):
        if row_starts is not None:
            row_starts.append(len(stamps))
        stamps.append(clock())
        return original(*args, **kwargs)

    setattr(module, name, stamped)


def main(seconds: float, report_path: str, input_path: str, output_path: str, verify: bool) -> int:
    import econlife.cli as cli

    argv = ["fleet", "--input", input_path, "--output", output_path] + (["--verify"] if verify else [])
    stamps, row_starts = array("q"), array("q")
    for module, name, starts_row in CUTS:
        _cut_at(importlib.import_module(module), name, stamps, row_starts if starts_row else None)

    clock = time.perf_counter_ns
    fastest, output, first_rows, runs = None, None, None, 0
    start = time.perf_counter()
    # Stop when one more run, at the mean pace so far, would pass SECONDS.
    while runs == 0 or (time.perf_counter() - start) * (runs + 1) / runs <= seconds:
        del stamps[:], row_starts[:]
        begin = clock()
        code = cli.main(argv)
        end = clock()
        if code != 0:
            print(f"fleet CLI returned status {code}", file=sys.stderr)
            return 1
        with open(output_path, "rb") as handle:
            text = handle.read()
        bounds = [begin, *stamps, end]
        segments = [b - a for a, b in zip(bounds, bounds[1:])]
        if fastest is None:
            fastest, output, first_rows = segments, text, row_starts.tolist()
        elif text != output or row_starts.tolist() != first_rows or len(segments) != len(fastest):
            print("CLI output or calls differ between runs on the same input", file=sys.stderr)
            return 1
        else:
            fastest = [min(a, b) for a, b in zip(fastest, segments)]
        runs += 1

    # Segment j + 1 starts at stamp j.  A row runs from its own start to the
    # next row's; the last row stops short of the final segment, which also
    # holds writing the file, and is left out if nothing of it is left.
    acc = list(itertools.accumulate(fastest, initial=0))
    edges = [j + 1 for j in first_rows] + [len(fastest) - 1]
    rows = [acc[b] - acc[a] for a, b in zip(edges, edges[1:]) if b > a] or [acc[-1]]
    cuts = statistics.quantiles(rows, n=100, method="inclusive") if len(rows) > 1 else rows * 99
    report = {
        "runs": runs,
        "segments": len(fastest),
        "total_ns": acc[-1],
        "row_p50_ns": cuts[49],
        "row_p99_ns": cuts[98],
    }
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    sys.exit(main(float(args[0]), args[1], args[2], args[3], args[4:] == ["--verify"]))
