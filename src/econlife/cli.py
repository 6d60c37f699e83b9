"""Batch command line front-end.

Subcommands: ``classify`` one asset, ``curve`` its cost functions as CSV,
``fleet`` a CSV of assets (optionally cross-checked against the brute-force
search), and ``finance`` for the cash-flow equivalence helpers.  All numeric
output uses dot decimals and 12 significant digits so runs diff cleanly.

Exit codes: 0 success, 1 invalid input, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

from . import finance_equiv
from .classifier import economic_life
from .errors import NumericError
from .params import AssetParams

__all__ = ["main"]

FLEET_INPUT_HEADER = ["id", "acquisition_cost", "maint_slope", "depreciation_rate", "interest_rate"]
FLEET_OUTPUT_HEADER = [
    "id",
    "case",
    "econ_life_lo",
    "econ_life_hi",
    "secondary_minimizer",
    "min_annual_cost",
    "error",
]

# One ``finance`` operation each: (name, help, function, flags in the
# function's argument order); ``--periods`` takes an integer, the rest floats.
FINANCE_OPERATIONS = (
    ("capital-recovery", "level payment repaying a present value",
     finance_equiv.capital_recovery, ("present", "rate", "periods")),
    ("present-value", "present value of a level payment",
     finance_equiv.present_value, ("annuity", "rate", "periods")),
    ("future-value", "future value of a level deposit",
     finance_equiv.future_value_of_annuity, ("annuity", "rate", "periods")),
    ("effective-rate", "effective yearly rate of a compounded nominal rate",
     finance_equiv.effective_rate, ("nominal", "periods")),
)


def _num(value: float) -> str:
    return format(float(value), ".12g")


def _opt_num(value) -> str:
    return "" if value is None else _num(value)


def _add_asset_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--acquisition", type=float, required=True, help="purchase cost, currency units")
    parser.add_argument("--maint-slope", type=float, required=True, help="yearly maintenance growth, currency units per year^2")
    parser.add_argument("--depreciation", type=float, required=True, help="yearly resale-value loss, currency units per year")
    parser.add_argument("--rate", type=float, required=True, help="nominal yearly interest rate in (0, 1]")


def _add_format_flag(parser: argparse.ArgumentParser):
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="econlife", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="economic life of a single asset")
    _add_asset_flags(p_classify)
    _add_format_flag(p_classify)
    p_classify.set_defaults(handler=_cmd_classify)

    p_curve = sub.add_parser("curve", help="cost curves as CSV on a time grid")
    _add_asset_flags(p_curve)
    p_curve.add_argument("--t-max", type=float, default=None, help="grid end in years (default: twice the larger of the full-depreciation age and the interior optimum)")
    p_curve.add_argument("--step", type=float, default=None, help="grid spacing in years (default: t-max/500)")
    p_curve.set_defaults(handler=_cmd_curve)

    p_fleet = sub.add_parser("fleet", help="process a CSV of assets")
    p_fleet.add_argument("--input", required=True, help="input CSV path")
    p_fleet.add_argument("--output", default=None, help="output CSV path (default: stdout)")
    p_fleet.add_argument("--verify", action="store_true", help="cross-check each row against the brute-force search")
    p_fleet.set_defaults(handler=_cmd_fleet)

    p_fin = sub.add_parser("finance", help="cash-flow equivalence helpers")
    fin_sub = p_fin.add_subparsers(dest="operation", required=True)
    for operation, help_text, function, flags in FINANCE_OPERATIONS:
        p_op = fin_sub.add_parser(operation, help=help_text)
        for flag in flags:
            p_op.add_argument(f"--{flag}", type=int if flag == "periods" else float, required=True)
        _add_format_flag(p_op)
        p_op.set_defaults(handler=_cmd_finance, compute=function, inputs=flags)

    return parser


def check_against_search(params: AssetParams, result) -> str | None:
    """The oracle's ``check_against_search``, imported when first called.

    The oracle needs numpy, which ``classify`` and ``fleet`` without
    ``--verify`` never load.
    """
    from .oracle import check_against_search as check

    return check(params, result)


def _params_from_args(args) -> AssetParams:
    return AssetParams(
        acquisition_cost=args.acquisition,
        maint_slope=args.maint_slope,
        depreciation_rate=args.depreciation,
        interest_rate=args.rate,
    )


def _serialized_minimizers(result) -> tuple[str, str, str]:
    """(econ_life_lo, econ_life_hi, secondary_minimizer) as formatted text."""
    m = result.minimizers
    lo = _num(m.values[0])
    if m.kind == "interval":
        return lo, _num(m.values[1]), ""
    if m.kind == "two_points":
        return lo, lo, _num(m.values[1])
    return lo, lo, ""


def _write_csv(stream, header, rows) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write(fmt: str, fields: dict[str, str], text: str, indent: int | None = None) -> None:
    """Print ``fields`` (name -> formatted text) as ``fmt``: the given text,
    a JSON object or a header and a value line of CSV.

    In JSON every finite number is a number, a non-finite one the text the
    other formats print ("inf", "-inf" or "nan"), the case label a string and
    a blank optional field ``null``, so the output is strict JSON.
    """
    if fmt == "text":
        print(text)
    elif fmt == "json":
        values = {name: _json_value(value) for name, value in fields.items()}
        print(json.dumps(values, indent=indent, allow_nan=False))
    else:
        _write_csv(sys.stdout, fields, [fields.values()])


def _json_value(text: str):
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def _cmd_classify(args) -> int:
    result = economic_life(_params_from_args(args))
    lo, hi, secondary = _serialized_minimizers(result)
    fields = {
        "case": result.case.value,
        "econ_life_lo": lo,
        "econ_life_hi": hi,
        "secondary_minimizer": secondary,
        "min_annual_cost": _num(result.min_cost),
        "interior_minimum_age": _opt_num(result.interior_minimum_age),
        "cost_ratio": _num(result.cost_ratio),
        "slope_threshold": _num(result.slope_threshold),
        "acquisition_threshold": _opt_num(result.acquisition_threshold),
    }
    if secondary:
        where = f"t = {lo} and t = {secondary}"
    elif lo == hi:
        where = f"t = {lo}"
    else:
        where = f"all t in [{lo}, {hi}]"
    lines = [f"case: {result.case.value}", f"minimizers: {where}"]
    # every field after the three minimizer fields, a blank one as "-"
    lines += [f"{name.replace('_', ' ')}: {value or '-'}" for name, value in list(fields.items())[4:]]
    _write(args.format, fields, "\n".join(lines), indent=2)
    return 0


def _cmd_curve(args) -> int:
    from .cost_model import curve

    params = _params_from_args(args)
    t_max = args.t_max
    if t_max is None:
        age = economic_life(params).interior_minimum_age
        t_max = 2.0 * (params.junction if age is None else max(params.junction, age))
    step = args.step if args.step is not None else t_max / 500.0
    rows = (map(_num, row) for row in zip(*curve(params, t_max, step)))
    _write_csv(sys.stdout, ["t", "capital_cost", "maintenance_cost", "property_cost"], rows)
    return 0


def _fleet_row(fields: list[str], seen_ids: set[str], verify: bool) -> list[str]:
    """The output fields of one input line; any failure fills the error column."""
    row_id = fields[0] if fields else ""
    try:
        if len(fields) != len(FLEET_INPUT_HEADER):
            raise ValueError(f"expected {len(FLEET_INPUT_HEADER)} fields, got {len(fields)}")
        if row_id in seen_ids:
            raise ValueError(f"duplicate id {row_id!r}")
        numbers = []
        for name, text in zip(FLEET_INPUT_HEADER[1:], fields[1:]):
            try:
                numbers.append(float(text))
            except ValueError:
                raise ValueError(f"{name} is not a number: {text!r}") from None
        params = AssetParams(*numbers)
        result = economic_life(params)
        if verify:
            verdict = check_against_search(params, result)
            if verdict is not None:
                if not verdict.startswith("verification inconclusive:"):
                    verdict = f"verification failed: {verdict}"
                raise ValueError(verdict)
        return [row_id, result.case.value, *_serialized_minimizers(result), _num(result.min_cost), ""]
    except (ValueError, NumericError) as exc:
        return [row_id, "", "", "", "", "", str(exc)]


def _cmd_fleet(args) -> int:
    try:
        with open(args.input, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ValueError(f"cannot read {args.input!r}: {exc}") from None
    if not rows or rows[0] != FLEET_INPUT_HEADER:
        raise ValueError(f"malformed header in {args.input!r}; expected {','.join(FLEET_INPUT_HEADER)}")

    seen_ids: set[str] = set()
    results = []
    for fields in rows[1:]:
        results.append(_fleet_row(fields, seen_ids, args.verify))
        seen_ids.update(fields[:1])  # an id is taken by its first line, valid or not

    handle = contextlib.nullcontext(sys.stdout)
    if args.output is not None:
        try:
            handle = open(args.output, "w", newline="", encoding="utf-8")
        except OSError as exc:  # only the open: a closed stdout pipe is main's to handle
            raise ValueError(f"cannot write {args.output!r}: {exc}") from None
    with handle as stream:
        _write_csv(stream, FLEET_OUTPUT_HEADER, results)
    return 0


def _cmd_finance(args) -> int:
    value = _num(args.compute(*(getattr(args, flag) for flag in args.inputs)))
    _write(args.format, {"value": value}, value)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error exits 2, which is kept for numeric failures
        if exc.code != 2:
            raise
        return 1
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the stream; not an error.
        devnull = open(os.devnull, "w")
        os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
