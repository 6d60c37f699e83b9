"""Batch command line front-end.

Subcommands: ``classify`` one asset, ``curve`` its cost functions as CSV,
``fleet`` a CSV of assets (optionally cross-checked against the brute-force
search), and ``finance`` for the cash-flow equivalence helpers.  All numeric
output uses dot decimals and 12 significant digits so runs diff cleanly.

Exit codes: 0 success, 1 invalid input, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

from . import finance_equiv
from .classifier import economic_life, interior_minimum_age
from .errors import NumericError
from .params import AssetParams

__all__ = ["FleetRow", "ResultRow", "main"]

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


@dataclass(frozen=True)
class FleetRow:
    """One parsed line of a fleet input file."""

    id: str
    acquisition_cost: float
    maint_slope: float
    depreciation_rate: float
    interest_rate: float


@dataclass(frozen=True)
class ResultRow:
    """One line of fleet output; ``error`` is empty for clean rows."""

    id: str
    case: str = ""
    econ_life_lo: str = ""
    econ_life_hi: str = ""
    secondary_minimizer: str = ""
    min_annual_cost: str = ""
    error: str = ""

    def fields(self) -> list[str]:
        return [
            self.id,
            self.case,
            self.econ_life_lo,
            self.econ_life_hi,
            self.secondary_minimizer,
            self.min_annual_cost,
            self.error,
        ]


def _num(value: float) -> str:
    return format(float(value), ".12g")


def _opt_num(value) -> str:
    return "" if value is None else _num(value)


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser
        self.message = message


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; keep 2 reserved for
    # numeric failures and report usage problems as input errors (status 1).
    def error(self, message):
        raise _UsageError(self, message)


def _add_asset_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--acquisition", type=float, required=True, help="purchase cost, currency units")
    parser.add_argument("--maint-slope", type=float, required=True, help="yearly maintenance growth, currency units per year^2")
    parser.add_argument("--depreciation", type=float, required=True, help="yearly resale-value loss, currency units per year")
    parser.add_argument("--rate", type=float, required=True, help="nominal yearly interest rate in (0, 1]")


def _add_format_flag(parser: argparse.ArgumentParser):
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="econlife", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

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
    fin_sub = p_fin.add_subparsers(dest="operation", required=True, parser_class=_Parser)

    p_cr = fin_sub.add_parser("capital-recovery", help="level payment repaying a present value")
    p_cr.add_argument("--present", type=float, required=True)
    p_cr.add_argument("--rate", type=float, required=True)
    p_cr.add_argument("--periods", type=int, required=True)
    _add_format_flag(p_cr)
    p_cr.set_defaults(handler=_cmd_finance, compute=lambda a: finance_equiv.capital_recovery(a.present, a.rate, a.periods))

    p_pv = fin_sub.add_parser("present-value", help="present value of a level payment")
    p_pv.add_argument("--annuity", type=float, required=True)
    p_pv.add_argument("--rate", type=float, required=True)
    p_pv.add_argument("--periods", type=int, required=True)
    _add_format_flag(p_pv)
    p_pv.set_defaults(handler=_cmd_finance, compute=lambda a: finance_equiv.present_value(a.annuity, a.rate, a.periods))

    p_fv = fin_sub.add_parser("future-value", help="future value of a level deposit")
    p_fv.add_argument("--annuity", type=float, required=True)
    p_fv.add_argument("--rate", type=float, required=True)
    p_fv.add_argument("--periods", type=int, required=True)
    _add_format_flag(p_fv)
    p_fv.set_defaults(handler=_cmd_finance, compute=lambda a: finance_equiv.future_value_of_annuity(a.annuity, a.rate, a.periods))

    p_er = fin_sub.add_parser("effective-rate", help="effective yearly rate of a compounded nominal rate")
    p_er.add_argument("--nominal", type=float, required=True)
    p_er.add_argument("--periods", type=int, required=True)
    _add_format_flag(p_er)
    p_er.set_defaults(handler=_cmd_finance, compute=lambda a: finance_equiv.effective_rate(a.nominal, a.periods))

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
    if m.kind == "interval":
        return _num(m.values[0]), _num(m.values[1]), ""
    if m.kind == "two_points":
        return _num(m.values[0]), _num(m.values[0]), _num(m.values[1])
    return _num(m.values[0]), _num(m.values[0]), ""


def _cmd_classify(args) -> int:
    result = economic_life(_params_from_args(args))
    lo, hi, secondary = _serialized_minimizers(result)
    if args.format == "text":
        m = result.minimizers
        if m.kind == "interval":
            where = f"all t in [{_num(m.values[0])}, {_num(m.values[1])}]"
        elif m.kind == "two_points":
            where = f"t = {_num(m.values[0])} and t = {_num(m.values[1])}"
        else:
            where = f"t = {_num(m.values[0])}"
        lines = [
            f"case: {result.case.value}",
            f"minimizers: {where}",
            f"min annual cost: {_num(result.min_cost)}",
            f"interior minimum age: {_opt_num(result.interior_minimum_age) or '-'}",
            f"cost ratio: {_num(result.cost_ratio)}",
            f"slope threshold: {_num(result.slope_threshold)}",
            f"acquisition threshold: {_opt_num(result.acquisition_threshold) or '-'}",
        ]
        print("\n".join(lines))
    elif args.format == "json":
        payload = {
            "case": result.case.value,
            "econ_life_lo": float(lo),
            "econ_life_hi": float(hi),
            "secondary_minimizer": float(secondary) if secondary else None,
            "min_annual_cost": float(_num(result.min_cost)),
            "interior_minimum_age": (
                None if result.interior_minimum_age is None else float(_num(result.interior_minimum_age))
            ),
            "cost_ratio": float(_num(result.cost_ratio)),
            "slope_threshold": float(_num(result.slope_threshold)),
            "acquisition_threshold": (
                None if result.acquisition_threshold is None else float(_num(result.acquisition_threshold))
            ),
        }
        print(json.dumps(payload, indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(
            [
                "case",
                "econ_life_lo",
                "econ_life_hi",
                "secondary_minimizer",
                "min_annual_cost",
                "interior_minimum_age",
                "cost_ratio",
                "slope_threshold",
                "acquisition_threshold",
            ]
        )
        writer.writerow(
            [
                result.case.value,
                lo,
                hi,
                secondary,
                _num(result.min_cost),
                _opt_num(result.interior_minimum_age),
                _num(result.cost_ratio),
                _num(result.slope_threshold),
                _opt_num(result.acquisition_threshold),
            ]
        )
    return 0


def _cmd_curve(args) -> int:
    from .cost_model import curve

    params = _params_from_args(args)
    t_max = args.t_max
    if t_max is None:
        t_max = 2.0 * max(params.junction, interior_minimum_age(params))
    step = args.step if args.step is not None else t_max / 500.0
    samples = curve(params, t_max, step)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["t", "capital_cost", "maintenance_cost", "property_cost"])
    for sample in samples:
        writer.writerow(
            [
                _num(sample.t),
                _num(sample.capital_cost),
                _num(sample.maintenance_cost),
                _num(sample.property_cost),
            ]
        )
    return 0


def _parse_fleet_row(line_fields: list[str], seen_ids: set[str]) -> FleetRow:
    if len(line_fields) != len(FLEET_INPUT_HEADER):
        raise ValueError(f"expected {len(FLEET_INPUT_HEADER)} fields, got {len(line_fields)}")
    row_id = line_fields[0]
    if row_id in seen_ids:
        raise ValueError(f"duplicate id {row_id!r}")
    numbers = []
    for name, text in zip(FLEET_INPUT_HEADER[1:], line_fields[1:]):
        try:
            numbers.append(float(text))
        except ValueError:
            raise ValueError(f"{name} is not a number: {text!r}") from None
    return FleetRow(row_id, *numbers)


def _process_fleet_row(line_fields: list[str], seen_ids: set[str], verify: bool) -> ResultRow:
    row_id = line_fields[0] if line_fields else ""
    try:
        row = _parse_fleet_row(line_fields, seen_ids)
        params = AssetParams(
            acquisition_cost=row.acquisition_cost,
            maint_slope=row.maint_slope,
            depreciation_rate=row.depreciation_rate,
            interest_rate=row.interest_rate,
        )
        result = economic_life(params)
        if verify:
            discrepancy = check_against_search(params, result)
            if discrepancy is not None:
                return ResultRow(id=row_id, error=f"verification failed: {discrepancy}")
        lo, hi, secondary = _serialized_minimizers(result)
        return ResultRow(
            id=row_id,
            case=result.case.value,
            econ_life_lo=lo,
            econ_life_hi=hi,
            secondary_minimizer=secondary,
            min_annual_cost=_num(result.min_cost),
        )
    except (ValueError, NumericError) as exc:
        return ResultRow(id=row_id, error=str(exc))


def _cmd_fleet(args) -> int:
    try:
        with open(args.input, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            rows = list(reader)
    except OSError as exc:
        print(f"error: cannot read {args.input!r}: {exc}", file=sys.stderr)
        return 1
    if not rows or rows[0] != FLEET_INPUT_HEADER:
        print(
            f"error: malformed header in {args.input!r}; expected "
            f"{','.join(FLEET_INPUT_HEADER)}",
            file=sys.stderr,
        )
        return 1

    seen_ids: set[str] = set()
    results = []
    for line_fields in rows[1:]:
        result = _process_fleet_row(line_fields, seen_ids, args.verify)
        if line_fields:
            seen_ids.add(line_fields[0])
        results.append(result)

    def write_rows(stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(FLEET_OUTPUT_HEADER)
        for result in results:
            writer.writerow(result.fields())

    if args.output is None:
        write_rows(sys.stdout)
    else:
        with open(args.output, "w", newline="", encoding="utf-8") as handle:
            write_rows(handle)
    return 0


def _cmd_finance(args) -> int:
    value = args.compute(args)
    if args.format == "text":
        print(_num(value))
    elif args.format == "json":
        print(json.dumps({"value": float(_num(value))}))
    else:
        print("value")
        print(_num(value))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"{exc.parser.prog}: error: {exc.message}", file=sys.stderr)
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
