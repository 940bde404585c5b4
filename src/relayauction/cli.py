"""Command-line surface: experiments, single-scenario solving, and oracles."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .auction import KINDS, AuctionParams
from .channel import load_scenario
from .dynamics import (
    NoEquilibrium,
    calibrate_price,
    solve_ne,
    threshold_price,
)
from .experiments import (
    MultiUserSpec,
    TwoUserSweepSpec,
    emit_report,
    run_multi_user,
    run_two_user_sweep,
)
from .oracles import efficient_allocation, fair_allocation, vcg_auction


def _print_json(payload: dict) -> None:
    # numpy arrays and scalars leave through tolist, as lists and Python numbers
    print(json.dumps(payload, indent=2, sort_keys=True, default=lambda obj: obj.tolist()))


def _result_payload(result) -> dict:
    """A result's fields as the CLI prints them: powers, in watts, as powers_w."""
    payload = dict(vars(result))
    payload["powers_w"] = payload.pop("powers")
    return payload


def _emit(report, args: argparse.Namespace) -> int:
    for path in emit_report(report, args.out, ("csv", "json") if args.format == "both" else (args.format,)):
        print(path)
    return 0


def _cmd_two_user_sweep(args: argparse.Namespace) -> int:
    return _emit(run_two_user_sweep(TwoUserSweepSpec(relay_y_step=args.step)), args)


def _cmd_multi_user(args: argparse.Namespace) -> int:
    kwargs = {"seed": args.seed, "n_users": args.users, "n_topologies": args.topologies}
    if args.power:
        kwargs["relay_powers"] = tuple(args.power)
    return _emit(run_multi_user(MultiUserSpec(**kwargs)), args)


def _cmd_ne_solve(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.price is not None:
        price = args.price
        calibrated = None
    else:
        search = calibrate_price(scenario, args.auction, target_utilization=args.calibrate)
        price = search.price
        calibrated = {"target": args.calibrate, **vars(search)}
    result = solve_ne(scenario, AuctionParams(args.auction, price, args.beta))
    if isinstance(result, NoEquilibrium):
        _print_json({"no_equilibrium": result.reason, "price": price})
        return 1
    payload = _result_payload(result)
    if calibrated is not None:
        payload["calibration"] = calibrated
    _print_json(payload)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.which == "vcg":
        result = vcg_auction(scenario, delta=args.delta)
        payload = {**vars(result), **_result_payload(result.allocation)}
        del payload["allocation"]
    else:
        oracle = efficient_allocation if args.which == "efficient" else fair_allocation
        payload = _result_payload(oracle(scenario, delta=args.delta))
    _print_json({"oracle": args.which, "delta": args.delta, **payload})
    return 0


def _cmd_threshold_price(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    price = threshold_price(scenario, args.auction)
    _print_json({"auction": args.auction, "threshold_price": price})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relay-auction",
        description="Auction-based relay power allocation: experiments and solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("two-user-sweep", help="relay-position sweep of the two-user benchmark")
    p.add_argument("--step", type=float, default=5.0, help="relay y step in meters")
    p.add_argument("--out", default="reports", help="output directory")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p.set_defaults(func=_cmd_two_user_sweep)

    p = sub.add_parser("multi-user", help="seeded random-topology population study")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--users", type=int, default=20)
    p.add_argument("--topologies", type=int, default=100)
    p.add_argument(
        "--power", type=float, action="append", help="relay budget in watts (repeatable)"
    )
    p.add_argument("--out", default="reports")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p.set_defaults(func=_cmd_multi_user)

    p = sub.add_parser("ne-solve", help="solve one scenario at a fixed or calibrated price")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--auction", choices=KINDS, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--price", type=float)
    group.add_argument("--calibrate", type=float, metavar="TARGET")
    p.add_argument("--beta", type=float, default=1.0, help="reserve bid")
    p.set_defaults(func=_cmd_ne_solve)

    p = sub.add_parser("oracle", help="centralized benchmark allocations")
    p.add_argument("which", choices=("efficient", "fair", "vcg"))
    p.add_argument("--scenario", required=True)
    p.add_argument("--delta", type=float, default=0.01, help="budget reduction fraction")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("threshold-price", help="price below which no equilibrium exists")
    p.add_argument("--scenario", required=True)
    p.add_argument("--auction", choices=KINDS, required=True)
    p.set_defaults(func=_cmd_threshold_price)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand.  Exit code 1 means no equilibrium, 2 bad input.

    Bad input is a file that cannot be read or an argument or scenario the
    library rejects with ValueError (malformed JSON, a missing or invalid
    field, a scenario without a threshold price); it is reported in one line.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
