"""Command-line surface: experiments, single-scenario solving, and oracles."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .auction import KINDS, AuctionParams
from .channel import load_scenario
from .dynamics import (
    EquilibriumResult,
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


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _print_json(payload: dict) -> None:
    print(json.dumps({k: _jsonable(v) for k, v in payload.items()}, indent=2, sort_keys=True))


def _equilibrium_payload(eq: EquilibriumResult) -> dict:
    return {
        "kind": eq.kind,
        "price": eq.price,
        "reserve_bid": eq.reserve_bid,
        "bids": eq.bids,
        "powers_w": eq.powers,
        "delta_snr": eq.delta_snr,
        "rate_increase_bps": eq.rate_increase_bps,
        "payments": eq.payments,
        "payoffs": eq.payoffs,
        "total_rate_increase_bps": eq.total_rate_increase_bps,
        "utilization": eq.utilization,
    }


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
    payload = _equilibrium_payload(result)
    if calibrated is not None:
        payload["calibration"] = calibrated
    _print_json(payload)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.which == "efficient":
        alloc = efficient_allocation(scenario, delta=args.delta)
        payments = None
    elif args.which == "fair":
        alloc = fair_allocation(scenario, delta=args.delta)
        payments = None
    else:
        result = vcg_auction(scenario, delta=args.delta)
        alloc = result.allocation
        payments = result.payments
    payload = {
        "oracle": args.which,
        "delta": args.delta,
        "powers_w": alloc.powers,
        "per_user_rate_increase_bps": alloc.per_user_rate_increase_bps,
        "total_rate_increase_bps": alloc.total_rate_increase_bps,
        "marginal_utility": alloc.marginal_utility,
        "nodes": alloc.nodes,
        "certified_gap": alloc.certified_gap,
    }
    if payments is not None:
        payload["payments"] = payments
    _print_json(payload)
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
