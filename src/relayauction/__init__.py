"""Deterministic simulator for auction-based relay power allocation.

Amplify-and-forward users share one relay's transmit power through simple
share auctions (SNR-priced or power-priced); this package computes their
equilibria in closed form (best-response iteration is kept as a diagnostic),
compares them against centralized efficient/fair/pivot benchmarks, and
reproduces the standard two-user and multi-user experiments.
"""

from .auction import KINDS, POWER, SNR, AuctionParams, allocate
from .channel import (
    NetworkScenario, SystemParams, UserLink, direct_snr, link_from_geometry, load_scenario, path_gain,
    rate_increase, relayed_snr, relayed_snr_limit, save_scenario, scenario_from_dict, scenario_from_geometry,
    scenario_to_dict,
)
from .dynamics import (
    EquilibriumResult, IterationTrace, NoEquilibrium, PriceSearchResult, calibrate_price, estimate_geometric_rate,
    equilibrium_from_bids, iterate_best_response, ne_bids_from_factors, solve_ne, threshold_price, update_matrix,
)
from .experiments import (
    MultiUserSpec, Report, TwoUserSweepSpec, build_two_user_scenario, emit_report, positive_increase_variance,
    report_from_json, report_to_csv, report_to_json, run_multi_user, run_two_user_sweep, sample_topologies,
    scenario_from_topology,
)
from .oracles import OracleAllocation, VcgResult, efficient_allocation, fair_allocation, vcg_auction

__version__ = "0.1.0"

__all__ = [
    "AuctionParams",
    "EquilibriumResult",
    "IterationTrace",
    "KINDS",
    "MultiUserSpec",
    "NetworkScenario",
    "NoEquilibrium",
    "OracleAllocation",
    "POWER",
    "PriceSearchResult",
    "Report",
    "SNR",
    "SystemParams",
    "TwoUserSweepSpec",
    "UserLink",
    "VcgResult",
    "allocate",
    "build_two_user_scenario",
    "calibrate_price",
    "direct_snr",
    "efficient_allocation",
    "emit_report",
    "equilibrium_from_bids",
    "estimate_geometric_rate",
    "fair_allocation",
    "iterate_best_response",
    "link_from_geometry",
    "load_scenario",
    "ne_bids_from_factors",
    "path_gain",
    "positive_increase_variance",
    "rate_increase",
    "relayed_snr",
    "relayed_snr_limit",
    "report_from_json",
    "report_to_csv",
    "report_to_json",
    "run_multi_user",
    "run_two_user_sweep",
    "sample_topologies",
    "save_scenario",
    "scenario_from_dict",
    "scenario_from_geometry",
    "scenario_from_topology",
    "scenario_to_dict",
    "solve_ne",
    "threshold_price",
    "update_matrix",
    "vcg_auction",
]
