"""Benchmark inputs and the per-unit drive, written against the public API.

Every workload is a fixed list of units generated from the seed.  A unit is
the smallest piece of work whose latency a user of the experiments waits for:

- two_user_sweep: one relay position of the paper's sweep (81 positions, the
  `TwoUserSweepSpec()` defaults).  The geometry is fixed, so the seed is unused.
- multi_user: one 20-user topology of the population study at one relay
  budget: the first MULTI_USER_TOPOLOGIES topologies of the paper's seed-0
  study (`sample_topologies(MultiUserSpec())`), each at the four budgets.
- oracle_vcg: one 4-user random scenario (relay at the origin, 300 m field,
  as `make_random_scenario` in the tests) solved by `vcg_auction` and
  `fair_allocation`.

The seeded workloads draw a fixed population once (POPULATION_SEED) and the
run seed moves every node by an independent N(0, JITTER_M) offset, so every
seed gives its own inputs and its own outputs.  Fresh draws per seed are not
used: at about one second per unit only ~30 units fit in a run, and the cost
of a random 4-user or 20-user scenario varies so much (0.2-3 s) that whole
runs of fresh draws spread by 19-27% from seed to seed.  The offset is kept
to a centimetre for the same reason: a one-metre offset already moves a
20-user unit's price-search and iteration work by up to 2x (a price lands
nearer to or further from a user's threshold), and the median unit of
multi_user by 14% (IQR over median, five seeds) from seed to seed.

The drive of a unit repeats the arithmetic of `run_two_user_sweep` and
`run_multi_user` row by row (`selfcheck` proves it), so the benchmark times
the code the CLI runs.  Every call goes through attributes of the `api`
module so that the tracer can interpose on them.
"""

from __future__ import annotations

import numpy as np

import relayauction as api

# Units per workload, sized so that one repetition takes about half a minute
# on one core at the commit that introduced the benchmark.
MULTI_USER_TOPOLOGIES = 7
MULTI_USER_USERS = 20
ORACLE_UNITS = 30
ORACLE_USERS = 4
ORACLE_BUDGET_W = 0.1
POPULATION_SEED = 0
JITTER_M = 0.01

KINDS = (api.POWER, api.SNR)


def _population(n_topologies: int, n_users: int) -> np.ndarray:
    # the draw of experiments.sample_topologies, made here so that the package
    # sees only the generated nodes and never a seed
    spec = api.MultiUserSpec()
    rng = np.random.default_rng(POPULATION_SEED)
    return rng.uniform(spec.field_min, spec.field_max, size=(n_topologies, n_users, 4))


def _jittered(seed: int, n_topologies: int, n_users: int) -> np.ndarray:
    base = _population(n_topologies, n_users)
    return base + np.random.default_rng(seed).normal(0.0, JITTER_M, size=base.shape)


def make_inputs(workload: str, seed: int) -> list:
    """The seeded, package-independent description of every unit."""
    if workload == "two_user_sweep":
        return [float(y) for y in api.TwoUserSweepSpec().relay_ys()]
    if workload == "multi_user":
        nodes = _jittered(seed, MULTI_USER_TOPOLOGIES, MULTI_USER_USERS)
        return [(topology, float(b)) for b in api.MultiUserSpec().relay_powers for topology in nodes]
    if workload == "oracle_vcg":
        return [(topology, ORACLE_BUDGET_W) for topology in _jittered(seed, ORACLE_UNITS, ORACLE_USERS)]
    raise ValueError(f"unknown workload {workload!r}")


def build_scenarios(workload: str, inputs: list) -> list:
    """Scenario construction through the experiments layer."""
    if workload == "two_user_sweep":
        spec = api.TwoUserSweepSpec()
        return [api.build_two_user_scenario(spec, y) for y in inputs]
    spec = api.MultiUserSpec(n_users=MULTI_USER_USERS if workload == "multi_user" else ORACLE_USERS)
    return [api.scenario_from_topology(spec, nodes, budget) for nodes, budget in inputs]


def _calibrated(scenario, kind: str, target: float, reserve_bid: float) -> dict:
    search = api.calibrate_price(scenario, kind, target_utilization=target)
    eq = api.solve_ne(scenario, api.AuctionParams(kind, search.price, reserve_bid))
    if not isinstance(eq, api.EquilibriumResult):
        raise RuntimeError(f"no equilibrium at calibrated price {search.price!r}")
    w = scenario.system.bandwidth_hz
    per_user = eq.rate_increase_bps / w
    return {
        "price": search.price,
        "feasible": search.feasible,
        "per_user": per_user,
        "total": float(per_user.sum()),
        "variance": api.positive_increase_variance(per_user),
        "utilization": eq.utilization,
        "min_payoff_bits_per_hz": float(eq.payoffs.min() / w),
    }


def _sweep_unit(scenario, y: float) -> dict:
    spec = api.TwoUserSweepSpec()
    w = spec.bandwidth_hz
    row: dict = {"relay_y_m": y}
    vcg = api.vcg_auction(scenario, delta=spec.vcg_delta, grid_n=spec.oracle_grid_n)
    gains = vcg.allocation.per_user_rate_increase_bps / w
    row["vcg_total_bits_per_hz"] = float(gains.sum())
    row["vcg_user1_bits_per_hz"] = float(gains[0])
    row["vcg_user2_bits_per_hz"] = float(gains[1])
    row["vcg_utilization"] = float(vcg.allocation.powers.sum() / spec.relay_budget_w)
    checks = {"vcg_payments_bits_per_hz": [float(p) / w for p in vcg.payments]}
    for kind in KINDS:
        r = _calibrated(scenario, kind, spec.target_utilization, spec.reserve_bid)
        row[f"{kind}_price"] = r["price"]
        row[f"{kind}_total_bits_per_hz"] = r["total"]
        row[f"{kind}_user1_bits_per_hz"] = float(r["per_user"][0])
        row[f"{kind}_user2_bits_per_hz"] = float(r["per_user"][1])
        row[f"{kind}_utilization"] = r["utilization"]
        row[f"{kind}_calibrated"] = float(r["feasible"])
        row[f"{kind}_positive_variance"] = r["variance"]
        checks[f"{kind}_min_payoff_bits_per_hz"] = r["min_payoff_bits_per_hz"]
    return {"row": row, "checks": checks}


def _multi_unit(scenario, budget: float) -> dict:
    spec = api.MultiUserSpec()
    row: dict = {"relay_power_w": budget}
    checks: dict = {}
    for kind in KINDS:
        r = _calibrated(scenario, kind, spec.target_utilization, spec.reserve_bid)
        row[f"{kind}_total_bits_per_hz"] = r["total"]
        row[f"{kind}_positive_variance"] = r["variance"]
        row[f"{kind}_utilization"] = r["utilization"]
        row[f"{kind}_price"] = r["price"]
        row[f"{kind}_calibrated"] = 1.0 if r["feasible"] else 0.0
        checks[f"{kind}_min_payoff_bits_per_hz"] = r["min_payoff_bits_per_hz"]
    return {"row": row, "checks": checks}


def _oracle_unit(scenario) -> dict:
    w = scenario.system.bandwidth_hz
    vcg = api.vcg_auction(scenario)
    fair = api.fair_allocation(scenario)
    row = {
        "vcg_total_bits_per_hz": vcg.allocation.total_rate_increase_bps / w,
        "vcg_payment_total_bits_per_hz": float(vcg.payments.sum() / w),
        "fair_total_bits_per_hz": fair.total_rate_increase_bps / w,
    }
    checks = {
        "vcg_payments_bits_per_hz": [float(p) / w for p in vcg.payments],
        "vcg_power_w": float(vcg.allocation.powers.sum()),
        "fair_power_w": float(fair.powers.sum()),
        "min_power_w": float(min(vcg.allocation.powers.min(), fair.powers.min())),
        "budget_w": scenario.relay_budget_w,
    }
    return {"row": row, "checks": checks}


def run_unit(workload: str, scenario, unit_input) -> dict:
    """Drive one unit; returns its report row and the values the checks need."""
    if workload == "two_user_sweep":
        return _sweep_unit(scenario, unit_input)
    if workload == "multi_user":
        return _multi_unit(scenario, unit_input[1])
    return _oracle_unit(scenario)


def emit(workload: str, rows: list) -> None:
    """Serialise the unit rows to CSV and JSON text as the experiments layer does."""
    columns = tuple(rows[0].keys())
    report = api.Report(name=workload, columns=columns, rows=tuple(rows), meta={"workload": workload})
    api.report_to_csv(report)
    api.report_to_json(report)


# run_multi_user column -> the per-unit column it averages over topologies
STUDY_COLUMNS = (
    ("mean_total_bits_per_hz", "total_bits_per_hz"),
    ("mean_positive_variance", "positive_variance"),
    ("mean_utilization", "utilization"),
    ("mean_price", "price"),
    ("calibrated_fraction", "calibrated"),
)


def selfcheck(workload: str, seed: int) -> list[str]:
    """Problems found when the per-unit drive is compared with the experiments layer."""
    problems: list[str] = []
    if workload == "two_user_sweep":
        spec = api.TwoUserSweepSpec(relay_y_min=-10.0, relay_y_max=10.0)
        report = api.run_two_user_sweep(spec)
        full = api.TwoUserSweepSpec()
        for ref in report.rows:
            y = ref["relay_y_m"]
            mine = _sweep_unit(api.build_two_user_scenario(full, y), y)["row"]
            if mine != ref:
                problems.append(f"sweep row at y={y} differs from run_two_user_sweep")
        return problems

    if workload == "multi_user":
        spec = api.MultiUserSpec(n_topologies=MULTI_USER_TOPOLOGIES, seed=POPULATION_SEED)
    else:
        spec = api.MultiUserSpec(n_users=ORACLE_USERS, n_topologies=ORACLE_UNITS, seed=POPULATION_SEED)
    if not np.array_equal(api.sample_topologies(spec), _population(spec.n_topologies, spec.n_users)):
        problems.append("benchmark population differs from sample_topologies")
    if workload == "oracle_vcg":
        return problems

    # a small study: same code path as the benchmark units, cheap enough to repeat
    spec = api.MultiUserSpec(n_users=4, n_topologies=2, seed=seed)
    report = api.run_multi_user(spec)
    topologies = api.sample_topologies(spec)
    for ref in report.rows:
        budget = ref["relay_power_w"]
        units_here = [
            _multi_unit(api.scenario_from_topology(spec, topologies[t], budget), budget)["row"]
            for t in range(spec.n_topologies)
        ]
        mine: dict = {"relay_power_w": budget}
        for kind in KINDS:
            for study_col, unit_col in STUDY_COLUMNS:
                mine[f"{kind}_{study_col}"] = float(np.mean([u[f"{kind}_{unit_col}"] for u in units_here]))
        if mine != ref:
            problems.append(f"multi-user row at budget {budget} differs from run_multi_user")
    return problems
