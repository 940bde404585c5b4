"""Scenario builders, the two benchmark experiments, and report output.

The two-user sweep moves a relay along a vertical line through a fixed
four-node geometry and reports, per position, the centralized pivot-auction
benchmark and both share auctions at prices tuned for 99% utilization.  The
multi-user experiment averages both auctions over seeded random topologies
for several relay power budgets.  Both read each auction through one
readout, `_auction_columns`: the sweep writes its columns per position, and
the study's row is the column means of its per-topology rows.  Reports are
deterministic functions of (spec, seed) and are written as CSV plus a
full-precision JSON mirror.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .auction import POWER, SNR, AuctionParams
from .channel import NetworkScenario, SystemParams, scenario_from_geometry
from .dynamics import EquilibriumResult, calibrate_price, solve_ne
from .oracles import efficient_allocation, vcg_auction

RNG_ALGORITHM = "numpy.random.Generator(PCG64)"


@dataclass(frozen=True)
class _Settings:
    """The radio and auction settings both experiments share; each report's meta repeats them."""

    source_power_w: float = 0.01
    noise_w: float = 1e-11
    bandwidth_hz: float = 1e6
    pathloss_exponent: float = 4.0
    reserve_bid: float = 1.0
    target_utilization: float = 0.99

    @property
    def system(self) -> SystemParams:
        return SystemParams(self.bandwidth_hz, self.noise_w, self.pathloss_exponent)


def _settings_meta(spec: _Settings) -> dict:
    """The shared settings by name, as both reports' meta records them."""
    return {f.name: getattr(spec, f.name) for f in fields(_Settings)}


@dataclass(frozen=True)
class TwoUserSweepSpec(_Settings):
    """Fixed two-user geometry with the relay swept along x = relay_x."""

    source_1: tuple[float, float] = (200.0, -25.0)
    source_2: tuple[float, float] = (0.0, 25.0)
    dest_1: tuple[float, float] = (0.0, -25.0)
    dest_2: tuple[float, float] = (200.0, 25.0)
    relay_x: float = 80.0
    relay_y_min: float = -200.0
    relay_y_max: float = 200.0
    relay_y_step: float = 5.0
    relay_budget_w: float = 0.1
    vcg_delta: float = 0.0
    oracle_grid_n: int = 4096  # ignored; read by perfbench/workloads.py::_sweep_unit until ROADMAP item 1

    def relay_ys(self) -> np.ndarray:
        """The relay's y positions: relay_y_min and each whole step (to 1e-9 of one) up to relay_y_max."""
        lo, hi, step = self.relay_y_min, self.relay_y_max, self.relay_y_step
        if not (np.isfinite([lo, hi, step]).all() and step > 0 and lo <= hi):
            raise ValueError(f"need a finite step > 0 and y_min <= y_max, got {lo}, {hi}, {step}")
        return np.minimum(lo + step * np.arange(math.floor((hi - lo) / step + 1e-9) + 1), hi)


@dataclass(frozen=True)
class MultiUserSpec(_Settings):
    """Random-topology population study over a set of relay power budgets."""

    n_users: int = 20
    field_min: float = -150.0
    field_max: float = 150.0
    relay: tuple[float, float] = (0.0, 0.0)
    relay_powers: tuple[float, ...] = (0.04, 0.1, 0.3, 1.0)
    n_topologies: int = 100
    seed: int = 0


@dataclass(frozen=True)
class Report:
    """Plot-ready tabular results plus provenance metadata."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[dict, ...]
    meta: dict = field(default_factory=dict)


def build_two_user_scenario(spec: TwoUserSweepSpec, relay_y: float) -> NetworkScenario:
    """Scenario for one relay position of the two-user sweep."""
    if not spec.relay_y_min <= relay_y <= spec.relay_y_max:
        raise ValueError("relay_y outside the sweep range")
    return scenario_from_geometry(
        sources=(spec.source_1, spec.source_2),
        destinations=(spec.dest_1, spec.dest_2),
        relay=(spec.relay_x, relay_y),
        source_power_w=spec.source_power_w,
        system=spec.system,
        relay_budget_w=spec.relay_budget_w,
    )


def positive_increase_variance(values: Iterable[float]) -> float:
    """Population variance of the strictly positive entries; 0 below two entries."""
    v = np.asarray(values, dtype=float) if isinstance(values, np.ndarray) else np.fromiter(values, dtype=float)
    pos = v[v > 0.0]
    if pos.size < 2:
        return 0.0
    mean = np.add.reduce(pos) / pos.size  # np.var's steps, as ufunc calls
    dev = pos - mean
    return float(np.add.reduce(dev * dev) / pos.size)


def _auction_columns(scenario: NetworkScenario, kind: str, spec: _Settings) -> dict:
    """Calibrate one auction to the spec's target utilization: its columns, users 1-2's rates among them."""
    search = calibrate_price(scenario, kind, target_utilization=spec.target_utilization)
    eq = solve_ne(scenario, AuctionParams(kind, search.price, spec.reserve_bid))
    if not isinstance(eq, EquilibriumResult):
        raise RuntimeError(f"no equilibrium at calibrated price {search.price!r}")
    per_user = eq.rate_increase_bps / spec.bandwidth_hz
    columns = {
        "price": search.price,
        "total_bits_per_hz": float(per_user.sum()),
        **{f"user{i}_bits_per_hz": float(v) for i, v in enumerate(per_user[:2], 1)},
        "utilization": eq.utilization,
        "calibrated": float(search.feasible),
        "positive_variance": positive_increase_variance(per_user),
    }
    return {f"{kind}_{col}": value for col, value in columns.items()}


def run_two_user_sweep(spec: TwoUserSweepSpec = TwoUserSweepSpec()) -> Report:
    """Sweep the relay along its line and benchmark all three mechanisms."""
    rows = []
    for y in spec.relay_ys():
        scenario = build_two_user_scenario(spec, float(y))
        row: dict = {"relay_y_m": float(y)}
        vcg = vcg_auction(scenario, delta=spec.vcg_delta)
        gains = vcg.allocation.per_user_rate_increase_bps / spec.bandwidth_hz
        row["vcg_total_bits_per_hz"] = float(gains.sum())
        row["vcg_user1_bits_per_hz"] = float(gains[0])
        row["vcg_user2_bits_per_hz"] = float(gains[1])
        row["vcg_utilization"] = float(vcg.allocation.powers.sum() / spec.relay_budget_w)
        for kind in (POWER, SNR):
            row.update(_auction_columns(scenario, kind, spec))
        rows.append(row)

    columns = tuple(rows[0].keys())
    meta = {
        "experiment": "two-user-sweep",
        "relay_x_m": spec.relay_x,
        "relay_y_step_m": spec.relay_y_step,
        **_settings_meta(spec),
        "relay_budget_w": spec.relay_budget_w,
        "vcg_delta": spec.vcg_delta,
    }
    return Report(name="two_user_sweep", columns=columns, rows=tuple(rows), meta=meta)


def sample_topologies(spec: MultiUserSpec) -> np.ndarray:
    """Seeded node draws: (topology, user, [sx, sy, dx, dy]) uniform on the field."""
    rng = np.random.default_rng(spec.seed)
    return rng.uniform(
        spec.field_min, spec.field_max, size=(spec.n_topologies, spec.n_users, 4)
    )


def scenario_from_topology(
    spec: MultiUserSpec, nodes: np.ndarray, relay_budget_w: float
) -> NetworkScenario:
    sources = [(float(r[0]), float(r[1])) for r in nodes]
    dests = [(float(r[2]), float(r[3])) for r in nodes]
    return scenario_from_geometry(
        sources=sources,
        destinations=dests,
        relay=spec.relay,
        source_power_w=spec.source_power_w,
        system=spec.system,
        relay_budget_w=relay_budget_w,
    )


# study column -> the per-topology column it averages, for each auction kind
_STUDY_COLUMNS = (
    ("mean_total_bits_per_hz", "total_bits_per_hz"),
    ("mean_positive_variance", "positive_variance"),
    ("mean_utilization", "utilization"),
    ("mean_price", "price"),
    ("calibrated_fraction", "calibrated"),
)


def run_multi_user(spec: MultiUserSpec = MultiUserSpec()) -> Report:
    """Average both auctions over seeded topologies for each power budget.

    The same topologies are reused across budgets so that curves over the
    budget are paired comparisons.  The efficient welfare is included only
    for three users or fewer: perfbench/workloads.py::selfcheck compares the
    study's rows with its own per-unit rows for equality, so a column at
    full scale waits for a change of the benchmark.
    """
    if spec.n_topologies < 1 or not spec.relay_powers:
        raise ValueError(f"need at least one topology and one budget, got {spec.n_topologies}, {spec.relay_powers}")
    with_oracle = spec.n_users <= 3
    means = [(f"{kind}_{mean}", f"{kind}_{col}") for kind in (POWER, SNR) for mean, col in _STUDY_COLUMNS]
    means += [("efficient_mean_total_bits_per_hz", "efficient_total_bits_per_hz")] if with_oracle else []
    topologies = sample_topologies(spec)
    rows = []
    for budget in spec.relay_powers:
        units = []
        for nodes in topologies:
            scenario = scenario_from_topology(spec, nodes, float(budget))
            unit = {}
            for kind in (POWER, SNR):
                unit.update(_auction_columns(scenario, kind, spec))
            if with_oracle:
                eff = efficient_allocation(scenario, delta=0.0)
                unit["efficient_total_bits_per_hz"] = eff.total_rate_increase_bps / spec.bandwidth_hz
            units.append(unit)
        row = {"relay_power_w": float(budget)}
        row.update((mean, float(np.mean([u[col] for u in units]))) for mean, col in means)
        rows.append(row)

    columns = tuple(rows[0].keys())
    meta = {
        "experiment": "multi-user",
        "n_users": spec.n_users,
        "n_topologies": spec.n_topologies,
        "seed": spec.seed,
        "rng": RNG_ALGORITHM,
        "field_m": [spec.field_min, spec.field_max],
        "relay_m": list(spec.relay),
        **_settings_meta(spec),
    }
    return Report(name="multi_user", columns=columns, rows=tuple(rows), meta=meta)


def _format_cell(value: float) -> str:
    return f"{float(value):.12g}"


def report_to_csv(report: Report) -> str:
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(_format_cell(row[c]) for c in report.columns))
    return "\n".join(lines) + "\n"


def report_to_json(report: Report) -> str:
    return json.dumps(vars(report), indent=2, sort_keys=True) + "\n"


def emit_report(
    report: Report, out_dir: str | Path, formats: Iterable[str] = ("csv", "json")
) -> list[Path]:
    """Write the report files; bytes are a pure function of the report."""
    if not report.rows:
        raise ValueError("refusing to write an empty report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in formats:
        if fmt == "csv":
            path = out / f"{report.name}.csv"
            path.write_text(report_to_csv(report), encoding="utf-8")
        elif fmt == "json":
            path = out / f"{report.name}.json"
            path.write_text(report_to_json(report), encoding="utf-8")
        else:
            raise ValueError(f"unknown report format: {fmt!r}")
        written.append(path)
    return written


def report_from_json(text: str) -> Report:
    doc = json.loads(text)
    values = {f.name: doc[f.name] for f in fields(Report)}
    # the report's columns and rows are tuples, JSON lists
    return Report(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})
