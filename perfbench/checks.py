"""Output checks for benchmark units: model invariants and a stored reference.

The invariants hold for any correct implementation.  The reference holds the
unit rows of the reference seed at the commit that introduced the benchmark;
rows are compared at a relative tolerance of REFERENCE_RTOL with a small
absolute floor per quantity.  1e-4 admits the ~2.2e-6 relative drift in
best-response factors that a closed-form power best response showed against
the golden-section search, and the drift it induces in prices and rates, while
a wrong branch (a user zeroed, made divergent or given the whole budget)
moves a rate or a price by far more.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_RTOL = 1e-4
TARGET_UTILIZATION = 0.99  # TwoUserSweepSpec and MultiUserSpec defaults
# Calibration meets the target on the aggregate share of the best-response
# factors; the equilibrium's utilization comes from bids iterated to a relative
# residual of 1e-10 (dynamics.DEFAULT_TOL), so it may fall short of the target
# by that order (3.5e-11 seen).  A wrong price misses by far more.
UTILIZATION_SLACK = 1e-9
KINDS = ("power", "snr")
# payoffs are gains minus payments of equal size, so they carry rounding
PAYOFF_FLOOR_BITS_PER_HZ = -1e-12

# absolute floors by column suffix; columns not listed compare relatively only
ABS_FLOOR = {
    "_bits_per_hz": 1e-8,
    "_positive_variance": 1e-10,
    "_utilization": 1e-8,
}


def unit_problems(workload: str, out: dict) -> list[str]:
    """Invariant violations of one unit's output."""
    row, chk = out["row"], out["checks"]
    problems = []
    if workload in ("two_user_sweep", "multi_user"):
        for kind in KINDS:
            u = row[f"{kind}_utilization"]
            if not 0.0 <= u < 1.0:
                problems.append(f"{kind} utilization {u!r} outside [0, 1)")
            if row[f"{kind}_calibrated"] and u < TARGET_UTILIZATION - UTILIZATION_SLACK:
                problems.append(f"{kind} calibrated but utilization {u!r} below target")
            payoff = chk[f"{kind}_min_payoff_bits_per_hz"]
            if payoff < PAYOFF_FLOOR_BITS_PER_HZ:
                problems.append(f"{kind} equilibrium payoff {payoff!r} negative")
    payments = chk.get("vcg_payments_bits_per_hz", [])
    if any(p < 0.0 for p in payments):
        problems.append(f"negative VCG payment in {payments!r}")
    if workload == "oracle_vcg":
        budget = chk["budget_w"]
        for name in ("vcg_power_w", "fair_power_w"):
            if chk[name] > budget * (1.0 + 1e-12):
                problems.append(f"{name} {chk[name]!r} exceeds the budget {budget!r}")
        if chk["min_power_w"] < 0.0:
            problems.append("negative oracle power")
    return problems


def _close(column: str, a: float, b: float) -> bool:
    floor = next((v for suffix, v in ABS_FLOOR.items() if column.endswith(suffix)), 0.0)
    return math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=floor)


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def reference_problems(ref_row: dict, row: dict) -> list[str]:
    """Columns of a unit row that differ from the reference row."""
    if set(ref_row) != set(row):
        return [f"columns {sorted(row)} differ from reference {sorted(ref_row)}"]
    return [
        f"{c}: {row[c]!r} vs reference {ref_row[c]!r}"
        for c in ref_row
        if not _close(c, float(row[c]), float(ref_row[c]))
    ]
