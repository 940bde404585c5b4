"""Write the reference unit rows that run.py compares every run against.

Run from the repository root, once per workload, only when a change is meant
to move the benchmark's outputs (and say so in the change):

    python3 perfbench/make_reference.py two_user_sweep

The sweep does not use the seed, so its reference holds for every seed; the
seeded workloads store the rows of REFERENCE_SEED.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the package on the path)
from checks import REFERENCE_DIR  # noqa: E402

REFERENCE_SEED = 0


def main(workload: str) -> None:
    inputs = workloads.make_inputs(workload, REFERENCE_SEED)
    scenarios = workloads.build_scenarios(workload, inputs)
    rows = [workloads.run_unit(workload, sc, x)["row"] for sc, x in zip(scenarios, inputs)]
    seed = None if workload == "two_user_sweep" else REFERENCE_SEED
    doc = {"workload": workload, "seed": seed, "rows": rows}
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
