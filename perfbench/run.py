"""Relay-auction benchmark: end-to-end timings and traced per-layer counts.

Run from the repository root:

    python3 perfbench/run.py --workload two_user_sweep --seed 1 --seconds 40 --trace 0

Workloads (units and inputs are described in workloads.py):

- two_user_sweep: the paper's 81-position relay sweep.  N=2, so per-call
  overhead, price-search evaluations and iteration counts dominate; the
  oracle takes its n=2 grid path (ROADMAP items 1-3, item 3's n=2 side).
- multi_user: 20-user population-study scenarios.  Per-user critical prices
  and the power best response dominate; no oracle runs (ROADMAP items 1-2).
- oracle_vcg: 4-user VCG and fair oracles, the only path into the n>3
  multistart pairwise-transfer search; no auction runs (ROADMAP item 3).

Tier-1 test time is not a workload: its makeup changes whenever tests change.
`cli` is argparse over `experiments`, so no workload goes through it.

Every repetition runs in a fresh interpreter with BLAS/OpenMP pinned to one
thread, so no cache of the package carries over between repetitions.  With
--trace 0 the run first times SETUP_PROBES interpreter set-ups, then repeats
the workload while another repetition fits in --seconds (at least once).

The host's speed swings by up to 2x within seconds and drifts by 20-30% over
minutes, so every time is reported at a reference speed (speed.py): a unit's
CPU time is scaled by the host-speed probes taken before, during and after
it.  A set-up is timed against the start of a bare interpreter instead (see
measure()).  The clock readings before scaling are printed with the details.
It reports, with tracing off:

- total_s: median time of a repetition to drive all units and emit the
  report;
- unit_ms_p50: median over units of each unit's median latency;
- unit_ms_tail: unit latency at the highest percentile with at least ten
  units beyond it (the percentile and sample counts are printed before);
- setup_s: median time from interpreter start to the first unit being ready,
  in multiples of a bare interpreter start times REFERENCE_START_S;
- peak_rss_mb: median peak resident memory of a repetition's process.

With --trace 1 the run checks the per-unit drive against the experiments
layer, runs one untraced repetition, then traced ones while another fits in
--seconds (at least one), and reports the median of every per-layer metric
of tracer.py plus trace.overhead_ratio (traced over untraced wall time).
Counts must repeat exactly between traced repetitions; the minimum and
maximum of every per-layer value are printed with the details.

Every unit's output is checked for the model invariants, compared with the
other repetitions (the code is deterministic, so outputs must be identical,
traced or not) and, for the reference seed, with the stored reference.  The
last line of standard output is the result; the line before it holds the
details: environment, sample counts, percentiles, spreads and fail_rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from speed import REFERENCE_PROBE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "relayauction"
WORKLOADS = ("two_user_sweep", "multi_user", "oracle_vcg")
SETUP_PROBES = 10
# wall time of a bare interpreter importing numpy at the reference speed (the
# median on a 2-vCPU VM with Python 3.11 and numpy 2.4); set-up is reported
# in these units, see measure()
REFERENCE_START_S = 0.15
# a run must end within 180 s; never let a child run past this point
HARD_LIMIT_S = 170.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildFailed(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED="0", **PINNED_THREADS)

    def child(self, mode: str) -> tuple[dict, float]:
        """Run one worker to completion; returns its result and its duration."""
        remaining = HARD_LIMIT_S - (time.monotonic() - self.start)
        if remaining <= 0.0:
            raise ChildFailed("time limit reached")
        t_spawn = time.monotonic()
        cfg = {"root": str(ROOT), "workload": self.workload, "seed": self.seed, "mode": mode, "t_spawn": t_spawn}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} worker killed at the time limit") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise ChildFailed(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1]), time.monotonic() - t_spawn

    def bare_start(self) -> float:
        """Wall time of an interpreter that only imports numpy."""
        t0 = time.monotonic()
        try:
            subprocess.run([sys.executable, "-c", "import numpy"], env=self.env, capture_output=True, check=True, timeout=60)
        except subprocess.SubprocessError as exc:
            raise ChildFailed(f"bare interpreter failed: {exc}") from exc
        return time.monotonic() - t0

    def fits(self, durations: list, seconds: float) -> bool:
        """Whether one more step of the typical duration ends within the run."""
        elapsed = time.monotonic() - self.start
        return elapsed + statistics.median(durations) <= min(seconds, HARD_LIMIT_S)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def tail(values: list) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n



class Audit:
    """Counts unit attempts and failures, and collects what went wrong."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_outputs: list | None = None
        ref = checks.load_reference(workload)
        self.reference = ref["rows"] if ref["seed"] in (None, seed) else None

    def note(self, problem: str) -> None:
        self.problems.append(problem)

    def repetition(self, label: str, result: dict) -> None:
        outputs, errors = result["outputs"], result["errors"]
        if self.first_outputs is None:
            self.first_outputs = outputs
        if self.reference is not None and len(self.reference) != len(outputs):
            self.note(f"reference holds {len(self.reference)} units, the workload {len(outputs)}")
            self.reference = None
        for k, (out, err) in enumerate(zip(outputs, errors)):
            self.attempted += 1
            found = []
            if err is not None:
                found.append(err.strip().splitlines()[-1])
            else:
                found += checks.unit_problems(self.workload, out)
                if self.reference is not None:
                    found += checks.reference_problems(self.reference[k], out["row"])
                if out != self.first_outputs[k]:
                    found.append("output differs from the first repetition")
            if found:
                self.failed += 1
                self.problems += [f"{label} unit {k}: {p}" for p in found]


def measure(runner: Runner, audit: Audit, seconds: float) -> tuple[dict, dict]:
    # A set-up is mostly interpreter start and imports, a kind of work whose
    # speed on this host moves by 20-30% from one run to the next and follows
    # the compute probes of speed.py poorly.  Each set-up is therefore divided
    # by the start of a bare interpreter that imports numpy, spawned just
    # before it; the quotient moves with the package's share alone.
    bare, setups = [], []
    for _ in range(SETUP_PROBES):
        bare.append(runner.bare_start())
        setups.append(runner.child("setup")[0]["setup_s"])
    setup_ratios = [s / b for s, b in zip(setups, bare)]
    reps, durations = [], []
    while not reps or runner.fits(durations, seconds):
        try:
            result, took = runner.child("run")
        except ChildFailed as exc:
            if not reps:
                raise
            audit.note(str(exc))
            break
        audit.repetition(f"rep {len(reps)}", result)
        reps.append(result)
        durations.append(took)

    def per_unit(key: str) -> list:
        return [statistics.median(r[key][k] for r in reps) * 1e3 for k in range(len(reps[0][key]))]

    unit_ms, raw_unit_ms = per_unit("unit_ref_s"), per_unit("unit_s")
    tail_ms, tail_pct = tail(unit_ms)
    metrics = {
        "total_s": (statistics.median(r["total_ref_s"] for r in reps), "s"),
        "unit_ms_p50": (statistics.median(unit_ms), "ms"),
        "unit_ms_tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup_ratios) * REFERENCE_START_S, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    details = {
        "env": reps[0]["env"],
        "repetitions": len(reps),
        "units": len(unit_ms),
        "unit_samples": len(unit_ms) * len(reps),
        "unit_ms_tail_percentile": tail_pct,
        "reference_probe_s": REFERENCE_PROBE_S,
        "rep_total_s": [r["total_ref_s"] for r in reps],
        "reference_start_s": REFERENCE_START_S,
        "setup_over_bare_start": setup_ratios,
        # the same times as the clock read them, before scaling
        "raw_rep_wall_s": [r["wall_s"] for r in reps],
        "raw_unit_ms_p50": statistics.median(raw_unit_ms),
        "raw_unit_ms_tail": tail(raw_unit_ms)[0],
        "raw_setup_s": setups,
        "raw_bare_start_s": bare,
    }
    return metrics, details


def measure_traced(runner: Runner, audit: Audit, seconds: float) -> tuple[dict, dict]:
    problems = runner.child("selfcheck")[0]["problems"]
    for p in problems:
        audit.note(f"selfcheck: {p}")
    plain = runner.child("run")[0]
    audit.repetition("untraced", plain)
    traced, durations = [], []
    while not traced or runner.fits(durations, seconds):
        try:
            result, took = runner.child("trace")
        except ChildFailed as exc:
            if not traced:
                raise
            audit.note(str(exc))
            break
        audit.repetition(f"traced {len(traced)}", result)
        traced.append(result)
        durations.append(took)

    layers = [r["layers"] for r in traced]
    metrics, layer_spread = {}, {}
    for name, (_, unit) in layers[0].items():
        values = [layer[name][0] for layer in layers]
        if unit in ("count", "ratio") and len(set(values)) > 1:
            audit.note(f"{name} differs between traced repetitions: {values}")
        metrics[name] = (statistics.median(values), unit)
        layer_spread[name] = [min(values), max(values)]
    traced_walls = [r["wall_s"] for r in traced]
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls) / plain["wall_s"], "ratio")
    details = {
        "env": plain["env"],
        "selfcheck_problems": problems,
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced_walls,
        "layer_min_max": layer_spread,
        "calls": traced[0]["table"],
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package sources not found at {PACKAGE}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    audit = Audit(args.workload, args.seed)
    measure_fn = measure_traced if args.trace else measure
    try:
        metrics, details = measure_fn(runner, audit, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    details.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        commit=git_commit(),
        source_sha256=source_digest(),
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        pinned_threads=PINNED_THREADS,
        reference_checked=audit.reference is not None,
        reference_rtol=checks.REFERENCE_RTOL,
        fail_rate=audit.failed / audit.attempted,
        problems=audit.problems[:50],
        run_s=time.monotonic() - runner.start,
    )
    print(json.dumps({"details": details}))
    result = {
        "correct": not audit.problems,
        "attempted": audit.attempted,
        "failed": audit.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
