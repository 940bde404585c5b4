"""The benchmark's output gate run in tier-1: every unit's invariants and reference rows, traced and not.

perfbench/ is loaded by path and only read: a unit that breaks a model invariant or leaves its
stored reference row, or a package change that breaks the layer tracer, fails here before a
benchmark run does.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
WORKLOADS = ("two_user_sweep", "multi_user", "oracle_vcg")
SEED = 0  # the seed of the stored reference rows


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads, checks = _load("workloads"), _load("checks")


def _rows(workload: str, units=None) -> list:
    inputs = workloads.make_inputs(workload, SEED)[:units]
    scenarios = workloads.build_scenarios(workload, inputs)
    return [workloads.run_unit(workload, sc, x) for sc, x in zip(scenarios, inputs)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_unit_passes_the_benchmark_checks_and_reference(workload):
    reference = checks.load_reference(workload)
    assert reference["seed"] in (None, SEED)
    outputs = _rows(workload)
    assert len(outputs) == len(reference["rows"])
    for k, (out, ref) in enumerate(zip(outputs, reference["rows"])):
        assert checks.unit_problems(workload, out) == [], k
        assert checks.reference_problems(ref, out["row"]) == [], k


TRACED = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import relayauction
from tracer import Tracer

tracer = Tracer()
tracer.install(relayauction)
import workloads

rows = {{}}
for workload in {workloads!r}:
    inputs = workloads.make_inputs(workload, {seed!r})[:1]
    scenario = workloads.build_scenarios(workload, inputs)[0]
    rows[workload] = workloads.run_unit(workload, scenario, inputs[0])["row"]
print(json.dumps({{"rows": rows, "metrics": sorted(tracer.metrics()), "table": len(tracer.table())}}))
"""


def test_traced_units_give_the_untraced_rows():
    # the layer tracer, installed as `perfbench/run.py --trace 1` installs it, passes every
    # value through: one unit per workload gives its untraced row, and every per-layer metric
    # the benchmark declares is reported (trace.overhead_ratio is run.py's own)
    script = TRACED.format(src=str(ROOT / "src"), bench=str(BENCH), workloads=WORKLOADS, seed=SEED)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout.strip().splitlines()[-1])
    for workload in WORKLOADS:
        assert traced["rows"][workload] == json.loads(json.dumps(_rows(workload, 1)[0]["row"]))
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - set(traced["metrics"]) == {"trace.overhead_ratio"}
    assert traced["table"] > 0
