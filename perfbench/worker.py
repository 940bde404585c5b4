"""One repetition of a benchmark workload, run in a fresh interpreter by run.py.

Usage: python3 worker.py '<json config>' with keys root, workload, seed, mode
and t_spawn (the parent's time.monotonic() just before it started this
process).  Modes:

- setup: import the package, make the inputs, build the scenarios, stop;
- run: setup, then drive every unit and serialise the report;
- trace: like run, with the layer tracer installed first;
- selfcheck: compare the per-unit drive with the experiments layer.

Every unit is timed twice: by the clock (unit_s), and as its CPU time scaled
to the reference speed by the host-speed probes of speed.py taken before,
during and after it (unit_ref_s).  The CPU time of the probes is taken out
of both.  A traced run takes no probes within units, so that no layer's time
holds them.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _environment(package) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "package": package.__version__,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    src = Path(cfg["root"]) / "src"
    sys.path.insert(0, str(src))
    import relayauction

    if Path(relayauction.__file__).resolve().parent != (src / "relayauction").resolve():
        raise SystemExit(f"imported relayauction from {relayauction.__file__}, not from {src}")

    mode, workload, seed = cfg["mode"], cfg["workload"], cfg["seed"]
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(relayauction)
    import workloads
    from speed import SpeedProbe, scale

    if mode == "selfcheck":
        print(json.dumps({"problems": workloads.selfcheck(workload, seed)}))
        return 0

    inputs = workloads.make_inputs(workload, seed)
    scenarios = workloads.build_scenarios(workload, inputs)
    setup_s = time.monotonic() - cfg["t_spawn"]
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # the layer times of a traced run must not hold probes
    speed = SpeedProbe(sampling=tracer is None)
    unit_s, unit_ref_s, outputs, errors = [], [], [], []
    clock, cpu = time.perf_counter, time.thread_time
    start = clock()
    before = speed.probe()
    for scenario, unit_input in zip(scenarios, inputs):
        cost0 = speed.cost_s
        speed.start()
        t0, c0 = clock(), cpu()
        try:
            out, err = workloads.run_unit(workload, scenario, unit_input), None
        except Exception:  # one failing unit must not hide the others
            out, err = None, traceback.format_exc(limit=4)
        t1, c1 = clock(), cpu()
        inside = speed.stop()
        probes_s = speed.cost_s - cost0
        after = speed.probe()
        unit_s.append(t1 - t0 - probes_s)
        unit_ref_s.append((c1 - c0 - probes_s) * scale([before, *inside, after]))
        before = after
        outputs.append(out)
        errors.append(err)
    rows = [o["row"] for o in outputs if o is not None]
    c0 = cpu()
    if rows:
        workloads.emit(workload, rows)
    emit_ref_s = (cpu() - c0) * scale([before, speed.probe()])
    wall_s = clock() - start - speed.cost_s

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "unit_s": unit_s,
        "unit_ref_s": unit_ref_s,
        "total_ref_s": sum(unit_ref_s) + emit_ref_s,
        "outputs": outputs,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(relayauction),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["table"] = tracer.table()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
