"""Layer tracing for the benchmark, installed from outside the package.

Every public function of a `relayauction` module is wrapped at each place
another module (or the benchmark, through the package namespace) binds it, so
each wrapper knows both the caller layer and the callee layer.  A few calls
inside one module are wrapped too, because the per-layer metrics count them.

Time is charged exclusively: at every boundary the clock time since the last
boundary goes to the layer on top of the call stack, so a layer's self time is
its span time minus the time of the spans it called into.  Calls are kept as
aggregated counters per (caller layer, callee layer, function) rather than as
individual spans, because the leaf layers are entered hundreds of thousands of
times per run.  Wrappers pass every argument and result through unchanged, so
a traced run computes bit-identical outputs.

Which end-to-end metric each layer metric should move, and where:

- experiments.build/emit -> setup_s on multi_user and oracle_vcg;
- dynamics.calibrate_price, threshold_price, response_factors -> total_s and
  unit_ms_p50 on two_user_sweep (one monotone price search, ROADMAP item 2);
- dynamics.solve_ne and iterate.* -> unit_ms_tail on two_user_sweep and
  multi_user; no change expected on oracle_vcg;
- auction.power_br, snr_br, critical_prices -> total_s and unit_ms_p50 on
  multi_user (closed-form best response, ROADMAP item 1); none on oracle_vcg;
- numutil.golden_max auction_evals / oracles_evals -> total_s on multi_user /
  oracle_vcg; numutil.bisect -> the price searches;
- channel.rate_increase calls and elems -> total_s everywhere (vectorising
  lowers calls while elems hold);
- oracles.* -> total_s and unit_ms_tail on oracle_vcg (ROADMAP item 3); small
  on two_user_sweep, absent on multi_user.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

LAYERS = ("experiments", "dynamics", "auction", "numutil", "channel", "oracles")

# calls inside one module that the per-layer metrics count
INTRA = {
    ("dynamics", "threshold_price"),
    ("dynamics", "response_factors"),
    ("dynamics", "iterate_best_response"),
    ("auction", "power_best_response_factor"),
    ("auction", "snr_best_response_factor"),
    ("auction", "power_critical_prices"),
    ("auction", "snr_critical_prices"),
    ("oracles", "efficient_allocation"),
}

# numutil searches whose objective or predicate evaluations are counted
SEARCHES = ("golden_max", "bisect_root", "bisect_transition", "expand_until")
CACHED = ("power_critical_prices", "snr_critical_prices")


class Tracer:
    def __init__(self) -> None:
        self.stack = ["bench"]
        self.last = time.perf_counter()
        self.self_s: dict = defaultdict(float)
        # (caller, layer, name) -> [calls, seconds]
        self.calls: dict = defaultdict(lambda: [0, 0.0])
        # channel.rate_increase: [scalar calls, scalar s, array calls, array s, array elems]
        self.rate = [0, 0.0, 0, 0.0, 0]
        self.evals: dict = defaultdict(int)  # (caller, search) -> evaluations
        self.iterate = [0, 0, 0]  # runs, steps, max steps
        self.cache_keys: set = set()

    def finish(self) -> None:
        now = time.perf_counter()
        self.self_s[self.stack[-1]] += now - self.last
        self.last = now

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, caller: str, layer: str, name: str, fn):
        rec = self.calls[(caller, layer, name)]
        stack, self_s, clock = self.stack, self.self_s, time.perf_counter
        tracer = self
        before = self._before(caller, name)
        after = self._after(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            t0 = clock()
            self_s[stack[-1]] += t0 - tracer.last
            stack.append(layer)
            tracer.last = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self_s[layer] += t1 - tracer.last
                stack.pop()
                tracer.last = t1
                rec[0] += 1
                rec[1] += t1 - t0
            if after is not None:
                after(args, kwargs, t1 - t0, result)
            return result

        return wrapper

    def _before(self, caller: str, name: str):
        if name not in SEARCHES:
            return None
        evals = self.evals
        key = (caller, name)

        def count_evals(args, kwargs):
            # the objective or predicate is the first parameter of every search
            f = args[0] if args else kwargs.pop("f" if "f" in kwargs else "pred")

            def counted(x):
                evals[key] += 1
                return f(x)

            return (counted,) + tuple(args[1:]), kwargs

        return count_evals

    def _after(self, name: str):
        if name == "rate_increase":
            rate = self.rate

            def record_elems(args, kwargs, dt, result):
                p = args[1] if len(args) > 1 else kwargs["p_rd"]
                if getattr(p, "ndim", 0) == 0:
                    rate[0] += 1
                    rate[1] += dt
                else:
                    rate[2] += 1
                    rate[3] += dt
                    rate[4] += p.size

            return record_elems
        if name in CACHED:
            keys = self.cache_keys

            def record_key(args, kwargs, dt, result):
                keys.add((name, args, tuple(sorted(kwargs.items()))))

            return record_key
        if name == "iterate_best_response":
            it = self.iterate

            def record_steps(args, kwargs, dt, result):
                it[0] += 1
                it[1] += result.n_steps
                it[2] = max(it[2], result.n_steps)

            return record_steps
        return None

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Interpose on every cross-layer binding of a public package function."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        owners = {f"{package.__name__}.{layer}": layer for layer in LAYERS}
        callers = [("bench", package)] + list(modules.items())
        for caller, module in callers:
            for name, obj in list(vars(module).items()):
                layer = owners.get(getattr(obj, "__module__", None))
                if name.startswith("_") or layer is None or isinstance(obj, type) or not callable(obj):
                    continue
                if layer == caller and (layer, name) not in INTRA:
                    continue
                setattr(module, name, self._wrap(caller, layer, name, obj))

    # -- reporting ----------------------------------------------------------

    def _sum(self, layer: str, names) -> tuple[int, float]:
        calls, secs = 0, 0.0
        for (_, lay, name), (c, s) in self.calls.items():
            if lay == layer and name in names:
                calls += c
                secs += s
        return calls, secs

    def metrics(self) -> dict:
        """Per-layer metrics by name: (value, unit)."""
        self.finish()
        m: dict = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self.self_s.get(layer, 0.0), "s")

        _, build = self._sum("experiments", ("build_two_user_scenario", "scenario_from_topology"))
        _, emit = self._sum("experiments", ("report_to_csv", "report_to_json"))
        m["experiments.build.time_s"] = (build, "s")
        m["experiments.emit.time_s"] = (emit, "s")

        for metric, layer, names in (
            ("dynamics.calibrate_price", "dynamics", ("calibrate_price",)),
            ("dynamics.threshold_price", "dynamics", ("threshold_price",)),
            ("dynamics.solve_ne", "dynamics", ("solve_ne",)),
            ("auction.power_br", "auction", ("power_best_response_factor",)),
            ("auction.snr_br", "auction", ("snr_best_response_factor",)),
            ("auction.critical_prices", "auction", CACHED),
            ("oracles.vcg_auction", "oracles", ("vcg_auction",)),
            ("oracles.efficient_allocation", "oracles", ("efficient_allocation",)),
        ):
            calls, secs = self._sum(layer, names)
            m[f"{metric}.calls"] = (calls, "count")
            m[f"{metric}.time_s"] = (secs, "s")
        m["dynamics.response_factors.calls"] = (self._sum("dynamics", ("response_factors",))[0], "count")
        m["oracles.fair_allocation.time_s"] = (self._sum("oracles", ("fair_allocation",))[1], "s")

        runs, steps, max_steps = self.iterate
        m["dynamics.iterate.runs"] = (runs, "count")
        m["dynamics.iterate.steps"] = (steps, "count")
        m["dynamics.iterate.max_steps"] = (max_steps, "count")

        cp_calls = m["auction.critical_prices.calls"][0]
        m["auction.critical_prices.repeat_ratio"] = (
            cp_calls / len(self.cache_keys) if self.cache_keys else 0.0,
            "ratio",
        )

        golden = self._sum("numutil", ("golden_max",))[0]
        m["numutil.golden_max.calls"] = (golden, "count")
        for caller in ("auction", "oracles"):
            m[f"numutil.golden_max.{caller}_evals"] = (self.evals.get((caller, "golden_max"), 0), "count")
        bisects = ("bisect_root", "bisect_transition", "expand_until")
        m["numutil.bisect.calls"] = (self._sum("numutil", bisects)[0], "count")
        m["numutil.bisect.evals"] = (
            sum(n for (_, name), n in self.evals.items() if name in bisects),
            "count",
        )

        s_calls, s_time, a_calls, a_time, a_elems = self.rate
        m["channel.rate_increase.calls"] = (s_calls + a_calls, "count")
        m["channel.rate_increase.elems"] = (s_calls + a_elems, "count")
        m["channel.rate_increase.us_per_scalar_call"] = (
            s_time / s_calls * 1e6 if s_calls else 0.0,
            "us",
        )
        m["channel.rate_increase.ns_per_elem"] = (a_time / a_elems * 1e9 if a_elems else 0.0, "ns")
        return m

    def table(self) -> list:
        """Every traced binding: caller, callee layer, function, calls, seconds."""
        return [
            [caller, layer, name, calls, secs]
            for (caller, layer, name), (calls, secs) in sorted(self.calls.items())
            if calls
        ]
