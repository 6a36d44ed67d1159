"""Span tracing of instaqc's public functions, installed from outside the package.

A Tracer records one span per call of each wrapped function: name, start,
end and the index of the enclosing span (-1 at top level).  Spans stay in
memory until the traced run ends; `summarize` then turns them into the
per-layer metrics the benchmark reports.

`install` rebinds a wrapper in every instaqc module namespace that holds the
original function (the defining module, every module that imported it by
name, and the package root), so calls between modules are traced too.  The
returned list of bindings restores every name exactly with `uninstall`.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time

# (layer module, attribute) of every traced function.  "StateVector" is traced
# through StateVector.__post_init__, so it counts constructions.
TRACED = (
    ("statevec", "StateVector"),
    ("statevec", "apply_gate"),
    ("statevec", "measure_in_basis"),
    ("statevec", "project_out"),
    ("statevec", "tensor_product"),
    ("statevec", "sample_haar_state"),
    ("statevec", "orthonormal_basis_containing"),
    ("statevec", "fidelity"),
    ("circuit", "random_circuit"),
    ("circuit", "apply_circuit"),
    ("circuit", "inverse"),
    ("teleport", "prepare_offline"),
    ("teleport", "run_instantaneous"),
    ("teleport", "bell_measure_pairs"),
    ("teleport", "run_with_corrections"),
    ("teleport", "check_measurement"),
    ("strategies", "run_game"),
    ("strategies", "classical_basis_strategy"),
    ("strategies", "rsp_strategy"),
    ("strategies", "approximate_output"),
    ("cli", "main"),
)

# Functions whose per-call latency distribution is reported.
PERCENTILES = ("statevec.apply_gate", "statevec.measure_in_basis",
               "teleport.run_instantaneous", "teleport.run_with_corrections",
               "teleport.check_measurement")

# run_instantaneous at n = 4 is where small zgemm calls hit the OpenBLAS
# thread handoff; its latencies are also reported on their own.
HANDOFF_N = 4

# Functions whose state argument counts toward statevec.bytes_computed
# (16 B per complex128 amplitude).
_STATE_ARG = ("statevec.apply_gate", "statevec.measure_in_basis",
              "statevec.project_out")
_AMPLITUDE_BYTES = 16


class Tracer:
    """In-memory span recorder.  Single-threaded: spans nest strictly."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent]
        self._stack: list[int] = []
        self.bytes_computed = 0
        self.run_instantaneous = 0
        self.successes = 0
        self.handoff_us: list[float] = []
        self.game_trials = 0
        self.game_answered = 0

    def wrap(self, name: str, fn):
        """Return a wrapper of `fn` that records a span named `name`."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._before(name, args)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            self._after(name, args, result, span)
            return result
        return traced

    def _before(self, name, args):
        if name in _STATE_ARG:
            self.bytes_computed += _AMPLITUDE_BYTES << args[0].num_qubits
        elif name == "statevec.StateVector":
            self.bytes_computed += _AMPLITUDE_BYTES * len(args[0].amplitudes)

    def _after(self, name, args, result, span):
        if name == "teleport.run_instantaneous":
            self.run_instantaneous += 1
            self.successes += bool(result.success)
            if result.output_state.num_qubits == HANDOFF_N:
                self.handoff_us.append((span[2] - span[1]) * 1e6)
        elif name == "strategies.run_game":
            self.game_trials += result.trials
            self.game_answered += result.answered_count


def _instaqc_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "instaqc" or key.startswith("instaqc."))]


def install(tracer: Tracer):
    """Wrap every TRACED function; return the bindings for `uninstall`."""
    import instaqc.cli  # noqa: F401  (loads every layer module)

    modules = _instaqc_modules()
    bindings = []  # (namespace object, attribute, original value)
    for layer, attr in TRACED:
        name = f"{layer}.{attr}"
        owner = sys.modules[f"instaqc.{layer}"]
        original = getattr(owner, attr)
        if isinstance(original, type):
            hook = original.__dict__["__post_init__"]
            bindings.append((original, "__post_init__", hook))
            setattr(original, "__post_init__", tracer.wrap(name, hook))
            continue
        wrapper = tracer.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    bindings.append((module, key, original))
                    setattr(module, key, wrapper)
    return bindings


def uninstall(bindings) -> None:
    for namespace, attr, original in reversed(bindings):
        setattr(namespace, attr, original)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time covered by its direct children.

    Children of one span run one after another in a single thread, so the
    time they cover is the sum of their durations.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summarize(tracer: Tracer) -> dict:
    """Raw per-run figures: per-function call counts, total and self seconds,
    per-call microseconds for PERCENTILES, and the boundary counters."""
    funcs = {f"{layer}.{attr}": {"calls": 0, "total_s": 0.0, "self_s": 0.0}
             for layer, attr in TRACED}
    durations_us = {name: [] for name in PERCENTILES}
    for (name, start, end, _), own in zip(tracer.spans, self_times(tracer.spans)):
        entry = funcs[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
        if name in durations_us:
            durations_us[name].append((end - start) * 1e6)
    return {
        "functions": funcs,
        "durations_us": durations_us,
        "handoff_us": tracer.handoff_us,
        "bytes_computed": tracer.bytes_computed,
        "run_instantaneous": tracer.run_instantaneous,
        "successes": tracer.successes,
        "game_trials": tracer.game_trials,
        "game_answered": tracer.game_answered,
    }


def layer_metrics(summaries, overheads_s) -> dict:
    """Per-layer metrics from the summaries of several traced main() calls.

    Counts and seconds are means per main() call; percentiles and ratios
    pool every call.  Returns {metric name: (value, unit)}.
    """
    runs = len(summaries)
    out: dict[str, tuple[float, str]] = {}
    for layer, attr in TRACED:
        name = f"{layer}.{attr}"
        for key, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s")):
            total = sum(s["functions"][name][key] for s in summaries)
            out[f"{name}.{key}"] = (total / runs, unit)
    for name in PERCENTILES:
        pooled = [v for s in summaries for v in s["durations_us"][name]]
        out[f"{name}.p50_us"] = (_percentile(pooled, 50), "us")
        out[f"{name}.p99_us"] = (_percentile(pooled, 99), "us")
    handoff = [v for s in summaries for v in s["handoff_us"]]
    prefix = f"teleport.run_instantaneous.n{HANDOFF_N}"
    out[f"{prefix}.calls"] = (len(handoff) / runs, "count")
    out[f"{prefix}.p50_us"] = (_percentile(handoff, 50), "us")
    out[f"{prefix}.p99_us"] = (_percentile(handoff, 99), "us")
    out["statevec.bytes_computed"] = (
        sum(s["bytes_computed"] for s in summaries) / runs, "B")

    attempts = sum(s["run_instantaneous"] for s in summaries)
    successes = sum(s["successes"] for s in summaries)
    out["teleport.successes"] = (successes / runs, "count")
    out["teleport.success_ratio"] = (successes / attempts if attempts else 0.0, "ratio")
    trials = sum(s["game_trials"] for s in summaries)
    answered = sum(s["game_answered"] for s in summaries)
    out["strategies.trials"] = (trials / runs, "count")
    out["strategies.answered"] = (answered / runs, "count")
    out["strategies.answered_ratio"] = (answered / trials if trials else 0.0, "ratio")

    out["trace.runs"] = (float(runs), "count")
    out["trace.overhead_s"] = (statistics.median(overheads_s), "s")
    return out
