"""Benchmark of the `instaqc` command line.

    python3 perfbench/run.py                 # every workload, tracing off
    python3 perfbench/run.py --workload teleport-repair --seed 3 --seconds 40 --trace 0

Run from the repository root.  Each invocation starts a fresh interpreter
with `src/` on PYTHONPATH, imports `instaqc.cli` and calls `main(argv)` with
the workload's flags and a seed drawn from --seed; invocations repeat, one at
a time, for about --seconds in all.  Every output is checked (checks.py).

--trace 0 reports the end-to-end metrics trials_per_s, setup_s and
peak_rss_mb: medians over the invocations, the two times rescaled to a
nominal machine speed (see _reference_s).  Failed checks over checks made
(failed_frac) is printed and carried by the result's "failed"/"attempted".
--trace 1 alternates untraced and traced invocations of the same argv and
reports the per-layer metrics of spans.py.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every check passed.  The benchmark
never sets the BLAS thread variables; it records them as found.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import check_output
from spans import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SECONDS = 40
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 50
# Time of _reference_s() on a 2.1 GHz Xeon vCPU; see _reference_s.
REFERENCE_NOMINAL_S = 0.14


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, import failure)."""


def _invoke(request: dict, work: Path) -> tuple[float, dict | None]:
    """Run child.py once; return (seconds until instaqc.cli was imported,
    the child's result or None if it failed)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(work / "child.err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            stdout=subprocess.PIPE, stderr=err, text=True, env=env, cwd=ROOT)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return float("nan"), None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        sys.stderr.write((work / "child.err").read_text())
        return setup_s, None
    return setup_s, json.loads(out.splitlines()[-1])


def _reference_s() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's current speed.

    On a shared host the speed of every process drifts by a third and more
    over minutes, with the neighbours' load.  Each invocation's times are
    rescaled by the mean of this time just before and just after it, so
    that the time metrics follow the program rather than the neighbours.
    The loop runs in this process, between invocations, and never touches
    instaqc.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(800_000):
        key = i % 97
        table[key] = table.get(key, 0) + (i * 3) % 11
    return time.perf_counter() - start


def _provenance(info: dict) -> dict:
    """Where and with what the run happened."""
    if not Path(info["instaqc_file"]).is_relative_to(SRC.resolve()):
        raise SetupError(f"imported instaqc from {info['instaqc_file']}, not {SRC}")
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        **info,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_at_start": os.getloadavg(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the full record."""
    if not (SRC / "instaqc" / "cli.py").is_file():
        raise SetupError(f"no instaqc sources under {SRC}")
    spec = WORKLOADS[name]
    seeds = random.Random(seed)
    samples, traced, failures, references = [], [], [], []
    tally = {"attempted": 0, "failed": 0}
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))

    def invoke_checked(mode: str, child_seed: int):
        out = work / "out.json"
        out.unlink(missing_ok=True)
        request = {"mode": mode, "argv": spec.argv(child_seed, str(out)),
                   "spans": str(OUT_DIR / f"{name}.spans.json")}
        setup_s, result = _invoke(request, work)
        ok = result is not None and result["exit_code"] == 0
        checks = check_output(spec, child_seed,
                              out.read_text() if ok and out.is_file() else None)
        bad = [check for check, passed in checks if not passed]
        tally["attempted"] += len(checks)
        tally["failed"] += len(bad)
        failures.extend(f"seed {child_seed} {mode}: {check}" for check in bad)
        return setup_s, result if ok else None

    try:
        # The first invocation fills the bytecode and page caches and reports
        # versions; it is checked but not timed.
        deadline = time.perf_counter() + seconds
        step_start = time.perf_counter()
        _, warm = invoke_checked("warmup", seeds.randrange(2**63))
        if warm is None:
            raise SetupError("the warm-up invocation of instaqc failed")
        provenance = _provenance(warm["info"])
        # Start another step only if one as long as the last still ends
        # before the deadline, so a run lasts about --seconds in all.
        while True:
            now = time.perf_counter()
            if (now + (now - step_start) > deadline
                    and (len(samples) >= MIN_INVOCATIONS or failures)):
                break
            step_start = now
            child_seed = seeds.randrange(2**63)
            modes = ("plain",)
            if trace:  # alternate which of the pair runs first
                modes = ("plain", "traced") if len(traced) % 2 else ("traced", "plain")
            references.append(_reference_s())
            pair = {mode: invoke_checked(mode, child_seed) for mode in modes}
            setup_s, plain = pair["plain"]
            if plain is not None:
                samples.append({"seed": child_seed, "step": len(references) - 1,
                                "setup_s": setup_s,
                                "main_s": plain["main_s"],
                                "peak_rss_mb": plain["peak_rss_mb"]})
            if trace and plain is not None and pair["traced"][1] is not None:
                traced_run = pair["traced"][1]
                traced.append((traced_run["summary"],
                               traced_run["main_s"] - plain["main_s"]))
        references.append(_reference_s())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # Each invocation's machine speed: the reference times on either side of it.
    for sample in samples:
        step = sample.pop("step")
        sample["reference_s"] = (references[step] + references[step + 1]) / 2

    metrics: dict[str, tuple[float, str]] = {}
    raw, quartiles = {}, {}
    if trace and traced:
        metrics = layer_metrics([s for s, _ in traced], [o for _, o in traced])
    elif not trace and samples:
        series = {
            "trials_per_s": [spec.trial_count / s["main_s"] for s in samples],
            "setup_s": [s["setup_s"] for s in samples],
            "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
            "reference_s": [s["reference_s"] for s in samples],
        }
        raw = {k: statistics.median(v) for k, v in series.items()}
        if len(samples) > 1:
            quartiles = {k: statistics.quantiles(v, n=4) for k, v in series.items()}
        slowdown = [r / REFERENCE_NOMINAL_S for r in series["reference_s"]]
        metrics = {
            "trials_per_s": (statistics.median(
                v * f for v, f in zip(series["trials_per_s"], slowdown)), "trials/s"),
            "setup_s": (statistics.median(
                v / f for v, f in zip(series["setup_s"], slowdown)), "s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
        }
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "argv": sys.argv, "provenance": provenance,
        "example_argv": ["instaqc"] + spec.argv(0, "OUT")[:-2],
        "invocations": samples, "failed_checks": failures,
        **tally,
        "correct": tally["failed"] == 0 and bool(metrics),
        "metrics": metrics, "raw_medians": raw, "raw_quartiles": quartiles,
    }


def _report(record: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    samples = record["invocations"]
    print(f"# provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"workload {record['workload']}: {' '.join(record['example_argv'])}, "
          f"{len(samples)} invocations, seed {record['seed']}")
    for check in record["failed_checks"][:20]:
        print(f"  FAILED {check}")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    if record["raw_medians"]:
        print(f"  as measured, before rescaling to {REFERENCE_NOMINAL_S} s of reference "
              f"(median and quartiles of {len(samples)}):")
    for name, value in record["raw_medians"].items():
        q1, _, q3 = record["raw_quartiles"].get(name, (value, value, value))
        print(f"    {name:<46} {value:>14.6g}   ({q1:.6g} .. {q3:.6g})")
    frac = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"  {'failed_frac':<48} {frac:>14.6g} ratio   "
          f"({record['failed']} of {record['attempted']} checks)")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    all_correct = True
    for name in names:
        try:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        _report(record)
        all_correct = all_correct and record["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
