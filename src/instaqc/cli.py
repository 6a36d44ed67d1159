"""Command-line harness: seeded, reproducible experiment runs.

Subcommands:
  teleport   protocol trials; reports success rate, fidelities, outcome histogram
  game       strategy scoring sweeps; one report row per parameter point
  timeline   two-site deadline arithmetic from a JSON config

Reproducibility scheme: the root --seed never feeds a generator directly.
Stream j of a run is numpy SeedSequence(seed, spawn_key=K_j) where K_j is a
fixed tuple per purpose (documented in each subcommand), so output is
byte-identical across runs and independent of trial parallelization.
A --config JSON file overrides any flag of the same name.
"""
from __future__ import annotations

import argparse
import json
import sys

# numpy.random loads lazily; importing it here keeps that one-off cost in
# start-up, out of the trial loop of every teleport and game run.
from numpy.random import Generator, SeedSequence, default_rng

from .circuit import apply_circuit, load_circuit, random_circuit
from .statevec import DEFAULT_MAX_QUBITS, fidelity, sample_haar_state
from .strategies import (
    ScoreParams,
    StrategyKind,
    approximate,
    game_report_to_dict,
    game_reports_to_csv,
    run_game,
)
from .teleport import prepare_offline, run_instantaneous, run_with_corrections
from .timeline import (
    simulate_timeline,
    timeline_config_from_dict,
    timeline_report_to_csv,
    timeline_report_to_dict,
)

STRATEGY_TOKENS = {
    "no_answer": StrategyKind("no_answer"),
    "random": StrategyKind("random_guess"),
    "instant": StrategyKind("instantaneous"),
    "classical": StrategyKind("classical_basis"),
    "rsp": StrategyKind("remote_state_prep"),
}


def _stream(seed: int, *key: int) -> Generator:
    return default_rng(SeedSequence(seed, spawn_key=key))


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.17g}"
    return "" if x is None else str(x)


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_line(values) -> str:
    return ",".join(values) + "\n"


def _parse_strategy_token(token: str) -> StrategyKind:
    if token in STRATEGY_TOKENS:
        return STRATEGY_TOKENS[token]
    if token.startswith("approx:"):
        return approximate(float(token.split(":", 1)[1]))
    raise ValueError(
        f"unknown strategy {token!r}; choose from "
        f"{', '.join(STRATEGY_TOKENS)} or approx:<fidelity>")


def _parse_int_list(value) -> list[int]:
    """Comma-separated ints with inclusive a:b ranges, e.g. '1:3,5' -> [1,2,3,5].
    JSON configs may supply a ready-made list instead."""
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    values: list[int] = []
    for part in str(value).split(","):
        if ":" in part:
            lo, hi = part.split(":", 1)
            values.extend(range(int(lo), int(hi) + 1))
        else:
            values.append(int(part))
    return values


def _parse_float_list(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(part) for part in str(value).split(",")]


def _apply_config(args: argparse.Namespace, allowed: set[str]) -> None:
    """Overlay --config file values onto parsed flags (file wins)."""
    with open(args.config) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in doc.items():
        setattr(args, key, value)


# The resource holds 2n qubits, so n is capped at half the register limit.
MAX_N = DEFAULT_MAX_QUBITS // 2


def _check_n(values) -> None:
    """Reject sizes before anything is allocated."""
    if min(values) < 1:
        raise ValueError(f"n must be >= 1, got {min(values)}")
    if max(values) > MAX_N:
        raise ValueError(f"n must be <= {MAX_N}, got {max(values)}")


def _check_common(args: argparse.Namespace) -> None:
    seed = int(args.seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {args.seed}")
    args.seed = seed
    args.trials = int(args.trials)
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")


# --- teleport ---------------------------------------------------------------
# Streams: (0,) circuit generation; (1,) trial loop.

def _parse_teleport(args):
    _check_common(args)
    args.n = int(args.n) if args.n is not None else None
    args.depth = int(args.depth)
    if args.depth < 0:
        raise ValueError(f"depth must be >= 0, got {args.depth}")
    if args.circuit:
        args.loaded_circuit = load_circuit(args.circuit)
        if args.n is not None and args.loaded_circuit.num_qubits != args.n:
            raise ValueError(
                f"circuit file has {args.loaded_circuit.num_qubits} qubits "
                f"but n={args.n} was requested")
    elif args.n is None:
        raise ValueError("n is required unless --circuit is given")
    _check_n([args.loaded_circuit.num_qubits if args.circuit else args.n])
    return args


def _run_teleport(args) -> str:
    circ = (args.loaded_circuit if args.circuit
            else random_circuit(args.n, args.depth, _stream(args.seed, 0)))
    n = circ.num_qubits
    resource = prepare_offline(circ)
    rng = _stream(args.seed, 1)

    histogram: dict[int, int] = {}
    success_count = 0
    success_fids: list[float] = []
    corrected_fids: list[float] = []
    for _ in range(args.trials):
        psi = sample_haar_state(n, rng)
        result = run_instantaneous(resource, psi, rng)
        code = result.outcome.code
        histogram[code] = histogram.get(code, 0) + 1
        if result.success:
            success_count += 1
            success_fids.append(fidelity(result.output_state,
                                         apply_circuit(circ, psi)))
        elif args.corrections:
            corrected, _ = run_with_corrections(result, circ)
            corrected_fids.append(fidelity(corrected, apply_circuit(circ, psi)))

    report = {
        "n": n,
        "trials": args.trials,
        "seed": args.seed,
        "circuit_file": args.circuit,
        "depth": None if args.circuit else args.depth,
        "success_count": success_count,
        "success_rate": success_count / args.trials,
        "expected_success_rate": 4.0**-n,
        "mean_success_fidelity": (sum(success_fids) / len(success_fids)
                                  if success_fids else None),
        "min_success_fidelity": min(success_fids, default=None),
        "outcome_histogram": {str(k): v for k, v in sorted(histogram.items())},
    }
    if args.corrections:
        report["corrections"] = {
            "runs": len(corrected_fids),
            "extra_executions_per_run": 2,
            "mean_fidelity": (sum(corrected_fids) / len(corrected_fids)
                              if corrected_fids else None),
            "min_fidelity": min(corrected_fids, default=None),
        }
    if not args.csv:
        return _json_dumps(report)
    cols = ("n", "trials", "seed", "success_count", "success_rate",
            "expected_success_rate", "mean_success_fidelity",
            "min_success_fidelity")
    return _csv_line(cols) + _csv_line([_fmt(report[c]) for c in cols])


# --- game -------------------------------------------------------------------
# Streams: (0, n) circuit for size n; (1, k) trials of parameter point k,
# points numbered in output order (strategy-major, then n, then penalty).

def _parse_game(args):
    _check_common(args)
    tokens = (args.strategies if isinstance(args.strategies, (list, tuple))
              else str(args.strategies).split(","))
    tokens = [str(t).strip() for t in tokens if str(t).strip()]
    if not tokens:
        raise ValueError("strategy list is empty")
    args.kinds = [_parse_strategy_token(t) for t in tokens]
    args.depth = int(args.depth)
    if args.depth < 0:
        raise ValueError(f"depth must be >= 0, got {args.depth}")
    if args.circuit:
        args.loaded_circuit = load_circuit(args.circuit)
        args.ns = [args.loaded_circuit.num_qubits]
    else:
        if args.n is None:
            raise ValueError("n is required unless --circuit is given")
        args.ns = _parse_int_list(args.n)
        if not args.ns:
            raise ValueError(f"no n values in {args.n!r}")
    _check_n(args.ns)
    args.penalties = _parse_float_list(args.penalty)
    args.reward = float(args.reward)
    args.cost = float(args.cost)
    # Every point's ScoreParams, built early to fail before any run
    for pen in args.penalties:
        ScoreParams(args.reward, pen, args.cost)
    return args


def _run_game(args) -> str:
    ns = args.ns
    if args.circuit:
        circuits = {args.loaded_circuit.num_qubits: args.loaded_circuit}
    else:
        circuits = {n: random_circuit(n, args.depth, _stream(args.seed, 0, n))
                    for n in ns}
    points = [(kind, n, pen) for kind in args.kinds for n in ns
              for pen in args.penalties]
    reports = []
    for k, (kind, n, pen) in enumerate(points):
        params = ScoreParams(args.reward, pen, args.cost)
        rng = _stream(args.seed, 1, k)
        reports.append(run_game(kind, n, circuits[n], params, args.trials, rng))
    if args.csv:
        return game_reports_to_csv(reports)
    return _json_dumps([game_report_to_dict(r) for r in reports])


# --- timeline ---------------------------------------------------------------

def _parse_timeline(args):
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
    else:
        doc = json.load(sys.stdin)
    args.timeline_config = timeline_config_from_dict(doc)
    return args


def _run_timeline(args) -> str:
    report = simulate_timeline(args.timeline_config)
    if args.csv:
        return timeline_report_to_csv(report)
    return _json_dumps(timeline_report_to_dict(report))


# --- wiring -----------------------------------------------------------------

_TELEPORT_KEYS = {"seed", "trials", "n", "depth", "circuit", "out", "csv",
                  "corrections"}
_GAME_KEYS = {"seed", "trials", "n", "depth", "circuit", "out", "csv",
              "strategies", "reward", "penalty", "cost"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="instaqc",
        description="Precompute-then-teleport protocol experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, keys):
        p.add_argument("--seed", type=int, default=0,
                       help="root seed; all randomness derives from it")
        p.add_argument("--config", help="JSON file whose keys override flags")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--csv", action="store_true",
                       help="emit CSV instead of JSON")
        if "trials" in keys:
            p.add_argument("--trials", type=int, default=10000)
        if "n" in keys:
            p.add_argument("--n", help="qubit count; game accepts lists/ranges like 1:5")
        if "depth" in keys:
            p.add_argument("--depth", type=int, default=3,
                           help="layers of the generated random circuit")
        if "circuit" in keys:
            p.add_argument("--circuit", help="circuit JSON file (instead of --n/--depth)")

    p = sub.add_parser("teleport", help="run protocol trials")
    add_common(p, _TELEPORT_KEYS)
    p.add_argument("--corrections", action="store_true",
                   help="also repair every non-trivial outcome and report fidelities")

    p = sub.add_parser("game", help="score strategies over a parameter sweep")
    add_common(p, _GAME_KEYS)
    p.add_argument("--strategies", default="instant",
                   help="comma list: no_answer,random,instant,classical,rsp,approx:<F>")
    p.add_argument("--reward", default=1.0, help="points P for a correct answer")
    p.add_argument("--penalty", default="0",
                   help="points N lost on a wrong answer; comma list sweeps")
    p.add_argument("--cost", default=0.0, help="cost C per consumed run")

    p = sub.add_parser("timeline", help="two-site deadline check")
    p.add_argument("--config", help="TimelineConfig JSON file (default: stdin)")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")

    return parser


_COMMANDS = {
    "teleport": (_parse_teleport, _run_teleport, _TELEPORT_KEYS),
    "game": (_parse_game, _run_game, _GAME_KEYS),
    "timeline": (_parse_timeline, _run_timeline, None),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    parse, run, config_keys = _COMMANDS[args.command]
    try:
        if config_keys is not None and args.config:
            _apply_config(args, config_keys)
        args = parse(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(run(args), args.out)
    except Exception as exc:  # runtime failure, distinct from bad config
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
