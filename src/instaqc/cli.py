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
import csv
import io
import json
import sys
from dataclasses import asdict

# numpy.random loads lazily; importing it here keeps that one-off cost in
# start-up, out of the trial loop of every teleport and game run.
from numpy.random import Generator, SeedSequence, default_rng

from .circuit import apply_circuit, load_circuit, random_circuit
from .statevec import MAX_QUBITS, fidelity, sample_haar_state
from .strategies import (
    STRATEGIES,
    ScoreParams,
    StrategyKind,
    game_report_to_dict,
    run_game,
)
from .teleport import prepare_offline, run_instantaneous, run_with_corrections
from .timeline import simulate_timeline, timeline_config_from_dict

# --strategies tokens; approximate takes its fidelity after a colon.
_TOKENS = {entry.token: name for name, entry in STRATEGIES.items()}
_TOKEN_LIST = ", ".join(f"{token}:<fidelity>" if name == "approximate" else token
                        for token, name in _TOKENS.items())


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


def _csv(rows: list[dict]) -> str:
    """CSV of JSON output rows: header from the first row's keys, cells by _fmt."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows([_fmt(v) for v in row.values()] for row in rows)
    return buf.getvalue()


def _parse_strategy_token(token: str) -> StrategyKind:
    head, colon, arg = token.partition(":")
    if head not in _TOKENS:
        raise ValueError(f"unknown strategy {token!r}; choose from {_TOKEN_LIST}")
    return StrategyKind(_TOKENS[head], float(arg) if colon else None)


# The resource holds 2n qubits, so n is capped at half the register limit.
MAX_N = MAX_QUBITS // 2


def _check_n(values) -> None:
    """Reject sizes before anything is allocated."""
    if min(values) < 1:
        raise ValueError(f"n must be >= 1, got {min(values)}")
    if max(values) > MAX_N:
        raise ValueError(f"n must be <= {MAX_N}, got {max(values)}")


def _number(key: str, text, kind=int):
    """A flag's int (or float) value, from argparse or from config text."""
    try:
        return kind(text)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must parse as {kind.__name__}, got {text!r}") from None


def _parse_int_list(value: str) -> list[int]:
    """Comma-separated ints with inclusive a:b ranges, e.g. '1:3,5' -> [1,2,3,5].
    Each range's bounds are checked as sizes before it is expanded."""
    values: list[int] = []
    for part in value.split(","):
        if ":" in part:
            lo, hi = (_number("n", v) for v in part.split(":", 1))
            _check_n((lo, hi))
            values.extend(range(lo, hi + 1))
        else:
            values.append(_number("n", part))
    return values


def _apply_config(args: argparse.Namespace) -> None:
    """Overlay --config file values onto parsed flags (file wins).  A switch
    takes a JSON boolean; any other value becomes the text its flag would
    carry, a list joined with commas, and is parsed as that text."""
    with open(args.config) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(doc) - (set(vars(args)) - {"command", "config"})
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in doc.items():
        if isinstance(getattr(args, key), bool):  # a switch
            if not isinstance(value, bool):
                raise ValueError(f"{key} is a switch: true or false, got {value!r}")
        elif value is not None:
            items = value if isinstance(value, list) else [value]
            if not all(type(item) in (str, int, float) for item in items):
                raise ValueError(
                    f"{key} takes a string, a number or a list of them, got {value!r}")
            value = ",".join(map(str, items))
        setattr(args, key, value)


def _check_common(args: argparse.Namespace) -> None:
    if args.config:
        _apply_config(args)
    args.seed = _number("seed", args.seed)
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {args.seed}")
    args.trials = _number("trials", args.trials)
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")


def _parse_sizes(args: argparse.Namespace, ns: list[int] | None) -> list[int]:
    """Check --depth and the sizes to run: `ns` from --n, or a --circuit file's.

    A circuit file is loaded and compiled here, so one that is not unitary
    is rejected as bad input before any run.
    """
    args.depth = _number("depth", args.depth)
    if args.depth < 0:
        raise ValueError(f"depth must be >= 0, got {args.depth}")
    if args.circuit:
        args.loaded_circuit = load_circuit(args.circuit)
        file_n = args.loaded_circuit.num_qubits
        if ns is not None and ns != [file_n]:
            raise ValueError(
                f"circuit file has {file_n} qubits but n={args.n} was requested")
        ns = [file_n]
    elif ns is None:
        raise ValueError("n is required unless --circuit is given")
    elif not ns:
        raise ValueError(f"no n values in {args.n!r}")
    _check_n(ns)
    if args.circuit:
        args.loaded_circuit.unitary  # compiled once; raises if not unitary
    return ns


# --- teleport ---------------------------------------------------------------
# Streams: (0,) circuit generation; (1,) trial loop.

def _parse_teleport(args):
    _check_common(args)
    args.n, = _parse_sizes(args, None if args.n is None else [_number("n", args.n)])
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
        "success_count": success_count,
        "success_rate": success_count / args.trials,
        "expected_success_rate": 4.0**-n,
        "mean_success_fidelity": (sum(success_fids) / len(success_fids)
                                  if success_fids else None),
        "min_success_fidelity": min(success_fids, default=None),
    }
    if args.csv:  # the scalar summary above is the CSV row
        return _csv([report])
    report["circuit_file"] = args.circuit
    report["depth"] = None if args.circuit else args.depth
    report["outcome_histogram"] = {str(k): v for k, v in sorted(histogram.items())}
    if args.corrections:
        report["corrections"] = {
            "runs": len(corrected_fids),
            "extra_executions_per_run": 2,
            "mean_fidelity": (sum(corrected_fids) / len(corrected_fids)
                              if corrected_fids else None),
            "min_fidelity": min(corrected_fids, default=None),
        }
    return _json_dumps(report)


# --- game -------------------------------------------------------------------
# Streams: (0, n) circuit for size n; (1, k) trials of parameter point k,
# points numbered in output order (strategy-major, then n, then penalty).

def _parse_game(args):
    _check_common(args)
    tokens = [t.strip() for t in args.strategies.split(",") if t.strip()]
    if not tokens:
        raise ValueError("strategy list is empty")
    args.kinds = [_parse_strategy_token(t) for t in tokens]
    args.ns = _parse_sizes(args, None if args.n is None else _parse_int_list(args.n))
    # One ScoreParams per penalty, built here to fail before any run
    reward = _number("reward", args.reward, float)
    cost = _number("cost", args.cost, float)
    args.params = [ScoreParams(reward, _number("penalty", pen, float), cost)
                   for pen in args.penalty.split(",")]
    return args


def _run_game(args) -> str:
    ns = args.ns
    if args.circuit:
        circuits = {args.loaded_circuit.num_qubits: args.loaded_circuit}
    else:
        circuits = {n: random_circuit(n, args.depth, _stream(args.seed, 0, n))
                    for n in ns}
    points = [(kind, n, params) for kind in args.kinds for n in ns
              for params in args.params]
    reports = []
    for k, (kind, n, params) in enumerate(points):
        rng = _stream(args.seed, 1, k)
        reports.append(run_game(kind, circuits[n], params, args.trials, rng))
    rows = [game_report_to_dict(r) for r in reports]
    return _csv(rows) if args.csv else _json_dumps(rows)


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
    row = asdict(simulate_timeline(args.timeline_config))
    return _csv([row]) if args.csv else _json_dumps(row)


# --- wiring -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="instaqc",
        description="Precompute-then-teleport protocol experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="root seed; all randomness derives from it")
        p.add_argument("--config", help="JSON file whose keys override flags")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--csv", action="store_true",
                       help="emit CSV instead of JSON")
        p.add_argument("--trials", type=int, default=10000)
        p.add_argument("--n", help="qubit count; game accepts lists/ranges like 1:5")
        p.add_argument("--depth", type=int, default=3,
                       help="layers of the generated random circuit")
        p.add_argument("--circuit", help="circuit JSON file (instead of --n/--depth)")

    p = sub.add_parser("teleport", help="run protocol trials")
    add_common(p)
    p.add_argument("--corrections", action="store_true",
                   help="also repair every non-trivial outcome and report fidelities")

    p = sub.add_parser("game", help="score strategies over a parameter sweep")
    add_common(p)
    p.add_argument("--strategies", default="instant",
                   help=f"comma list of: {_TOKEN_LIST}")
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
    "teleport": (_parse_teleport, _run_teleport),
    "game": (_parse_game, _run_game),
    "timeline": (_parse_timeline, _run_timeline),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    parse, run = _COMMANDS[args.command]
    try:
        args = parse(args)
    except (ValueError, TypeError, OSError) as exc:  # JSONDecodeError is a ValueError
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
