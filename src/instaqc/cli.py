"""Command-line harness: seeded, reproducible experiment runs.

Subcommands:
  teleport   protocol trials; reports success rate, fidelities, outcome histogram
  game       strategy scoring sweeps; one report row per parameter point
  timeline   two-site deadline arithmetic from a JSON config

Reproducibility: the root --seed never feeds a generator directly.  Stream j
of a run is SeedSequence(seed, spawn_key=K_j), K_j a fixed tuple per purpose
(documented in each subcommand), so output is byte-identical across runs.
Teleport output does not depend on how its trials are chunked: inputs and
Bell uniforms have a stream each, drawn row by row.  A game point draws
everything from its one stream chunk by chunk, so its row also depends on the
game's chunk size, fixed per n.

Flags are `--name value` or `--name=value`, full names only, read from one
flag table per subcommand (`_FLAGS`); `-h` prints a subcommand's flags.  A
--config JSON file overrides any flag of the same name.  Bad argv, like bad
config, exits 2.
"""
from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import asdict
from types import SimpleNamespace

# numpy.random loads lazily; importing it here keeps that one-off cost in
# start-up, out of the trial loop of every teleport and game run.
from numpy.random import Generator, SeedSequence, default_rng

from .circuit import _check_depth, load_circuit, random_circuit
from .statevec import MAX_QUBITS
from .strategies import (
    STRATEGIES,
    ScoreParams,
    StrategyKind,
    game_report_to_dict,
    run_game,
)
from .teleport import prepare_offline, run_trials, teleport_report_to_dict
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
    key = f"strategies token {token!r} fidelity"
    return StrategyKind(_TOKENS[head], _number(key, arg, float) if colon else None)


# The resource is 2^n x 2^n (4^n amplitudes), so n is half the register limit.
MAX_N = MAX_QUBITS // 2


def _check_n(values) -> None:
    """Reject sizes before anything is allocated."""
    if min(values) < 1:
        raise ValueError(f"n must be >= 1, got {min(values)}")
    if max(values) > MAX_N:
        raise ValueError(f"n must be <= {MAX_N}, got {max(values)}")


def _number(key: str, text, kind=int):
    """A flag's int (or float) value, parsed from its argv or config text."""
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


def _apply_config(args: SimpleNamespace) -> None:
    """Overlay --config file values onto the flag values (file wins).  Its
    keys are the names in the command's flag table, bar config.  A switch
    takes a JSON boolean; null unsets a flag without a default; any other
    value becomes the text its flag would carry, a list joined with commas."""
    with open(args.config) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    flags = _FLAGS[args.command]
    unknown = set(doc) - (set(flags) - {"config"})
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in doc.items():
        default = flags[key][0]
        if default is False:  # a switch
            if not isinstance(value, bool):
                raise ValueError(f"{key} is a switch: true or false, got {value!r}")
        elif value is not None or default is not None:
            items = value if isinstance(value, list) else [value]
            if not all(type(item) in (str, int, float) for item in items):
                raise ValueError(
                    f"{key} takes a string, a number or a list of them, got {value!r}")
            value = ",".join(map(str, items))
        setattr(args, key, value)


def _check_common(args: SimpleNamespace) -> None:
    if args.config:
        _apply_config(args)
    args.seed = _number("seed", args.seed)
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {args.seed}")
    args.trials = _number("trials", args.trials)
    if not 1 <= args.trials <= 2**53:  # past 2^53 a count is not an exact float
        raise ValueError(f"trials must be in [1, 2**53], got {args.trials}")


def _parse_sizes(args: SimpleNamespace, ns: list[int] | None) -> list[int]:
    """Check the sizes to run, `ns` from --n or a --circuit file's, and
    --depth against them: the largest n must fit MAX_GATES gates.

    A circuit file is loaded and compiled here, so one that is not unitary
    is rejected as bad input before any run.
    """
    args.depth = _number("depth", args.depth)
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
    _check_depth(max(ns), args.depth)
    if args.circuit:
        args.loaded_circuit.unitary  # compiled once; raises if not unitary
    return ns


# --- teleport ---------------------------------------------------------------
# Streams: (0,) circuit generation; (1,) trial loop, from which run_trials
# spawns (1, 0) for the Haar inputs and (1, 1) for the Bell uniforms.

def _parse_teleport(args):
    _check_common(args)
    args.n, = _parse_sizes(args, None if args.n is None else [_number("n", args.n)])
    return args


def _run_teleport(args) -> str:
    circ = (args.loaded_circuit if args.circuit
            else random_circuit(args.n, args.depth, _stream(args.seed, 0)))
    report = run_trials(circ, args.trials, _stream(args.seed, 1), args.corrections)
    doc = teleport_report_to_dict(report)
    # the CSV row is the scalar summary, with the seed after the trials
    doc = {"n": doc.pop("n"), "trials": doc.pop("trials"), "seed": args.seed, **doc}
    if args.csv:
        return _csv([{k: v for k, v in doc.items() if not isinstance(v, dict)}])
    doc["circuit_file"] = args.circuit
    doc["depth"] = None if args.circuit else args.depth
    return _json_dumps(doc)


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
    # one offline resource per circuit, shared by every point that samples it
    resources = {}
    if any(STRATEGIES[kind.name].needs_resource for kind in args.kinds):
        resources = {n: prepare_offline(circuit) for n, circuit in circuits.items()}
    points = [(kind, n, params) for kind in args.kinds for n in ns
              for params in args.params]
    reports = []
    for k, (kind, n, params) in enumerate(points):
        rng = _stream(args.seed, 1, k)
        reports.append(run_game(kind, circuits[n], params, args.trials, rng,
                                resource=resources.get(n)))
    rows = [game_report_to_dict(r) for r in reports]
    return _csv(rows) if args.csv else _json_dumps(rows)


# --- timeline ---------------------------------------------------------------

def _parse_timeline(args):
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
    else:
        doc = json.load(sys.stdin)
    # The report is built here: a time that overflows is bad input
    args.timeline_report = simulate_timeline(timeline_config_from_dict(doc))
    return args


def _run_timeline(args) -> str:
    row = asdict(args.timeline_report)
    return _csv([row]) if args.csv else _json_dumps(row)


# --- wiring -----------------------------------------------------------------

_COMMANDS = {
    "teleport": ("run protocol trials", _parse_teleport, _run_teleport),
    "game": ("score strategies over a parameter sweep", _parse_game, _run_game),
    "timeline": ("two-site deadline check", _parse_timeline, _run_timeline),
}

# One flag table per subcommand: name -> (default, help).  A False default
# marks a switch.  Every other value stays text, or None when unset, until
# the subcommand's _parse_* reads it, so argv and --config share one parse.
_OUTPUT_FLAGS = {
    "out": (None, "write output to this file instead of stdout"),
    "csv": (False, "emit CSV instead of JSON"),
}
_RUN_FLAGS = {
    "seed": ("0", "root seed; all randomness derives from it"),
    "config": (None, "JSON file whose keys override flags"),
    **_OUTPUT_FLAGS,
    "trials": ("10000", "trials to play (per parameter point in game)"),
    "n": (None, "qubit count; game accepts lists/ranges like 1:5"),
    "depth": ("3", "layers of the generated random circuit"),
    "circuit": (None, "circuit JSON file (instead of --n/--depth)"),
}
_FLAGS = {
    "teleport": {
        **_RUN_FLAGS,
        "corrections": (False,
                        "also repair every non-trivial outcome and report fidelities"),
    },
    "game": {
        **_RUN_FLAGS,
        "strategies": ("instant", f"comma list of: {_TOKEN_LIST}"),
        "reward": ("1", "points P for a correct answer"),
        "penalty": ("0", "points N lost on a wrong answer; comma list sweeps"),
        "cost": ("0", "cost C per consumed run"),
    },
    "timeline": {
        "config": (None, "TimelineConfig JSON file (default: stdin)"),
        **_OUTPUT_FLAGS,
    },
}
_HELP = ("-h", "--help")


def _help(command: str | None) -> str:
    """Usage and every flag's help from the flag tables: one command's, or
    at the top level (command None) every command's."""
    if command is None:
        return (f"usage: instaqc {{{','.join(_COMMANDS)}}} [flags]\n"
                "Precompute-then-teleport protocol experiments.\n"
                + "".join("\n" + _help(name) for name in _COMMANDS))
    lines = [f"usage: instaqc {command} [--flag value | --flag=value | --switch]...",
             _COMMANDS[command][0]]
    for name, (default, text) in _FLAGS[command].items():
        flag = f"--{name}" if default is False else f"--{name} {name.upper()}"
        lines.append(f"  {flag:<24}{text}" + (f"; default {default}" if default else ""))
    lines.append(f"  {', '.join(_HELP):<24}print this help and exit")
    return "\n".join(lines) + "\n"


def _parse_argv(argv: list[str]) -> tuple[str | None, SimpleNamespace | None]:
    """(command, flag values) from argv; the values are None when -h or
    --help asks for help, and the command too when that comes first.

    A flag is `--name value` or `--name=value`, with the full name from the
    command's table; its value is the next token unless that starts with
    `--`.  A switch takes no value.  Anything else raises ValueError.
    """
    if argv and argv[0] in _HELP:
        return None, None
    if not argv:
        raise ValueError(f"a command is required: {', '.join(_COMMANDS)}")
    command, *rest = argv
    if command not in _FLAGS:
        raise ValueError(f"unknown command {command!r}; choose from {', '.join(_COMMANDS)}")
    flags = _FLAGS[command]
    values = {name: default for name, (default, _) in flags.items()}
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            return command, None
        if not token.startswith("--"):
            raise ValueError(f"unexpected argument {token!r}")
        name, eq, value = token[2:].partition("=")
        if name not in flags:
            raise ValueError(f"unknown flag '--{name}' for {command}; "
                             f"see instaqc {command} -h")
        if flags[name][0] is False:
            if eq:
                raise ValueError(f"switch '--{name}' takes no value, got {token!r}")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"flag '--{name}' needs a value")
        values[name] = value
    return command, SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    try:
        command, args = _parse_argv(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if args is None:
        sys.stdout.write(_help(command))
        return 0
    _, parse, run = _COMMANDS[command]
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
