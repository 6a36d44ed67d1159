"""Output checks for the benchmark's CLI runs.

Every expectation comes from the workload spec and a closed form (4^-n,
2^-n, the strategy's score formula, exact binomial tails), never from an
instaqc call.  The list of checks depends only on the spec, so a run that
crashes or prints unparsable output fails the same number of checks that a
good run passes.
"""
from __future__ import annotations

import json
import math

from workloads import GameSpec, TeleportSpec

# Each count check fails a correct program with probability at most ALPHA.
# A run makes at most a few hundred of them, so a correct program fails a
# run less than once in 10^4.
ALPHA = 1e-7
FIDELITY_TOL = 1e-9
SCORE_TOL = 1e-9


def parse_strict(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    def reject(token):
        raise ValueError(f"non-finite number {token} in output")
    return json.loads(text, parse_constant=reject)


def binomial_band(trials: int, p: float, alpha: float = ALPHA) -> tuple[int, int]:
    """Smallest [lo, hi] with P(X < lo) and P(X > hi) each at most alpha/2,
    for X ~ Binomial(trials, p), from the exact pmf."""
    if p <= 0.0:
        return 0, 0
    if p >= 1.0:
        return trials, trials
    log_p, log_q = math.log(p), math.log1p(-p)
    head = math.lgamma(trials + 1)
    pmf = [math.exp(head - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                    + k * log_p + (trials - k) * log_q) for k in range(trials + 1)]
    lo, tail = 0, 0.0
    while lo < trials and tail + pmf[lo] <= alpha / 2:
        tail += pmf[lo]
        lo += 1
    hi, tail = trials, 0.0
    while hi > 0 and tail + pmf[hi] <= alpha / 2:
        tail += pmf[hi]
        hi -= 1
    return lo, hi


def _evaluate(checks) -> list[tuple[str, bool]]:
    results = []
    for name, check in checks:
        try:
            ok = bool(check())
        except (KeyError, IndexError, TypeError, ValueError, AttributeError):
            ok = False
        results.append((name, ok))
    return results


def _exact_fidelity(value, present: bool) -> bool:
    if not present:
        return value is None
    return 1.0 - FIDELITY_TOL <= value <= 1.0 + FIDELITY_TOL


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def teleport_checks(spec: TeleportSpec, seed: int, doc) -> list[tuple[str, bool]]:
    n, trials = spec.n, spec.trials
    lo, hi = binomial_band(trials, 4.0**-n)

    def histogram():
        return {int(code): count for code, count in doc["outcome_histogram"].items()}

    checks = [
        ("report echoes n, trials, seed, depth",
         lambda: (doc["n"], doc["trials"], doc["seed"], doc["depth"])
         == (n, trials, seed, spec.depth)),
        ("histogram sums to trials",
         lambda: all(_is_count(c) for c in histogram().values())
         and sum(histogram().values()) == trials),
        ("histogram codes lie in [0, 4^n)",
         lambda: all(0 <= code < 4**n for code in histogram())),
        ("histogram code 0 equals success_count",
         lambda: histogram().get(0, 0) == doc["success_count"]),
        ("success_count within binomial band of trials*4^-n",
         lambda: _is_count(doc["success_count"]) and lo <= doc["success_count"] <= hi),
        ("success_rate and expected_success_rate",
         lambda: doc["success_rate"] == doc["success_count"] / trials
         and doc["expected_success_rate"] == 4.0**-n),
        ("success fidelities are 1",
         lambda: _exact_fidelity(doc["min_success_fidelity"], doc["success_count"] > 0)
         and _exact_fidelity(doc["mean_success_fidelity"], doc["success_count"] > 0)),
    ]
    if spec.corrections:
        checks += [
            ("corrections.runs equals trials - success_count",
             lambda: doc["corrections"]["runs"] == trials - doc["success_count"]),
            ("corrected fidelities are 1",
             lambda: _exact_fidelity(doc["corrections"]["min_fidelity"],
                                     doc["corrections"]["runs"] > 0)
             and _exact_fidelity(doc["corrections"]["mean_fidelity"],
                                 doc["corrections"]["runs"] > 0)),
            ("two extra executions per repair",
             lambda: doc["corrections"]["extra_executions_per_run"] == 2),
        ]
    else:
        checks.append(("no corrections section", lambda: "corrections" not in doc))
    return _evaluate(checks)


def strategy_model(token: str, n: int, P: float, N: float):
    """(report label, count the randomness lives in, its success probability,
    analytic score) for one CLI strategy token.

    The other count is fixed by the strategy: answered == 0 (no_answer),
    answered == trials (random, approx), or correct == answered (instant,
    classical, rsp; these are never wrong).
    """
    hit = 2.0**-n
    if token == "no_answer":
        return "no_answer", "answered", 0.0, 0.0
    if token == "random":
        return "random_guess", "correct", hit, P * hit - N * (1.0 - hit)
    if token == "instant":
        return "instantaneous", "answered", 4.0**-n, P * 4.0**-n
    if token == "classical":
        return "classical_basis", "answered", hit, P * hit
    if token == "rsp":
        return "remote_state_prep", "answered", hit, P * hit
    if token.startswith("approx:"):
        F = float(token.split(":", 1)[1])
        return f"approximate({F!r})", "correct", F, P * F - N * (1.0 - F)
    raise ValueError(f"unknown strategy token {token!r}")


def _counts_at(token: str, counted: str, k: int, trials: int) -> tuple[int, int]:
    """(answered, correct) when the random count is k."""
    if token == "no_answer":
        return 0, 0
    if counted == "answered":
        return k, k
    return trials, k


def _score(P: float, N: float, answered: int, correct: int, trials: int) -> float:
    return (P * correct - N * (answered - correct)) / trials


def game_checks(spec: GameSpec, seed: int, doc) -> list[tuple[str, bool]]:
    P, C, T = 1.0, 0.0, spec.trials
    points = spec.points()
    checks = [("one row per parameter point",
               lambda: isinstance(doc, list) and len(doc) == len(points))]
    for k, (token, n, N) in enumerate(points):
        label, counted, p, analytic = strategy_model(token, n, P, N)
        lo, hi = binomial_band(T, p)
        band = (_score(P, N, *_counts_at(token, counted, lo, T), T),
                _score(P, N, *_counts_at(token, counted, hi, T), T))
        consumes = token in ("instant", "classical", "rsp")

        def row(k=k):
            return doc[k]

        def fixed_count_rule(row=row, token=token, counted=counted):
            r = row()
            return (r["answered"], r["correct"]) == _counts_at(
                token, counted, r[counted], T)

        where = f"row {k} ({token}, n={n}, N={N:g})"
        checks += [
            (f"{where}: identity",
             lambda row=row, label=label, n=n, N=N: (
                 row()["strategy"], row()["n"], row()["P"], row()["N"],
                 row()["C"], row()["trials"]) == (label, n, P, N, C, T)),
            (f"{where}: 0 <= correct <= answered <= trials",
             lambda row=row: _is_count(row()["correct"])
             and _is_count(row()["answered"])
             and row()["correct"] <= row()["answered"] <= T),
            (f"{where}: answered/correct as the strategy demands", fixed_count_rule),
            (f"{where}: analytic_score closed form",
             lambda row=row, analytic=analytic: math.isclose(
                 row()["analytic_score"], analytic, rel_tol=1e-12, abs_tol=1e-12)),
            (f"{where}: empirical_score matches counts and lies in band",
             lambda row=row, N=N, band=band: abs(
                 row()["empirical_score"]
                 - _score(P, N, row()["answered"], row()["correct"], T)) <= SCORE_TOL
             and band[0] - SCORE_TOL <= row()["empirical_score"] <= band[1] + SCORE_TOL),
            (f"{where}: total_cost",
             lambda row=row, consumes=consumes: row()["total_cost"]
             == (C * T if consumes else 0.0)),
        ]
    return _evaluate(checks)


def check_output(spec, seed: int, text: str | None) -> list[tuple[str, bool]]:
    """All checks of one CLI output; `text` is None when the run failed."""
    try:
        doc = parse_strict(text) if text is not None else None
    except ValueError:
        doc = None
    results = [("output parses as strict JSON", doc is not None)]
    if isinstance(spec, TeleportSpec):
        return results + teleport_checks(spec, seed, doc)
    return results + game_checks(spec, seed, doc)
