"""Answer-by-the-deadline game: strategies, analytic scores, Monte Carlo runs.

Each trial hands a strategy an n-qubit input under its own information model
(unknown, classical-basis, or fully known), lets it answer or decline, and
grades any answer by a check measurement against the true circuit output:
+P on the correct-state outcome, -N otherwise, 0 for no answer.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, apply_circuit
from .statevec import (
    StateVector,
    basis_state,
    measure_in_basis,
    orthonormal_basis_containing,
    project_out,
    sample_haar_state,
)
from .teleport import (
    OfflineResource,
    check_measurement,
    prepare_offline,
    run_instantaneous,
)

KIND_NAMES = ("no_answer", "random_guess", "instantaneous", "classical_basis",
              "remote_state_prep", "approximate")

# Strategies that burn one precomputation run every trial, answered or not.
_CONSUMES_RUN = ("instantaneous", "classical_basis", "remote_state_prep")


@dataclass(frozen=True)
class StrategyKind:
    """One of KIND_NAMES; `fidelity` is set only for "approximate"."""

    name: str
    fidelity: float | None = None

    def __post_init__(self):
        if self.name not in KIND_NAMES:
            raise ValueError(f"unknown strategy {self.name!r}")
        if self.name == "approximate":
            if self.fidelity is None or not 0.0 <= self.fidelity <= 1.0:
                raise ValueError(
                    f"approximate needs fidelity in [0, 1], got {self.fidelity}")
        elif self.fidelity is not None:
            raise ValueError(f"{self.name} takes no fidelity parameter")

    @property
    def label(self) -> str:
        if self.name == "approximate":
            return f"approximate({self.fidelity!r})"
        return self.name


NO_ANSWER = StrategyKind("no_answer")
RANDOM_GUESS = StrategyKind("random_guess")
INSTANTANEOUS = StrategyKind("instantaneous")
CLASSICAL_BASIS = StrategyKind("classical_basis")
REMOTE_STATE_PREP = StrategyKind("remote_state_prep")


def approximate(fidelity: float) -> StrategyKind:
    return StrategyKind("approximate", fidelity)


@dataclass(frozen=True)
class ScoreParams:
    """Game stakes: +reward_P for correct, -penalty_N for wrong, cost_C per run."""

    reward_P: float
    penalty_N: float
    cost_C: float = 0.0

    def __post_init__(self):
        for name in ("reward_P", "penalty_N", "cost_C"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.reward_P <= 0:
            raise ValueError(f"reward_P must be > 0, got {self.reward_P}")
        if self.penalty_N < 0:
            raise ValueError(f"penalty_N must be >= 0, got {self.penalty_N}")
        if self.cost_C < 0:
            raise ValueError(f"cost_C must be >= 0, got {self.cost_C}")


@dataclass(frozen=True)
class GameReport:
    strategy: str
    n: int
    params: ScoreParams
    trials: int
    answered_count: int
    correct_O_count: int
    empirical_mean_score: float
    analytic_expected_score: float
    total_cost: float

    def __post_init__(self):
        if not 0 <= self.correct_O_count <= self.answered_count <= self.trials:
            raise ValueError(
                f"inconsistent counts: {self.correct_O_count} correct, "
                f"{self.answered_count} answered, {self.trials} trials")


GAME_CSV_COLUMNS = ("strategy", "n", "P", "N", "C", "trials", "answered",
                    "correct", "empirical_score", "analytic_score", "total_cost")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def game_report_csv_row(report: GameReport) -> list[str]:
    p = report.params
    return [report.strategy, str(report.n), _fmt(p.reward_P), _fmt(p.penalty_N),
            _fmt(p.cost_C), str(report.trials), str(report.answered_count),
            str(report.correct_O_count), _fmt(report.empirical_mean_score),
            _fmt(report.analytic_expected_score), _fmt(report.total_cost)]


def game_reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(GAME_CSV_COLUMNS)
    for report in reports:
        writer.writerow(game_report_csv_row(report))
    return buf.getvalue()


def game_report_to_dict(report: GameReport) -> dict:
    p = report.params
    return {
        "strategy": report.strategy,
        "n": report.n,
        "P": p.reward_P,
        "N": p.penalty_N,
        "C": p.cost_C,
        "trials": report.trials,
        "answered": report.answered_count,
        "correct": report.correct_O_count,
        "empirical_score": report.empirical_mean_score,
        "analytic_score": report.analytic_expected_score,
        "total_cost": report.total_cost,
    }


def expected_score(kind: StrategyKind, n: int, params: ScoreParams) -> float:
    """Analytic per-trial mean score, cost excluded."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    P, N = params.reward_P, params.penalty_N
    hit = 2.0**-n
    if kind.name == "no_answer":
        return 0.0
    if kind.name == "random_guess":
        return P * hit - N * (1.0 - hit)
    if kind.name == "instantaneous":
        return P * 4.0**-n
    if kind.name in ("classical_basis", "remote_state_prep"):
        return P * hit
    F = kind.fidelity
    return P * F - N * (1.0 - F)


def classical_basis_strategy(n: int, circuit: Circuit, actual_input_index: int,
                             precomputed_guess_index: int,
                             rng: np.random.Generator):
    """Distinguish a known-basis input by measurement; answer only on a match.

    The strategy committed to `precomputed_guess_index` before the input
    existed and holds the circuit output for that guess.  Measuring the
    basis-state input identifies it with certainty, so the answer (when
    given) is always right.
    """
    dim = 1 << n
    if not 0 <= actual_input_index < dim:
        raise ValueError(f"input index {actual_input_index} out of range")
    if not 0 <= precomputed_guess_index < dim:
        raise ValueError(f"guess index {precomputed_guess_index} out of range")
    state = basis_state(n, actual_input_index)
    measured, _, _ = measure_in_basis(state, range(n), np.eye(dim), rng)
    if measured != precomputed_guess_index:
        return False, None
    return True, apply_circuit(circuit, basis_state(n, precomputed_guess_index))


def rsp_strategy(n: int, circuit: Circuit, known_input: StateVector,
                 rng: np.random.Generator, resource: OfflineResource | None = None):
    """Steer the precomputed output onto a known input by measuring the near block.

    Measures the near block in a basis whose first element is the complex
    conjugate of the input; that outcome (probability 2^-n for every input)
    leaves the far block holding the circuit output, and the strategy answers.
    Pass `resource` to reuse one precomputation across trials.
    """
    if known_input.num_qubits != n:
        raise ValueError(f"input has {known_input.num_qubits} qubits, expected {n}")
    if resource is None:
        resource = prepare_offline(circuit)
    elif resource.n != n:
        raise ValueError(f"resource holds {resource.n}-qubit pairs, expected {n}")
    basis = orthonormal_basis_containing(known_input.amplitudes.conj())
    outcome, _, collapsed = measure_in_basis(
        resource.joint_state, range(n), basis, rng)
    if outcome != 0:
        return False, None
    _, far = project_out(collapsed, range(n), basis[0])
    return True, far


def approximate_output(correct: StateVector, fidelity_F: float) -> StateVector:
    """State with overlap exactly fidelity_F against `correct`: mixes in the
    first Gram-Schmidt completion direction."""
    if not 0.0 <= fidelity_F <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {fidelity_F}")
    if fidelity_F == 1.0:
        return correct
    basis = orthonormal_basis_containing(correct.amplitudes)
    amps = math.sqrt(fidelity_F) * basis[0] + math.sqrt(1.0 - fidelity_F) * basis[1]
    return StateVector(correct.num_qubits, amps)


def run_game(kind: StrategyKind, n: int, circuit: Circuit, params: ScoreParams,
             trials: int, rng: np.random.Generator) -> GameReport:
    """Play `trials` independent rounds of one strategy and tally the score."""
    if circuit.num_qubits != n:
        raise ValueError(f"circuit has {circuit.num_qubits} qubits, game needs {n}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")

    answered = correct = 0
    score = 0.0

    def grade(output: StateVector, target: StateVector) -> None:
        nonlocal answered, correct, score
        answered += 1
        is_O, _ = check_measurement(output, target, rng)
        if is_O:
            correct += 1
            score += params.reward_P
        else:
            score -= params.penalty_N

    if kind.name == "no_answer":
        pass  # declines every round; score stays 0
    elif kind.name == "random_guess":
        for _ in range(trials):
            target = apply_circuit(circuit, sample_haar_state(n, rng))
            grade(sample_haar_state(n, rng), target)
    elif kind.name == "instantaneous":
        resource = prepare_offline(circuit)
        for _ in range(trials):
            psi = sample_haar_state(n, rng)
            result = run_instantaneous(resource, psi, rng)
            if result.success:
                grade(result.output_state, apply_circuit(circuit, psi))
    elif kind.name == "classical_basis":
        dim = 1 << n
        for _ in range(trials):
            actual = int(rng.integers(dim))
            guess = int(rng.integers(dim))
            ok, output = classical_basis_strategy(n, circuit, actual, guess, rng)
            if ok:
                grade(output, apply_circuit(circuit, basis_state(n, actual)))
    elif kind.name == "remote_state_prep":
        resource = prepare_offline(circuit)
        for _ in range(trials):
            known = sample_haar_state(n, rng)
            ok, output = rsp_strategy(n, circuit, known, rng, resource=resource)
            if ok:
                grade(output, apply_circuit(circuit, known))
    else:  # approximate
        for _ in range(trials):
            target = apply_circuit(circuit, sample_haar_state(n, rng))
            grade(approximate_output(target, kind.fidelity), target)

    total_cost = params.cost_C * trials if kind.name in _CONSUMES_RUN else 0.0
    return GameReport(
        strategy=kind.label,
        n=n,
        params=params,
        trials=trials,
        answered_count=answered,
        correct_O_count=correct,
        empirical_mean_score=score / trials,
        analytic_expected_score=expected_score(kind, n, params),
        total_cost=total_cost,
    )


def cost_analysis(n: int, params: ScoreParams):
    """Expected precomputation runs per all-trivial success, and whether the
    reward beats that cost: pays off iff P > 4^n * C (strict)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    n0 = float(4**n)
    return n0, params.reward_P > n0 * params.cost_C


def approximate_breakeven(n: int, fidelity_F: float, P: float) -> float:
    """Penalty N at which approximate(F) and the precomputation strategy tie.

    Above the returned N the precomputation strategy strictly wins.  F = 1
    never loses to it for any finite N, signalled as math.inf.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 <= fidelity_F <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {fidelity_F}")
    if fidelity_F == 1.0:
        return math.inf
    return (P * fidelity_F - P * 4.0**-n) / (1.0 - fidelity_F)
