"""Answer-by-the-deadline game: strategies, analytic scores, Monte Carlo runs.

Each trial hands a strategy an n-qubit input under its own information model
(unknown, classical-basis, or fully known), lets it answer or decline, and
grades any answer by a check measurement against the true circuit output:
+P on the correct-state outcome, -N otherwise, 0 for no answer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circuit import Circuit, apply_circuit
from .statevec import (
    _GS_RESIDUAL_MIN,
    StateVector,
    basis_state,
    project_out,
    sample_haar_state,
)
from .teleport import (
    OfflineResource,
    check_measurement,
    prepare_offline,
    run_instantaneous,
)


@dataclass(frozen=True)
class StrategyKind:
    """A key of STRATEGIES; `fidelity` is set only for "approximate"."""

    name: str
    fidelity: float | None = None

    def __post_init__(self):
        if self.name not in STRATEGIES:
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
    analytic_expected_score: float
    total_cost: float

    def __post_init__(self):
        if not 0 <= self.correct_O_count <= self.answered_count <= self.trials:
            raise ValueError(
                f"inconsistent counts: {self.correct_O_count} correct, "
                f"{self.answered_count} answered, {self.trials} trials")

    @property
    def empirical_mean_score(self) -> float:
        """Mean per-trial score of the counts: +P per correct, -N per wrong."""
        wrong = self.answered_count - self.correct_O_count
        return (self.params.reward_P * self.correct_O_count
                - self.params.penalty_N * wrong) / self.trials


def game_report_to_dict(report: GameReport) -> dict:
    """The report as one output row; the CLI prints it as JSON or CSV."""
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


def classical_basis_strategy(circuit: Circuit, actual_input_index: int,
                             precomputed_guess_index: int):
    """Distinguish a known-basis input by measurement; answer only on a match.

    The strategy committed to `precomputed_guess_index` before the input
    existed and holds the circuit output for that guess.  A basis-state input
    measured in the computational basis gives its own index with certainty,
    so the measurement is the index comparison and the answer (when given)
    is always right.
    """
    n = circuit.num_qubits
    dim = 1 << n
    if not 0 <= actual_input_index < dim:
        raise ValueError(f"input index {actual_input_index} out of range")
    if not 0 <= precomputed_guess_index < dim:
        raise ValueError(f"guess index {precomputed_guess_index} out of range")
    if actual_input_index != precomputed_guess_index:
        return False, None
    return True, apply_circuit(circuit, basis_state(n, precomputed_guess_index))


def rsp_strategy(resource: OfflineResource, known_input: StateVector,
                 rng: np.random.Generator):
    """Steer the precomputed output onto a known input by measuring the near block.

    Measures the near block in a basis whose first element is the complex
    conjugate of the input.  Only that outcome matters: projecting onto it
    gives its probability (2^-n for every input) and the far block, which
    then holds the circuit output, and one draw, u < probability, decides
    whether it fired.
    """
    resource._check_input(known_input)
    prob, far = project_out(resource.joint_state, range(resource.n),
                            known_input.amplitudes.conj())
    return (True, far) if rng.random() < prob else (False, None)


def approximate_output(correct: StateVector, fidelity_F: float) -> StateVector:
    """State with overlap exactly fidelity_F against `correct`: mixes in the
    first Gram-Schmidt completion direction, (e_j - conj(c_j) c) / norm for
    the first basis index j not nearly parallel to c, which is row 1 of
    `orthonormal_basis_containing(c)`."""
    if not 0.0 <= fidelity_F <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {fidelity_F}")
    if fidelity_F == 1.0:
        return correct
    c = correct.amplitudes / np.linalg.norm(correct.amplitudes)
    # |c_j|^2 <= 1 - _GS_RESIDUAL_MIN holds for some j whenever dim >= 2
    j = int(np.argmax(1.0 - np.abs(c) ** 2 > _GS_RESIDUAL_MIN))
    w = -c[j].conj() * c
    w[j] += 1.0
    w /= np.linalg.norm(w)
    amps = math.sqrt(fidelity_F) * c + math.sqrt(1.0 - fidelity_F) * w
    return StateVector(correct.num_qubits, amps)


# --- per-trial samplers ---------------------------------------------------------
# Each plays one round: (answer, correct output) if the strategy answers, else
# None.  They call the layer functions through this module's globals.

def _decline(kind, circuit, resource, rng):
    return None


def _guess(kind, circuit, resource, rng):
    n = circuit.num_qubits
    target = apply_circuit(circuit, sample_haar_state(n, rng))
    return sample_haar_state(n, rng), target


def _teleport(kind, circuit, resource, rng):
    psi = sample_haar_state(circuit.num_qubits, rng)
    result = run_instantaneous(resource, psi, rng)
    return (result.output_state, apply_circuit(circuit, psi)) if result.success else None


def _classical(kind, circuit, resource, rng):
    n = circuit.num_qubits
    actual = int(rng.integers(1 << n))
    guess = int(rng.integers(1 << n))
    ok, output = classical_basis_strategy(circuit, actual, guess)
    return (output, output) if ok else None  # ok only when actual == guess


def _steer(kind, circuit, resource, rng):
    known = sample_haar_state(circuit.num_qubits, rng)
    ok, output = rsp_strategy(resource, known, rng)
    return (output, apply_circuit(circuit, known)) if ok else None


def _approximate(kind, circuit, resource, rng):
    target = apply_circuit(circuit, sample_haar_state(circuit.num_qubits, rng))
    return approximate_output(target, kind.fidelity), target


@dataclass(frozen=True)
class Strategy:
    """One strategy: CLI token, run accounting, analytic score, sampler.

    `score(kind, n, P, N)` is the mean per-trial score, cost excluded.
    `consumes_run` strategies burn one precomputation run every trial,
    answered or not; `needs_resource` ones sample from a prepared resource.
    """

    token: str
    consumes_run: bool
    needs_resource: bool
    score: Callable[[StrategyKind, int, float, float], float]
    sample: Callable


STRATEGIES = {
    "no_answer": Strategy("no_answer", False, False,
                          lambda kind, n, P, N: 0.0, _decline),
    "random_guess": Strategy("random", False, False,
                             lambda kind, n, P, N: P * 2.0**-n - N * (1.0 - 2.0**-n),
                             _guess),
    "instantaneous": Strategy("instant", True, True,
                              lambda kind, n, P, N: P * 4.0**-n, _teleport),
    "classical_basis": Strategy("classical", True, False,
                                lambda kind, n, P, N: P * 2.0**-n, _classical),
    "remote_state_prep": Strategy("rsp", True, True,
                                  lambda kind, n, P, N: P * 2.0**-n, _steer),
    "approximate": Strategy("approx", False, False,
                            lambda kind, n, P, N: (P * kind.fidelity
                                                   - N * (1.0 - kind.fidelity)),
                            _approximate),
}

NO_ANSWER = StrategyKind("no_answer")
RANDOM_GUESS = StrategyKind("random_guess")
INSTANTANEOUS = StrategyKind("instantaneous")
CLASSICAL_BASIS = StrategyKind("classical_basis")
REMOTE_STATE_PREP = StrategyKind("remote_state_prep")


def approximate(fidelity: float) -> StrategyKind:
    return StrategyKind("approximate", fidelity)


def expected_score(kind: StrategyKind, n: int, params: ScoreParams) -> float:
    """Analytic per-trial mean score, cost excluded."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return STRATEGIES[kind.name].score(kind, n, params.reward_P, params.penalty_N)


def run_game(kind: StrategyKind, circuit: Circuit, params: ScoreParams,
             trials: int, rng: np.random.Generator) -> GameReport:
    """Play `trials` independent rounds of one strategy and count the answers.

    Every answer is graded by the check measurement against the true output.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    entry = STRATEGIES[kind.name]
    resource = prepare_offline(circuit) if entry.needs_resource else None

    answered = correct = 0
    for _ in range(trials):
        drawn = entry.sample(kind, circuit, resource, rng)
        if drawn is None:
            continue
        answered += 1
        correct += check_measurement(*drawn, rng)[0]

    return GameReport(
        strategy=kind.label,
        n=circuit.num_qubits,
        params=params,
        trials=trials,
        answered_count=answered,
        correct_O_count=correct,
        analytic_expected_score=expected_score(kind, circuit.num_qubits, params),
        total_cost=params.cost_C * trials if entry.consumes_run else 0.0,
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
