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

from .circuit import Circuit
from .statevec import (
    _GS_RESIDUAL_MIN, _check_indices, _check_outcome_probability, _check_rows, _haar_rows)
from .teleport import OfflineResource, _chunk_rows, check_measurement, prepare_offline

# Game trials per chunk: about 512 KiB of working set at 160 B per amplitude
# (1638 rows at n = 1, 204 at n = 4, 12 at n = 8).  Traced per chunk
# amplitude, a `run_game` chunk peaks at ~130 B with approx (its answers,
# their targets and the mixing direction), ~107 B with random and ~68 B with
# instant, at n = 4..8.  A chunk costs a few dozen numpy calls whatever its
# size; 512 KiB played 1.3-2.4x the trials/s of 128 KiB at n = 1..8.  1 MiB
# added at most ~15% at n <= 6, and at 2 MiB an n = 3 chunk hands its small
# matmuls to OpenBLAS threads and runs 4-8x slower.
_CHUNK_BYTES = 512 << 10


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
    """One strategy's counts at one (n, stakes) point; scores and cost are derived."""

    kind: StrategyKind
    n: int
    params: ScoreParams
    trials: int
    answered_count: int
    correct_O_count: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if not 0 <= self.correct_O_count <= self.answered_count <= self.trials:
            raise ValueError(
                f"inconsistent counts: {self.correct_O_count} correct, "
                f"{self.answered_count} answered, {self.trials} trials")

    @property
    def analytic_expected_score(self) -> float:
        """The kind's analytic per-trial score at n under these stakes."""
        return expected_score(self.kind, self.n, self.params)

    @property
    def total_cost(self) -> float:
        """C per trial for a strategy that consumes a run every trial, else 0."""
        if STRATEGIES[self.kind.name].consumes_run:
            return self.params.cost_C * self.trials
        return 0.0

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
        "strategy": report.kind.label,
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


def classical_basis_strategy(circuit: Circuit, actual: np.ndarray, guess: np.ndarray):
    """Distinguish known-basis inputs by measurement; answer only on a match.

    `actual` and `guess` are two equal 1-D integer arrays of basis indices in
    [0, 2^n), one entry per trial: trial t's input is |actual[t]>, and the
    strategy committed to guess[t] before that input existed and holds the
    circuit output for it.  A basis-state input measured in the
    computational basis gives its own index with certainty, so the
    measurement is the index comparison and every answer is right.  Returns
    (answered mask, circuit outputs of the answered guesses, one row each).
    """
    actual, guess = np.asarray(actual), np.asarray(guess)
    if actual.ndim != 1 or actual.shape != guess.shape:
        raise ValueError(f"need two equal 1-D index arrays, got shapes "
                         f"{actual.shape} and {guess.shape}")
    _check_indices("input indices", actual, 1 << circuit.num_qubits)
    _check_indices("guess indices", guess, 1 << circuit.num_qubits)
    hit = actual == guess
    return hit, circuit.unitary.T[guess[hit]]  # U e_g is column g of U


def rsp_strategy(resource: OfflineResource, near: np.ndarray, rng: np.random.Generator):
    """Steer the precomputed output onto known inputs by measuring the near block.

    Projects the near block onto each row of the (B, 2^n) array `near`, for
    a known input the input itself (the first element of a basis led by its
    conjugate); only that outcome matters.  Row t's far block is
    near_t @ R^T, with R[far, near] the resource's `matrix`; its squared norm
    is the probability that the projection fires, 2^-n for a known input on a
    circuit resource, and one rng.random(B), u < probability, decides.
    Returns (fired mask, normalized far blocks of the fired rows).  Raises,
    before drawing, on a non-finite row or a probability outside [1e-12, 1 + NORM_TOL].
    """
    if np.ndim(near) != 2 or np.shape(near)[1] != 1 << resource.n:
        raise ValueError(f"near rows have shape {np.shape(near)}, resource expects "
                         f"{resource.n} qubits: (rows, {1 << resource.n})")
    if not np.isfinite(near).all():
        raise ValueError("near rows must be finite")
    far = near @ resource.matrix.T
    prob = np.einsum("ti,ti->t", far.conj(), far).real
    _check_outcome_probability(prob)
    fired = rng.random(len(prob)) < prob
    return fired, far[fired] / np.sqrt(prob[fired])[:, None]


def approximate_output(corrects: np.ndarray, fidelity_F: float) -> np.ndarray:
    """Rows at fidelity exactly fidelity_F to the rows of `corrects`, a
    (B, 2^n) array of states normalized within NORM_TOL.

    Each row c mixes in its first Gram-Schmidt completion direction,
    (e_j - conj(c_j) c) / norm for the first basis index j not nearly
    parallel to c, which is row 1 of `orthonormal_basis_containing(c)`.  At
    fidelity_F = 1 it returns `corrects` itself, not a copy.
    """
    if not 0.0 <= fidelity_F <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {fidelity_F}")
    _check_rows(corrects)
    if fidelity_F == 1.0:
        return corrects
    c = corrects / np.linalg.norm(corrects, axis=1, keepdims=True)
    # |c_j|^2 <= 1 - _GS_RESIDUAL_MIN holds for some j whenever dim >= 2
    j = np.argmax(1.0 - np.abs(c) ** 2 > _GS_RESIDUAL_MIN, axis=1)
    picked = np.arange(len(c))
    w = -c[picked, j].conj()[:, np.newaxis] * c
    w[picked, j] += 1.0
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return math.sqrt(fidelity_F) * c + math.sqrt(1.0 - fidelity_F) * w


# --- chunk samplers ---------------------------------------------------------------
# Each plays `rows` rounds and returns (answers, correct outputs), two
# (A, 2^n) arrays holding only the A rounds the strategy answered.  Circuit
# outputs are `inputs @ U.T`.

def _decline(kind, circuit, resource, rows, rng):
    none = np.empty((0, 1 << circuit.num_qubits), dtype=complex)
    return none, none


def _guess(kind, circuit, resource, rows, rng):
    n = circuit.num_qubits
    targets = _haar_rows(n, rows, rng) @ circuit.unitary.T
    return _haar_rows(n, rows, rng), targets


def _teleport(kind, circuit, resource, rows, rng):
    # Only the all-Φ⁺ outcome answers, and pairing input and near block in
    # Φ⁺^n is the near block projected onto ψ·2^(-n/2): probability
    # ‖Rψ‖²/2^n, 4^-n on a circuit resource, and far block Uψ (the trivial
    # branch of gate teleportation).
    n = circuit.num_qubits
    inputs = _haar_rows(n, rows, rng)
    fired, outputs = rsp_strategy(resource, inputs * 2.0 ** (-n / 2), rng)
    return outputs, inputs[fired] @ circuit.unitary.T


def _classical(kind, circuit, resource, rows, rng):
    dim = 1 << circuit.num_qubits
    actual = rng.integers(dim, size=rows)
    guess = rng.integers(dim, size=rows)
    _, outputs = classical_basis_strategy(circuit, actual, guess)
    return outputs, outputs  # answered only when actual == guess


def _steer(kind, circuit, resource, rows, rng):
    known = _haar_rows(circuit.num_qubits, rows, rng)
    fired, outputs = rsp_strategy(resource, known, rng)
    return outputs, known[fired] @ circuit.unitary.T


def _approximate(kind, circuit, resource, rows, rng):
    targets = _haar_rows(circuit.num_qubits, rows, rng) @ circuit.unitary.T
    return approximate_output(targets, kind.fidelity), targets


@dataclass(frozen=True)
class Strategy:
    """One strategy: CLI token, run accounting, analytic score, chunk sampler.

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

    Rounds are played in chunks of a fixed size that depends only on n, each
    chunk sampled as one array pass and its answers graded by one check
    measurement against the true outputs.  A strategy that samples from the
    offline resource (`needs_resource`) gets `prepare_offline(circuit)`,
    prepared here once per call; the others get none.
    """
    entry = STRATEGIES[kind.name]
    resource = prepare_offline(circuit) if entry.needs_resource else None
    chunk = _chunk_rows(circuit.num_qubits, _CHUNK_BYTES)

    answered = correct = 0
    for start in range(0, trials, chunk):
        answers, corrects = entry.sample(kind, circuit, resource,
                                         min(chunk, trials - start), rng)
        answered += len(answers)
        correct += int(check_measurement(answers, corrects, rng)[0].sum())

    return GameReport(kind, circuit.num_qubits, params, trials, answered, correct)


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
