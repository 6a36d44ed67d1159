"""Strategy scoring: analytic formulas, Monte Carlo convergence, cost model."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_within_3sigma, per_trial_scores, rate_within_3sigma, traced_peak
from instaqc.circuit import Circuit, apply_circuit, random_circuit
from instaqc.statevec import (
    StateVector,
    _haar_rows,
    basis_state,
    fidelity,
    orthonormal_basis_containing,
    sample_haar_state,
)
from instaqc.strategies import (
    CLASSICAL_BASIS,
    INSTANTANEOUS,
    NO_ANSWER,
    RANDOM_GUESS,
    REMOTE_STATE_PREP,
    STRATEGIES,
    GameReport,
    ScoreParams,
    StrategyKind,
    _CHUNK_BYTES,
    approximate,
    approximate_breakeven,
    approximate_output,
    classical_basis_strategy,
    cost_analysis,
    expected_score,
    game_report_to_dict,
    rsp_strategy,
    run_game,
)
from instaqc.teleport import OfflineResource, _chunk_rows, force_outcome, prepare_offline


# --- types ---------------------------------------------------------------------

def test_strategy_kind_validation():
    with pytest.raises(ValueError, match="unknown strategy"):
        StrategyKind("telepathy")
    with pytest.raises(ValueError, match="fidelity"):
        StrategyKind("approximate")
    with pytest.raises(ValueError, match="fidelity"):
        approximate(1.5)
    with pytest.raises(ValueError, match="no fidelity"):
        StrategyKind("no_answer", 0.5)
    assert approximate(0.9).label == "approximate(0.9)"


def test_score_params_validation():
    with pytest.raises(ValueError, match="reward_P"):
        ScoreParams(0.0, 1.0)
    with pytest.raises(ValueError, match="penalty_N"):
        ScoreParams(1.0, -1.0)
    with pytest.raises(ValueError, match="cost_C"):
        ScoreParams(1.0, 0.0, -0.5)


@pytest.mark.parametrize("field", range(3))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_score_params_rejects_non_finite(field, bad):
    values = [1.0, 0.0, 0.0]
    values[field] = bad
    with pytest.raises(ValueError, match="finite"):
        ScoreParams(*values)


def test_game_report_count_invariant():
    params = ScoreParams(1.0, 0.0)
    with pytest.raises(ValueError, match="inconsistent"):
        GameReport(INSTANTANEOUS, 1, params, 10, 5, 6)
    with pytest.raises(ValueError, match="inconsistent"):
        GameReport(INSTANTANEOUS, 1, params, 10, 11, 0)


def test_game_report_rejects_empty_sizes():
    params = ScoreParams(1.0, 0.0)
    with pytest.raises(ValueError, match="n >= 1"):
        GameReport(INSTANTANEOUS, 0, params, 5, 1, 1)
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials >= 1"):
            GameReport(INSTANTANEOUS, 1, params, trials, 0, 0)


# --- analytic scores -------------------------------------------------------------

def test_expected_score_formulas():
    params = ScoreParams(1.0, 10.0)
    assert expected_score(NO_ANSWER, 3, params) == 0.0
    assert abs(expected_score(INSTANTANEOUS, 5, params) - 1 / 1024) < 1e-15
    assert abs(expected_score(RANDOM_GUESS, 2, ScoreParams(1.0, 10.0)) - (-7.25)) < 1e-12
    assert abs(expected_score(CLASSICAL_BASIS, 3, params) - 0.125) < 1e-15
    assert abs(expected_score(REMOTE_STATE_PREP, 3, params) - 0.125) < 1e-15
    assert abs(expected_score(approximate(0.9), 2, params) - (0.9 - 1.0)) < 1e-12


def test_expected_score_requires_positive_n():
    with pytest.raises(ValueError, match="n >= 1"):
        expected_score(NO_ANSWER, 0, ScoreParams(1.0, 0.0))


def test_instantaneous_beats_no_answer_everywhere():
    for n in range(1, 9):
        for P in (1.0, 10.0, 100.0):
            for N in (0.0, 1.0, 10.0, 1000.0):
                params = ScoreParams(P, N)
                assert expected_score(INSTANTANEOUS, n, params) > 0.0
                assert expected_score(NO_ANSWER, n, params) == 0.0


def test_instantaneous_vs_random_guess_threshold():
    """S_inst > S_rand exactly when N > P(2^-n - 4^-n)/(1 - 2^-n).

    At N below that threshold (e.g. N = 0) random guessing wins on average,
    so the comparison is asserted as the exact equivalence rather than a
    blanket ordering.
    """
    for n in range(1, 9):
        threshold_factor = (2.0**-n - 4.0**-n) / (1.0 - 2.0**-n)
        for P in (1.0, 10.0, 100.0):
            for N in (0.0, 1.0, 10.0, 1000.0):
                params = ScoreParams(P, N)
                inst = expected_score(INSTANTANEOUS, n, params)
                rand = expected_score(RANDOM_GUESS, n, params)
                assert (inst > rand) == (N > P * threshold_factor), (n, P, N)


# --- strategy primitives ----------------------------------------------------------

def test_classical_basis_match_answers_correctly():
    circ = random_circuit(2, 3, np.random.default_rng(90))
    answered, outputs = classical_basis_strategy(circ, np.array([3]), np.array([3]))
    assert answered[0]
    assert fidelity(StateVector(outputs[0]), apply_circuit(circ, basis_state(2, 3))) > 1 - 1e-9


def test_classical_basis_mismatch_declines():
    answered, outputs = classical_basis_strategy(Circuit(2), np.array([1]), np.array([2]))
    assert not answered[0]
    assert outputs.shape == (0, 4)


@pytest.mark.parametrize("actual, guess, match", [
    (np.array([1.5]), np.array([0]), "integers"),
    (np.array([0]), np.array([0.0]), "integers"),
    (np.array([True]), np.array([True]), "integers"),
    (1.5, 0, "1-D"),
    (True, True, "1-D"),
    (np.array([[0]]), np.array([[0]]), "1-D"),
    (np.array([0, 1]), np.array([0]), "1-D"),
], ids=["float input", "float guess", "bool", "float scalar", "bool scalar", "2-D",
        "shapes differ"])
def test_classical_basis_rejects_bad_index_arrays(actual, guess, match):
    with pytest.raises(ValueError, match=match):
        classical_basis_strategy(Circuit(1), actual, guess)


def test_classical_basis_answer_rate():
    """Uniform random actual and guess: match probability 2^-n."""
    rng = np.random.default_rng(93)
    circ = Circuit(3)
    trials = 20000
    actual, guess = rng.integers(8, size=(trials, 2)).T  # the pairs in draw order
    answered, _ = classical_basis_strategy(circ, actual, guess)
    rate_within_3sigma(int(answered.sum()), trials, 0.125)


def test_rsp_identity_on_zero_state():
    rng = np.random.default_rng(94)
    resource = prepare_offline(Circuit(1))
    zero = basis_state(1, 0)
    answered, outputs = rsp_strategy(resource, np.tile(zero.amplitudes, (200, 1)), rng)
    for output in outputs:
        assert fidelity(StateVector(output), zero) > 1 - 1e-9
    rate_within_3sigma(int(answered.sum()), 200, 0.5)


@pytest.mark.parametrize("n", [1, 2])
def test_rsp_success_gives_circuit_output(n):
    rng = np.random.default_rng(95 + n)
    circ = random_circuit(n, 3, rng)
    resource = prepare_offline(circ)
    for _ in range(3):
        known = sample_haar_state(n, rng)
        target = apply_circuit(circ, known)
        answered, outputs = rsp_strategy(resource, np.tile(known.amplitudes, (100, 1)), rng)
        assert answered.sum() >= 5  # a few successes per input
        for output in outputs:
            assert fidelity(StateVector(output), target) > 1 - 1e-9


def test_rsp_success_rate_entangled_input():
    """2^-n even for an entangled known input (near marginal is mixed)."""
    rng = np.random.default_rng(97)
    circ = random_circuit(2, 2, rng)
    resource = prepare_offline(circ)
    bell_like = prepare_offline(Circuit(1)).joint_state  # 2-qubit entangled state
    trials = 4000
    answered, _ = rsp_strategy(resource, np.tile(bell_like.amplitudes, (trials, 1)), rng)
    rate_within_3sigma(int(answered.sum()), trials, 0.25)


def test_rsp_validates_sizes():
    rng = np.random.default_rng(98)
    resource = prepare_offline(Circuit(2))
    for near in (basis_state(1, 0).amplitudes[None], basis_state(2, 0).amplitudes):
        with pytest.raises(ValueError, match="resource expects 2"):
            rsp_strategy(resource, near, rng)


class CountingRng:
    """Generator stand-in: random(size) returns zeros and counts the draws."""

    draws = 0

    def random(self, size=None):
        self.draws += 1
        return np.zeros(size)


def test_rsp_refuses_near_zero_outcome():
    """A hand-built resource |0>_near|0>_far supports only near input |0>:
    an input with |<0|known>|^2 below 1e-12 is refused before any draw, as
    any projection onto a (near-)zero-probability outcome is; one above it
    fires and renormalizes."""
    resource = OfflineResource(basis_state(2, 0).amplitudes.reshape(2, 2))
    rng = CountingRng()
    for p0 in (0.0, 1e-13):
        known = np.array([np.sqrt(p0), np.sqrt(1.0 - p0)])
        with pytest.raises(ValueError, match="zero probability"):
            rsp_strategy(resource, known[None], rng)
        with pytest.raises(ValueError, match="zero probability"):
            rsp_strategy(resource, np.array([[1.0, 0.0], known]), rng)
    assert rng.draws == 0
    known = np.array([np.sqrt(1e-11), np.sqrt(1.0 - 1e-11)])
    answered, outputs = rsp_strategy(resource, known[None], rng)
    assert answered[0] and rng.draws == 1
    assert fidelity(StateVector(outputs[0]), basis_state(1, 0)) > 1 - 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rsp_refuses_non_finite_rows(bad):
    """A row with a NaN or inf entry is refused before any draw, where a
    NaN row used to be declined."""
    rng = CountingRng()
    with pytest.raises(ValueError, match="finite"):
        rsp_strategy(prepare_offline(Circuit(1)), np.array([[1.0, 0.0], [bad, 0.0]]), rng)
    assert rng.draws == 0


@pytest.mark.parametrize("F", [0.0, 0.3, 0.9, 1.0])
def test_approximate_output_exact_overlap(F):
    rng = np.random.default_rng(99)
    correct = sample_haar_state(2, rng)
    rows = correct.amplitudes[None]
    out = approximate_output(rows, F)
    assert abs(fidelity(StateVector(out[0]), correct) - F) < 1e-12
    assert (out is rows) == (F == 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_approximate_output_direction_is_gram_schmidt_row_1(n):
    rng = np.random.default_rng(98 + n)
    corrects = np.array([sample_haar_state(n, rng).amplitudes for _ in range(5)])
    for correct, out in zip(corrects, approximate_output(corrects, 0.0)):
        row = orthonormal_basis_containing(correct)[1]
        assert np.abs(out - row).max() <= 1e-12


def test_approximate_output_skips_parallel_candidate():
    correct = basis_state(3, 0)  # candidate e_0 is the state itself
    row = orthonormal_basis_containing(correct.amplitudes)[1]
    rows = correct.amplitudes[None]
    assert np.abs(approximate_output(rows, 0.0)[0] - row).max() <= 1e-12
    assert abs(fidelity(StateVector(approximate_output(rows, 0.9)[0]), correct) - 0.9) < 1e-12


def test_approximate_output_validates_fidelity():
    with pytest.raises(ValueError, match="fidelity"):
        approximate_output(basis_state(1, 0).amplitudes[None], 1.1)


@pytest.mark.parametrize("F", [0.5, 1.0])
@pytest.mark.parametrize("rows, match", [
    (np.array([[1.0, 0.0], [np.nan, 0.0]]), "finite"),
    (np.array([[1.0, 0.0], [np.inf, 0.0]]), "finite"),
    (np.array([[1.0, 0.0], [0.0, 0.0]]), "normalized"),
    (np.array([[1.0, 1.0]]), "normalized"),
    (np.array([1.0, 0.0]), "rows"),
    (np.array([[1.0]]), "rows"),
], ids=["nan", "inf", "zero", "unnormalized", "1-D", "width 1"])
def test_approximate_output_rejects_bad_rows(rows, match, F):
    """Refused with a ValueError and no RuntimeWarning, at F = 1 too, where
    valid rows come back as they are."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            approximate_output(rows, F)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), F=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       aligned=st.lists(st.integers(0, 31), max_size=4))
def test_approximate_output_fidelity_is_exactly_F(n, F, seed, aligned):
    """Every row lands at fidelity F to its correct row, basis-aligned rows
    (a basis state times a phase) among them."""
    corrects = _haar_rows(n, 6, np.random.default_rng(seed))
    for row, index in enumerate(aligned):
        corrects[row] = 0.0
        corrects[row, index % (1 << n)] = np.exp(1j * index)
    out = approximate_output(corrects, F)
    overlaps = np.abs(np.einsum("ti,ti->t", out.conj(), corrects)) ** 2
    assert np.abs(overlaps - F).max() <= 1e-12
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-12


# --- chunk samplers -------------------------------------------------------------

class UniformsRng:
    """Stands in for a Generator: random(size) returns `uniforms`, every
    other draw is the seeded generator's."""

    def __init__(self, seed, uniforms):
        self._gen = np.random.default_rng(seed)
        self.uniforms = uniforms

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def random(self, size=None):
        assert size == len(self.uniforms)
        return self.uniforms


@pytest.mark.parametrize("kind", ["circuit", "haar"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_instant_sampler_fires_exactly_below_the_all_trivial_probability(kind, n):
    """The `instant` chunk sampler answers a row iff its one uniform is below
    p0, the exact probability that every pair reads Φ⁺ (`force_outcome` of
    code 0), and answers with that outcome's far block.  Uniforms sit a
    relative 1e-9 below, then above, each row's p0."""
    states = np.random.default_rng(160 + n)
    circuit = random_circuit(n, 3, states)
    resource = (prepare_offline(circuit) if kind == "circuit"
                else OfflineResource(
                    sample_haar_state(2 * n, states).amplitudes.reshape(2**n, 2**n)))
    rows = 6
    inputs = _haar_rows(n, rows, np.random.default_rng(n))  # the sampler's first draw
    forced = [force_outcome(resource, StateVector(row), 0) for row in inputs]
    p0 = np.array([prob for prob, _ in forced])
    sample = STRATEGIES["instantaneous"].sample

    answers, corrects = sample(INSTANTANEOUS, circuit, resource, rows,
                               UniformsRng(n, p0 * (1 - 1e-9)))
    assert len(answers) == rows
    assert np.array_equal(corrects, inputs @ circuit.unitary.T)
    for answer, (_, result) in zip(answers, forced):
        assert fidelity(StateVector(answer), result.output_state) >= 1 - 1e-12
    answers, corrects = sample(INSTANTANEOUS, circuit, resource, rows,
                               UniformsRng(n, p0 * (1 + 1e-9)))
    assert answers.shape == corrects.shape == (0, 1 << n)


def test_instant_sampler_answers_at_rate_4_to_the_minus_n():
    n, rows = 2, 20_000
    circuit = random_circuit(n, 3, np.random.default_rng(170))
    answers, _ = STRATEGIES["instantaneous"].sample(
        INSTANTANEOUS, circuit, prepare_offline(circuit), rows, np.random.default_rng(171))
    rate_within_3sigma(len(answers), rows, 4.0**-n)


def test_run_game_at_n8_stays_small():
    """300 trials, one (B, 2^8) pass each, would hold ~20 MiB; in the game's
    chunks of 12 rows each strategy's arrays stay under 512 KiB, and what
    remains is the 2^16-amplitude resource (~3 MiB where built)."""
    circ = random_circuit(8, 2, np.random.default_rng(150))
    circ.unitary  # compiled before tracing: 1 MiB, cached on the circuit
    trials = 300
    assert _chunk_rows(8, _CHUNK_BYTES) == 12
    assert trials >= 3 * _chunk_rows(8, _CHUNK_BYTES)
    for name in STRATEGIES:
        kind = approximate(0.9) if name == "approximate" else StrategyKind(name)
        rng = np.random.default_rng(151)
        peak = traced_peak(lambda: run_game(kind, circ, ScoreParams(1.0, 0.0), trials, rng))
        assert peak < 4 << 20, (name, peak)


# --- run_game ---------------------------------------------------------------------

def _game(kind, n, trials, seed, penalty=10.0, cost=0.0, depth=2):
    rng = np.random.default_rng(seed)
    circ = random_circuit(n, depth, rng)
    return run_game(kind, circ, ScoreParams(1.0, penalty, cost), trials, rng)


def test_run_game_validates_inputs():
    rng = np.random.default_rng(100)
    with pytest.raises(ValueError, match="trials"):
        run_game(NO_ANSWER, Circuit(2), ScoreParams(1.0, 0.0), 0, rng)


def test_run_game_prepares_the_resource_it_samples(monkeypatch):
    """instant and rsp get `prepare_offline` of the game's own circuit, once
    per call however many chunks it plays; the other strategies get none."""
    assert ({name for name, entry in STRATEGIES.items() if entry.needs_resource}
            == {"instantaneous", "remote_state_prep"})
    prepared = []

    def counting(circuit):
        prepared.append(circuit)
        return prepare_offline(circuit)
    monkeypatch.setattr("instaqc.strategies.prepare_offline", counting)
    circ = random_circuit(1, 2, np.random.default_rng(108))
    trials = 2 * _chunk_rows(1, _CHUNK_BYTES) + 1  # three chunks
    for kind in (NO_ANSWER, RANDOM_GUESS, INSTANTANEOUS, CLASSICAL_BASIS,
                 REMOTE_STATE_PREP, approximate(0.9)):
        prepared.clear()
        run_game(kind, circ, ScoreParams(1.0, 0.0), trials, np.random.default_rng(109))
        assert prepared == ([circ] if STRATEGIES[kind.name].needs_resource else []), kind


def test_no_answer_report_is_all_zero():
    report = _game(NO_ANSWER, 2, 100, seed=101)
    assert report.answered_count == 0
    assert report.correct_O_count == 0
    assert report.empirical_mean_score == 0.0
    assert report.analytic_expected_score == 0.0
    assert report.total_cost == 0.0


def test_never_wrong_strategies():
    for kind in (INSTANTANEOUS, CLASSICAL_BASIS, REMOTE_STATE_PREP):
        report = _game(kind, 1, 2000, seed=102)
        assert report.correct_O_count == report.answered_count, kind.name


def test_random_guess_converges_to_analytic():
    report = _game(RANDOM_GUESS, 2, 20000, seed=103)
    scores = per_trial_scores(report, 1.0, 10.0)
    assert_within_3sigma(scores, report.analytic_expected_score)


def test_instantaneous_converges_to_analytic():
    report = _game(INSTANTANEOUS, 1, 20000, seed=104)
    scores = per_trial_scores(report, 1.0, 10.0)
    assert_within_3sigma(scores, report.analytic_expected_score)


def test_approximate_wrong_rate():
    F = 0.8
    report = _game(approximate(F), 2, 20000, seed=105)
    assert report.answered_count == report.trials
    rate_within_3sigma(report.answered_count - report.correct_O_count,
                       report.trials, 1 - F)


def test_approximate_full_fidelity_always_correct():
    report = _game(approximate(1.0), 1, 500, seed=106)
    assert report.correct_O_count == report.answered_count == report.trials
    assert report.empirical_mean_score == 1.0


def test_cost_accounting():
    for kind, expect_cost in ((INSTANTANEOUS, 50.0), (CLASSICAL_BASIS, 50.0),
                              (REMOTE_STATE_PREP, 50.0), (NO_ANSWER, 0.0),
                              (RANDOM_GUESS, 0.0), (approximate(0.9), 0.0)):
        report = _game(kind, 1, 100, seed=107, cost=0.5)
        assert report.total_cost == expect_cost, kind.name


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("chunks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
def test_run_game_plays_every_trial_across_chunk_boundaries(n, chunks, extra):
    """One trial short of a chunk, a full chunk, one past it and one past
    two: the last partial chunk is played and no trial is played twice."""
    trials = chunks * _chunk_rows(n, _CHUNK_BYTES) + extra
    circ = random_circuit(n, 2, np.random.default_rng(180 + n))
    for kind, answered in ((RANDOM_GUESS, trials), (approximate(0.9), trials),
                           (NO_ANSWER, 0)):
        rng = np.random.default_rng(181)
        report = run_game(kind, circ, ScoreParams(1.0, 10.0), trials, rng)
        assert report.trials == trials
        assert report.answered_count == answered, kind.name


# --- cost model --------------------------------------------------------------------

def test_cost_analysis_values():
    n0, _ = cost_analysis(5, ScoreParams(1.0, 0.0, 1.0))
    assert n0 == 1024.0
    assert cost_analysis(1, ScoreParams(1.0, 0.0))[0] == 4.0


def test_cost_analysis_strict_inequality():
    assert cost_analysis(5, ScoreParams(2000.0, 0.0, 1.0))[1]
    assert not cost_analysis(5, ScoreParams(1000.0, 0.0, 1.0))[1]
    assert not cost_analysis(5, ScoreParams(1024.0, 0.0, 1.0))[1]
    assert cost_analysis(5, ScoreParams(1025.0, 0.0, 1.0))[1]


def test_cost_analysis_monotone():
    # antitone in n and C, monotone in P
    assert cost_analysis(1, ScoreParams(5.0, 0.0, 1.0))[1]
    assert not cost_analysis(2, ScoreParams(5.0, 0.0, 1.0))[1]
    assert not cost_analysis(1, ScoreParams(5.0, 0.0, 2.0))[1]
    assert cost_analysis(1, ScoreParams(9.0, 0.0, 2.0))[1]


def test_approximate_breakeven_values():
    assert abs(approximate_breakeven(2, 0.9, 1.0) - 8.375) < 1e-12
    assert abs(approximate_breakeven(2, 0.0625, 1.0)) < 1e-15
    assert approximate_breakeven(2, 0.01, 1.0) < 0.0
    assert approximate_breakeven(3, 1.0, 1.0) == math.inf
    with pytest.raises(ValueError, match="fidelity"):
        approximate_breakeven(2, -0.1, 1.0)


def test_breakeven_separates_the_scores():
    n, F, P = 2, 0.9, 1.0
    threshold = approximate_breakeven(n, F, P)
    below = ScoreParams(P, threshold - 0.5)
    above = ScoreParams(P, threshold + 0.5)
    assert expected_score(approximate(F), n, below) > expected_score(INSTANTANEOUS, n, below)
    assert expected_score(approximate(F), n, above) < expected_score(INSTANTANEOUS, n, above)


# --- serialization -------------------------------------------------------------------

def test_report_dict_round_trips_through_json():
    import json
    report = GameReport(RANDOM_GUESS, 2, ScoreParams(1.0, 10.0, 3.0), 5, 5, 1)
    doc = json.loads(json.dumps(game_report_to_dict(report)))
    assert doc["strategy"] == "random_guess"
    assert doc["N"] == 10.0
    assert doc["correct"] == 1
    assert doc["empirical_score"] == -7.8  # (1 * 1 - 10 * 4) / 5, from the counts
    assert doc["analytic_score"] == -7.25  # 1/4 - 10 * 3/4, from kind, n and stakes
    assert doc["total_cost"] == 0.0  # random guessing consumes no run
    report = GameReport(INSTANTANEOUS, 2, ScoreParams(1.0, 10.0, 3.0), 5, 5, 1)
    assert game_report_to_dict(report)["total_cost"] == 15.0


def test_report_scores_follow_its_kind():
    params = ScoreParams(2.0, 5.0, 0.75)
    for name, entry in STRATEGIES.items():
        kind = approximate(0.9) if name == "approximate" else StrategyKind(name)
        for n in range(1, 5):
            report = GameReport(kind, n, params, 8, 3, 2)
            assert report.analytic_expected_score == expected_score(kind, n, params)
            assert report.total_cost == (0.75 * 8 if entry.consumes_run else 0.0), name
