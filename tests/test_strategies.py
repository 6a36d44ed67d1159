"""Strategy scoring: analytic formulas, Monte Carlo convergence, cost model."""
import math

import numpy as np
import pytest

from conftest import assert_within_3sigma, per_trial_scores, rate_within_3sigma
from instaqc.circuit import Circuit, apply_circuit, random_circuit
from instaqc.statevec import (
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
    GameReport,
    ScoreParams,
    StrategyKind,
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
from instaqc.teleport import prepare_offline


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
        GameReport("x", 1, params, 10, 5, 6, 0.0, 0.0)
    with pytest.raises(ValueError, match="inconsistent"):
        GameReport("x", 1, params, 10, 11, 0, 0.0, 0.0)


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
    answered, output = classical_basis_strategy(circ, 3, 3)
    assert answered
    assert fidelity(output, apply_circuit(circ, basis_state(2, 3))) > 1 - 1e-9


def test_classical_basis_mismatch_declines():
    answered, output = classical_basis_strategy(Circuit(2), 1, 2)
    assert not answered
    assert output is None


def test_classical_basis_index_validation():
    with pytest.raises(ValueError, match="input index"):
        classical_basis_strategy(Circuit(1), 2, 0)
    with pytest.raises(ValueError, match="guess index"):
        classical_basis_strategy(Circuit(1), 0, 2)


def test_classical_basis_answer_rate():
    """Uniform random actual and guess: match probability 2^-n."""
    rng = np.random.default_rng(93)
    circ = Circuit(3)
    trials, hits = 20000, 0
    for _ in range(trials):
        actual = int(rng.integers(8))
        guess = int(rng.integers(8))
        answered, _ = classical_basis_strategy(circ, actual, guess)
        hits += answered
    rate_within_3sigma(hits, trials, 0.125)


def test_rsp_identity_on_zero_state():
    rng = np.random.default_rng(94)
    resource = prepare_offline(Circuit(1))
    hits = 0
    for _ in range(200):
        answered, output = rsp_strategy(resource, basis_state(1, 0), rng)
        if answered:
            hits += 1
            assert fidelity(output, basis_state(1, 0)) > 1 - 1e-9
    rate_within_3sigma(hits, 200, 0.5)


@pytest.mark.parametrize("n", [1, 2])
def test_rsp_success_gives_circuit_output(n):
    rng = np.random.default_rng(95 + n)
    circ = random_circuit(n, 3, rng)
    resource = prepare_offline(circ)
    for _ in range(3):
        known = sample_haar_state(n, rng)
        target = apply_circuit(circ, known)
        seen = 0
        while seen < 5:  # collect a few successes per input
            answered, output = rsp_strategy(resource, known, rng)
            if answered:
                seen += 1
                assert fidelity(output, target) > 1 - 1e-9


def test_rsp_success_rate_entangled_input():
    """2^-n even for an entangled known input (near marginal is mixed)."""
    rng = np.random.default_rng(97)
    circ = random_circuit(2, 2, rng)
    resource = prepare_offline(circ)
    bell_like = prepare_offline(Circuit(1)).joint_state  # 2-qubit entangled state
    trials, hits = 4000, 0
    for _ in range(trials):
        answered, _ = rsp_strategy(resource, bell_like, rng)
        hits += answered
    rate_within_3sigma(hits, trials, 0.25)


def test_rsp_validates_sizes():
    rng = np.random.default_rng(98)
    with pytest.raises(ValueError, match="resource expects 2"):
        rsp_strategy(prepare_offline(Circuit(2)), basis_state(1, 0), rng)


@pytest.mark.parametrize("F", [0.0, 0.3, 0.9, 1.0])
def test_approximate_output_exact_overlap(F):
    rng = np.random.default_rng(99)
    correct = sample_haar_state(2, rng)
    out = approximate_output(correct, F)
    assert abs(fidelity(out, correct) - F) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_approximate_output_direction_is_gram_schmidt_row_1(n):
    rng = np.random.default_rng(98 + n)
    for _ in range(5):
        correct = sample_haar_state(n, rng)
        row = orthonormal_basis_containing(correct.amplitudes)[1]
        assert np.abs(approximate_output(correct, 0.0).amplitudes - row).max() <= 1e-12


def test_approximate_output_skips_parallel_candidate():
    correct = basis_state(3, 0)  # candidate e_0 is the state itself
    row = orthonormal_basis_containing(correct.amplitudes)[1]
    assert np.abs(approximate_output(correct, 0.0).amplitudes - row).max() <= 1e-12
    assert abs(fidelity(approximate_output(correct, 0.9), correct) - 0.9) < 1e-12


def test_approximate_output_validates_fidelity():
    with pytest.raises(ValueError, match="fidelity"):
        approximate_output(basis_state(1, 0), 1.1)


# --- run_game ---------------------------------------------------------------------

def _game(kind, n, trials, seed, penalty=10.0, cost=0.0, depth=2):
    rng = np.random.default_rng(seed)
    circ = random_circuit(n, depth, rng)
    return run_game(kind, circ, ScoreParams(1.0, penalty, cost), trials, rng)


def test_run_game_validates_inputs():
    rng = np.random.default_rng(100)
    with pytest.raises(ValueError, match="trials"):
        run_game(NO_ANSWER, Circuit(2), ScoreParams(1.0, 0.0), 0, rng)


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
    report = GameReport("random_guess", 2, ScoreParams(1.0, 10.0), 5, 5, 1,
                        -7.25, 0.0)
    doc = json.loads(json.dumps(game_report_to_dict(report)))
    assert doc["strategy"] == "random_guess"
    assert doc["N"] == 10.0
    assert doc["correct"] == 1
    assert doc["empirical_score"] == -7.8  # (1 * 1 - 10 * 4) / 5, from the counts
