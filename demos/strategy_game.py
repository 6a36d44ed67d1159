#!/usr/bin/env python3
"""Score every answering strategy under the reward/penalty/cost game.

A correct answer earns P, a wrong answer costs N, silence scores zero,
and each consumed offline run costs C.  The interesting question is when
the 4^-n success rate of the precomputation scheme still beats guessing,
staying silent, or shipping an almost-right state.
"""

import numpy as np

from instaqc import (
    CLASSICAL_BASIS,
    INSTANTANEOUS,
    NO_ANSWER,
    RANDOM_GUESS,
    REMOTE_STATE_PREP,
    ScoreParams,
    approximate,
    approximate_breakeven,
    cost_analysis,
    expected_score,
    random_circuit,
    run_game,
)

rng = np.random.default_rng(11)

n = 2
trials = 20_000
params = ScoreParams(reward_P=1.0, penalty_N=10.0, cost_C=0.0)
circuit = random_circuit(n, depth=3, rng=rng)

print(f"game at n = {n}, P = {params.reward_P}, N = {params.penalty_N}, "
      f"{trials} trials per strategy")
print()

kinds = [
    NO_ANSWER,
    RANDOM_GUESS,
    INSTANTANEOUS,
    CLASSICAL_BASIS,
    REMOTE_STATE_PREP,
    approximate(0.9),
]
print(f"{'strategy':<18} {'empirical':>12} {'analytic':>12} "
      f"{'answered':>9} {'correct':>8}")
for kind in kinds:
    report = run_game(kind, circuit, params, trials, rng)
    print(f"{kind.label:<18} {report.empirical_mean_score:>12.5f} "
          f"{report.analytic_expected_score:>12.5f} "
          f"{report.answered_count:>9} {report.correct_O_count:>8}")
print()

# Where guessing stops being worth it: at N = 0 a wrong answer is free, so
# random guessing tops silence; the penalty flips that quickly.
print("expected scores as the penalty grows (analytic):")
print(f"{'N':>6} {'no_answer':>10} {'random':>10} {'instant':>10}")
for N in (0.0, 0.1, 1.0, 10.0):
    p = ScoreParams(reward_P=1.0, penalty_N=N, cost_C=0.0)
    row = [expected_score(k, n, p) for k in (NO_ANSWER, RANDOM_GUESS, INSTANTANEOUS)]
    print(f"{N:>6.1f} {row[0]:>10.5f} {row[1]:>10.5f} {row[2]:>10.5f}")
print()

# The run-cost ledger: one answer consumes ~4^n runs on average, so the
# scheme only pays once the reward clears that many unit costs.
print("cost model at n = 5 (one answer consumes ~4^5 = 1024 runs):")
for P in (1000.0, 1024.0, 1100.0):
    n0, pays = cost_analysis(5, ScoreParams(reward_P=P, penalty_N=0.0, cost_C=1.0))
    print(f"  P = {P:>6.0f}: expected runs per success = {n0:.0f}, "
          f"pays off = {pays}")
print()

# An approximate answer with fidelity F beats the exact scheme until the
# penalty crosses a break-even value that diverges as F -> 1.
F = 0.9
be = approximate_breakeven(n, F, 10.0)
print(f"approximate(F={F}) vs exact at P = 10: break-even N = {be:.4f}")
for N in (be - 0.5, be + 0.5):
    p = ScoreParams(reward_P=10.0, penalty_N=N, cost_C=0.0)
    s_apx = expected_score(approximate(F), n, p)
    s_inst = expected_score(INSTANTANEOUS, n, p)
    winner = "approximate" if s_apx > s_inst else "instantaneous"
    print(f"  N = {N:.4f}: approximate {s_apx:+.5f}, "
          f"instantaneous {s_inst:+.5f} -> {winner} wins")
