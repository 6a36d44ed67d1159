"""Acceptance gate: the headline claims, each reported as one PASS/FAIL line.

Every criterion below is independent: it rebuilds what it needs from fixed
seeds and states its tolerance explicitly (exact, 1e-9, or 3 sigma from the
per-trial sample variance).  _verdict prints the line and also appends it to
the shared log that conftest echoes after the run, so a scan of the output
always shows one line per criterion.
"""
import json
import math
import time

import numpy as np

import conftest
from conftest import mean_and_3sigma, per_trial_scores, rate_band_3sigma
from instaqc.circuit import Circuit, apply_circuit, random_circuit
from instaqc.cli import main as cli_main
from instaqc.statevec import StateVector, _haar_rows, fidelity, sample_haar_state
from instaqc.strategies import (
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
    rsp_strategy,
    run_game,
)
from instaqc.teleport import (
    EXTRA_EXECUTIONS_PER_REPAIR,
    check_measurement,
    force_outcome,
    outcome_distribution,
    prepare_offline,
    run_trials,
    run_with_corrections,
)
from instaqc.timeline import TimelineConfig, simulate_timeline


def _verdict(ok: bool, text: str) -> None:
    line = ("PASS " if ok else "FAIL ") + text
    print(line)
    conftest.ACCEPTANCE_LOG.append(line)
    assert ok, text


def test_criterion_01_outcome_probabilities():
    """Every Bell outcome occurs with probability 4^-n."""
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for n in (1, 2):
        for _ in range(20):
            resource = prepare_offline(random_circuit(n, 3, rng))
            psi = sample_haar_state(n, rng)
            dev = np.abs(outcome_distribution(resource, psi) - 4.0**-n).max()
            worst = max(worst, float(dev))
    exhaustive_ok = worst <= 1e-9

    n, trials = 3, 100000
    report = run_trials(random_circuit(n, 3, rng), trials, rng)
    rate, band = rate_band_3sigma(report.success_count, trials)
    sampled_ok = abs(rate - 4.0**-n) <= band
    elapsed = time.monotonic() - start
    _verdict(
        exhaustive_ok and sampled_ok and elapsed < 120.0,
        f"criterion 1: outcome probability 4^-n (exhaustive n=1,2 max dev "
        f"{worst:.2e}; sampled n=3 rate {rate:.5f} vs 1/64 +/- {band:.5f}; "
        f"{elapsed:.0f}s)")


def test_criterion_02_success_branch_exact():
    """On the all-trivial outcome the output equals the circuit output."""
    rng = np.random.default_rng(1002)
    worst = 1.0
    for n in (1, 2, 3):
        # 32 * 4^n trials miss the all-trivial outcome with probability < e^-32
        trials = 32 * 4**n
        for _ in range(50):
            report = run_trials(random_circuit(n, 3, rng), trials, rng)
            if report.success_count == 0:
                _verdict(False, f"criterion 2: no success in {trials} trials at n={n}")
            worst = min(worst, report.min_success_fidelity)
    _verdict(worst >= 1 - 1e-9,
             f"criterion 2: success-branch fidelity >= 1-1e-9 "
             f"(50 circuits at n=1,2,3; worst {worst:.12f})")


def test_criterion_03_corrections_complete():
    """Invert, fix Paulis, re-run: every outcome repaired, at 2 extra runs."""
    rng = np.random.default_rng(1003)
    worst = 1.0
    for n in (1, 2):
        for _ in range(20):
            circuit = random_circuit(n, 3, rng)
            resource = prepare_offline(circuit)
            psi = sample_haar_state(n, rng)
            target = apply_circuit(circuit, psi)
            outputs = np.array([
                force_outcome(resource, psi, code)[1]
                .output_state.amplitudes for code in range(4**n)])
            fixed = run_with_corrections(np.arange(4**n), outputs, circuit)
            worst = min([worst] + [fidelity(StateVector(row), target) for row in fixed])
    extra = EXTRA_EXECUTIONS_PER_REPAIR
    _verdict(worst >= 1 - 1e-9 and extra == 2,
             f"criterion 3: corrections restore all 4^n outcomes at n=1,2 "
             f"(worst fidelity {worst:.12f}; extra executions {extra})")


def test_criterion_04_score_formulas():
    """Monte Carlo means match P/16, 0, and P/4 - N(3/4) at n=2, P=1, N=10."""
    params = ScoreParams(1.0, 10.0)
    trials = 100000
    results = []
    for kind, seed in ((INSTANTANEOUS, 41), (NO_ANSWER, 42), (RANDOM_GUESS, 43)):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(2, 3, rng)
        report = run_game(kind, circuit, params, trials, rng)
        expected = expected_score(kind, 2, params)
        if kind is NO_ANSWER:  # zero-variance strategy: must be exact
            ok = report.empirical_mean_score == expected == 0.0
            band = 0.0
        else:
            mean, band = mean_and_3sigma(per_trial_scores(report, 1.0, 10.0))
            ok = abs(mean - expected) <= band
        results.append((kind.name, report.empirical_mean_score, expected, band, ok))
    _verdict(all(r[4] for r in results),
             "criterion 4: score formulas at n=2, P=1, N=10 -- " + "; ".join(
                 f"{name} {got:.4f} vs {want:.4f} +/- {band:.4f}"
                 for name, got, want, band, _ in results))


def test_criterion_05_never_wrong():
    """Certainty strategies never answer incorrectly."""
    trials = 100000
    rows = []
    for kind, seed in ((INSTANTANEOUS, 51), (CLASSICAL_BASIS, 52),
                       (REMOTE_STATE_PREP, 53)):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(2, 3, rng)
        report = run_game(kind, circuit, ScoreParams(1.0, 10.0), trials, rng)
        rows.append((kind.name, report.answered_count, report.correct_O_count))
    ok = all(answered == correct for _, answered, correct in rows)
    _verdict(ok, "criterion 5: zero wrong answers in 1e5 trials -- " + "; ".join(
        f"{name} {correct}/{answered}" for name, answered, correct in rows))


def test_criterion_06_hit_rates_2_to_minus_n():
    """Classical-basis and known-input rates are 2^-n."""
    checks = []
    for n in (1, 2, 3):
        rng = np.random.default_rng(600 + n)
        circuit = random_circuit(n, 2, rng)
        report = run_game(CLASSICAL_BASIS, circuit, ScoreParams(1.0, 0.0),
                          100000, rng)
        rate, band = rate_band_3sigma(report.answered_count, report.trials)
        checks.append((f"classical n={n}", rate, band, abs(rate - 2.0**-n) <= band))

        resource = prepare_offline(circuit)
        for i in range(10):
            known = sample_haar_state(n, rng)
            # 10000 trials on one known input: one rng.random(10000)
            fired, _ = rsp_strategy(resource, np.tile(known.amplitudes, (10000, 1)), rng)
            hits = int(fired.sum())
            rate, band = rate_band_3sigma(hits, 10000)
            checks.append((f"rsp n={n} input {i}", rate, band,
                           abs(rate - 2.0**-n) <= band))
    bad = [c for c in checks if not c[3]]
    _verdict(not bad,
             f"criterion 6: answer rates within 3 sigma of 2^-n at n=1,2,3 "
             f"({len(checks)} checks" + (
                 "" if not bad else "; failing: " + "; ".join(
                     f"{name} {rate:.4f}+/-{band:.4f}" for name, rate, band, _ in bad))
             + ")")


def test_criterion_07_random_guess_pass_rate():
    """A Haar guess passes the check with mean probability 2^-n = 1/4 at n=2."""
    rng = np.random.default_rng(1007)
    trials = 100000
    corrects = _haar_rows(2, trials, rng)
    guesses = _haar_rows(2, trials, rng)
    is_O, probs = check_measurement(guesses, corrects, rng)
    rate, rate_band = rate_band_3sigma(int(is_O.sum()), trials)
    mean, mean_band = mean_and_3sigma(probs)
    ok = abs(rate - 0.25) <= rate_band and abs(mean - 0.25) <= mean_band
    _verdict(ok,
             f"criterion 7: random-guess O rate at n=2 -- sampled {rate:.4f} "
             f"+/- {rate_band:.4f}, analytic mean {mean:.4f} +/- {mean_band:.4f}, "
             f"target 0.25")


def test_criterion_08_cost_model():
    """n0 = 4^n runs per success; worth it only when P exceeds n0*C strictly."""
    n0, _ = cost_analysis(5, ScoreParams(1.0, 0.0, 1.0))
    flips = [cost_analysis(5, ScoreParams(P, 0.0, 1.0))[1]
             for P in (1023.0, 1024.0, 1025.0)]
    ok = n0 == 1024.0 and flips == [False, False, True]
    _verdict(ok, f"criterion 8: cost model n0={n0:.0f}, pays_off at "
                 f"P=1023,1024,1025 with C=1 -> {flips}")


def test_criterion_09_approximate_breakeven():
    """Approximate answers lose once the penalty passes the break-even N."""
    threshold = approximate_breakeven(2, 0.9, 1.0)
    at8 = ScoreParams(1.0, 8.0)
    at9 = ScoreParams(1.0, 9.0)
    approx_wins_at_8 = (expected_score(approximate(0.9), 2, at8)
                        > expected_score(INSTANTANEOUS, 2, at8))
    approx_loses_at_9 = (expected_score(approximate(0.9), 2, at9)
                         < expected_score(INSTANTANEOUS, 2, at9))
    ok = (abs(threshold - 8.375) < 1e-12 and approx_wins_at_8
          and approx_loses_at_9 and approximate_breakeven(2, 1.0, 1.0) == math.inf)
    _verdict(ok, f"criterion 9: break-even N = {threshold} (want 8.375); "
                 f"approximate wins at N=8 ({approx_wins_at_8}), "
                 f"loses at N=9 ({approx_loses_at_9})")


def test_criterion_10_distributed_advantage():
    """A deadline only the pre-shared-entanglement scheme can meet, plus
    monotonicity of the deadline verdict over a random config grid."""
    config = TimelineConfig(t1=0.0, t2=10.0, alice_duration=1.0,
                            bob_duration=8.0, bob_start=-5.0,
                            classical_latency=2.0, bsm_duration=0.5)
    report = simulate_timeline(config)
    advantage = report.teleport_meets_deadline and not report.conventional_meets_deadline

    rng = np.random.default_rng(1010)
    monotone = True
    for _ in range(100):
        t1 = float(rng.uniform(-5, 5))
        base = TimelineConfig(t1, t1 + float(rng.uniform(0.1, 20)),
                              float(rng.uniform(0, 5)), float(rng.uniform(0, 10)),
                              float(rng.uniform(-10, 10)), float(rng.uniform(0, 5)),
                              float(rng.uniform(0, 1)))
        verdict = simulate_timeline(base).teleport_meets_deadline
        later = simulate_timeline(TimelineConfig(
            base.t1, base.t2 + 1.0, base.alice_duration, base.bob_duration,
            base.bob_start, base.classical_latency, base.bsm_duration))
        slower = simulate_timeline(TimelineConfig(
            base.t1, base.t2, base.alice_duration, base.bob_duration + 1.0,
            base.bob_start, base.classical_latency, base.bsm_duration))
        if verdict and not later.teleport_meets_deadline:
            monotone = False
        if not verdict and slower.teleport_meets_deadline:
            monotone = False
    _verdict(advantage and monotone,
             f"criterion 10: two-site advantage scenario holds ({advantage}) "
             f"and deadline verdict monotone over 100 random configs ({monotone})")


def test_criterion_11_determinism(tmp_path):
    """Same seed, same bytes, for every output format."""
    runs = {
        "teleport.json": ["teleport", "--n", "2", "--trials", "500", "--seed", "17"],
        "game.csv": ["game", "--n", "1:2", "--strategies",
                     "no_answer,random,instant,classical,rsp,approx:0.9",
                     "--trials", "300", "--penalty", "0,10", "--seed", "17", "--csv"],
        "game.json": ["game", "--n", "1", "--strategies", "instant",
                      "--trials", "300", "--seed", "17"],
        "timeline.csv": ["timeline", "--config", None, "--csv"],
    }
    timeline_doc = {"t1": 0, "t2": 10, "alice_duration": 1, "bob_duration": 8,
                    "bob_start": -5, "classical_latency": 2, "bsm_duration": 0.5}
    timeline_path = tmp_path / "timeline_config.json"
    timeline_path.write_text(json.dumps(timeline_doc))

    identical = True
    for name, argv in runs.items():
        argv = [str(timeline_path) if a is None else a for a in argv]
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"{attempt}_{name}"
            code = cli_main(argv + ["--out", str(out)])
            assert code == 0, (name, code)
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            identical = False
    _verdict(identical,
             f"criterion 11: byte-identical reruns for {', '.join(runs)}")
