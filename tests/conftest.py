"""Shared test helpers: statistical tolerance checks, allocation peaks and the
acceptance log."""
import tracemalloc

import numpy as np

# one PASS/FAIL line per acceptance criterion, echoed after the run
ACCEPTANCE_LOG: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LOG:
            terminalreporter.write_line(line)


def traced_peak(fn):
    """Peak bytes traced while fn() runs (numpy arrays included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mean_and_3sigma(values):
    """Sample mean and 3x its standard error, from per-trial sample variance."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least 2 samples")
    return float(arr.mean()), 3.0 * float(np.sqrt(arr.var(ddof=1) / arr.size))


def assert_within_3sigma(values, expected):
    mean, band = mean_and_3sigma(values)
    assert abs(mean - expected) <= band, (
        f"mean {mean} is outside {expected} +/- {band}")


def rate_band_3sigma(successes, trials):
    """(rate, 3x standard error) for a Bernoulli sample, variance from the
    sample itself with a 1/trials floor so a 0-or-all sample keeps a band."""
    rate = successes / trials
    band = 3.0 * float(np.sqrt(max(rate * (1.0 - rate), 1.0 / trials) / trials))
    return rate, band


def rate_within_3sigma(successes, trials, expected):
    rate, band = rate_band_3sigma(successes, trials)
    assert abs(rate - expected) <= band, (
        f"rate {rate} ({successes}/{trials}) is outside {expected} +/- {band}")


def per_trial_scores(report, P, N):
    """Rebuild the per-trial score sample of a game report from its counts."""
    wrong = report.answered_count - report.correct_O_count
    silent = report.trials - report.answered_count
    return np.repeat([P, -N, 0.0], [report.correct_O_count, wrong, silent])
