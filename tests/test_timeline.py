"""Two-site deadline arithmetic and its serialization."""
import numpy as np
import pytest

from instaqc.timeline import (
    TIMELINE_CSV_COLUMNS,
    TimelineConfig,
    simulate_timeline,
    timeline_config_from_dict,
    timeline_report_to_csv,
    timeline_report_to_dict,
)


def _config(**overrides):
    base = dict(t1=0.0, t2=10.0, alice_duration=1.0, bob_duration=5.0,
                bob_start=0.0, classical_latency=2.0, bsm_duration=0.5)
    base.update(overrides)
    return TimelineConfig(**base)


def test_field_arithmetic():
    report = simulate_timeline(_config())
    assert report.alice_output_time == 1.0
    assert report.message_arrival_time == 3.5
    assert report.bob_ready_time == 5.0
    assert not report.bob_can_answer_instantly
    assert report.conventional_finish_time == 8.0
    assert report.teleport_meets_deadline
    assert report.conventional_meets_deadline


def test_config_validation():
    with pytest.raises(ValueError, match="t2"):
        _config(t2=-1.0)
    with pytest.raises(ValueError, match="bob_duration"):
        _config(bob_duration=-0.1)
    with pytest.raises(ValueError, match="classical_latency"):
        _config(classical_latency=-1.0)


@pytest.mark.parametrize("field", ["t1", "t2", "alice_duration", "bob_duration",
                                   "bob_start", "classical_latency", "bsm_duration"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        _config(**{field: bad})


def test_bob_finished_before_input_exists():
    report = simulate_timeline(_config(bob_start=-10.0, bob_duration=5.0))
    assert report.bob_ready_time <= 0.0
    assert report.bob_can_answer_instantly


def test_zero_bob_duration_gap_is_bsm_time():
    """With nothing for Bob to compute, the two schemes differ by the BSM."""
    config = _config(bob_duration=0.0, bob_start=0.0)
    report = simulate_timeline(config)
    assert report.bob_can_answer_instantly
    teleport_finish = max(report.bob_ready_time, report.message_arrival_time)
    assert abs((teleport_finish - report.conventional_finish_time)
               - config.bsm_duration) < 1e-12


def test_large_separation_favors_teleport():
    """Distance buys Bob time: latency 6 > bob_duration 5 started at Alice's finish."""
    config = _config(classical_latency=6.0, bob_start=1.0, bob_duration=5.0,
                     bsm_duration=0.0)
    report = simulate_timeline(config)
    assert report.bob_can_answer_instantly


def test_advantage_scenario():
    """Teleport meets a deadline the ship-the-qubits baseline misses."""
    config = _config(t2=10.0, alice_duration=1.0, classical_latency=2.0,
                     bsm_duration=0.5, bob_start=-5.0, bob_duration=8.0)
    report = simulate_timeline(config)
    assert report.teleport_meets_deadline
    assert not report.conventional_meets_deadline


def _random_config(rng):
    t1 = float(rng.uniform(-5, 5))
    return TimelineConfig(
        t1=t1,
        t2=t1 + float(rng.uniform(0.1, 20)),
        alice_duration=float(rng.uniform(0, 5)),
        bob_duration=float(rng.uniform(0, 10)),
        bob_start=float(rng.uniform(-10, 10)),
        classical_latency=float(rng.uniform(0, 5)),
        bsm_duration=float(rng.uniform(0, 1)),
    )


def test_deadline_monotone_in_t2_and_bob_duration():
    rng = np.random.default_rng(110)
    for _ in range(100):
        config = _random_config(rng)
        report = simulate_timeline(config)
        longer = simulate_timeline(TimelineConfig(
            config.t1, config.t2 + 1.0, config.alice_duration,
            config.bob_duration, config.bob_start, config.classical_latency,
            config.bsm_duration))
        if report.teleport_meets_deadline:
            assert longer.teleport_meets_deadline
        slower = simulate_timeline(TimelineConfig(
            config.t1, config.t2, config.alice_duration,
            config.bob_duration + 1.0, config.bob_start,
            config.classical_latency, config.bsm_duration))
        if not report.teleport_meets_deadline:
            assert not slower.teleport_meets_deadline


def test_message_never_precedes_send():
    rng = np.random.default_rng(111)
    for _ in range(50):
        report = simulate_timeline(_random_config(rng))
        assert report.message_arrival_time >= report.alice_output_time


def test_config_from_dict():
    doc = {"t1": 0, "t2": 4, "alice_duration": 1, "bob_duration": 1,
           "bob_start": 0, "classical_latency": 1}
    config = timeline_config_from_dict(doc)
    assert config.bsm_duration == 0.0  # optional, defaults to zero
    with pytest.raises(ValueError, match="unknown"):
        timeline_config_from_dict({**doc, "warp_factor": 9})
    with pytest.raises(ValueError, match="missing"):
        timeline_config_from_dict({"t1": 0, "t2": 4})


def test_report_serialization():
    report = simulate_timeline(_config())
    doc = timeline_report_to_dict(report)
    assert set(doc) == set(TIMELINE_CSV_COLUMNS)
    text = timeline_report_to_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(TIMELINE_CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "1"
    assert cells[3] == "false"
    assert cells[5] == "true"
