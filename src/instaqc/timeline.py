"""Two-site deadline arithmetic: can Bob answer the moment Alice's message lands?

Alice receives the input at t1 and must deliver by t2.  Bob holds the far
halves of pre-shared pairs and may start his computation at any bob_start,
even before t1.  Alice Bell-measures when her own computation finishes and
phones the outcome to Bob; on the good outcome Bob's answer is ready as soon
as both his computation and the message are done.  The conventional baseline
ships Alice's output qubits to Bob, who only then starts computing.

Pure arithmetic, no randomness: the comparison is an ordering of times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class TimelineConfig:
    t1: float
    t2: float
    alice_duration: float
    bob_duration: float
    bob_start: float
    classical_latency: float
    bsm_duration: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not self.t2 > self.t1:
            raise ValueError(f"t2 must exceed t1, got t1={self.t1}, t2={self.t2}")
        for field in ("alice_duration", "bob_duration", "classical_latency",
                      "bsm_duration"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0, got {getattr(self, field)}")


@dataclass(frozen=True)
class TimelineReport:
    alice_output_time: float
    message_arrival_time: float
    bob_ready_time: float
    bob_can_answer_instantly: bool
    conventional_finish_time: float
    teleport_meets_deadline: bool
    conventional_meets_deadline: bool

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, bool) and not math.isfinite(value):
                raise ValueError(f"{f.name} overflows to {value}: times too large")
        if self.message_arrival_time < self.alice_output_time:
            raise ValueError("message cannot arrive before it is sent")


def simulate_timeline(config: TimelineConfig) -> TimelineReport:
    """Evaluate both delivery schemes against the deadline.

    The teleport side is the good-outcome branch only; correction reruns are
    out of scope here, matching a strategy that answers only on that branch.
    """
    alice_out = config.t1 + config.alice_duration
    arrival = alice_out + config.bsm_duration + config.classical_latency
    bob_ready = config.bob_start + config.bob_duration
    conventional = alice_out + config.classical_latency + config.bob_duration
    return TimelineReport(
        alice_output_time=alice_out,
        message_arrival_time=arrival,
        bob_ready_time=bob_ready,
        bob_can_answer_instantly=bob_ready <= arrival,
        conventional_finish_time=conventional,
        teleport_meets_deadline=max(bob_ready, arrival) <= config.t2,
        conventional_meets_deadline=conventional <= config.t2,
    )


def timeline_config_from_dict(doc: dict) -> TimelineConfig:
    """Build a config from parsed JSON, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise ValueError("timeline config must be a JSON object")
    names = [f.name for f in fields(TimelineConfig)]
    unknown = set(doc) - set(names)
    if unknown:
        raise ValueError(f"unknown timeline fields: {sorted(unknown)}")
    missing = set(names[:-1]) - set(doc)
    if missing:
        raise ValueError(f"missing timeline fields: {sorted(missing)}")
    values = {}
    for key, value in doc.items():
        if type(value) not in (int, float):  # a JSON true is not a number here
            raise ValueError(f"timeline field {key!r} must be a number, got {value!r}")
        try:
            values[key] = float(value)
        except OverflowError:  # a JSON integer too large for a float
            raise ValueError(f"timeline field {key!r} is too large for a float") from None
    return TimelineConfig(**values)

