"""The shrinking Bell-measurement kernel behind run_instantaneous and
bell_measure_pairs, checked against exact references.

force_outcome / outcome_distribution are the exact slow path; the sequential
measure_in_basis implementation below is the one the kernel replaced, kept
here so seeded runs can be compared outcome for outcome.
"""
import numpy as np
import pytest

from instaqc.circuit import random_circuit
from instaqc.statevec import (
    fidelity,
    measure_in_basis,
    project_out,
    sample_haar_state,
    tensor_product,
)
from instaqc.teleport import (
    BELL_BASIS,
    BsmOutcome,
    _pair_outcome_vector,
    bell_measure_pairs,
    force_outcome,
    outcome_distribution,
    prepare_offline,
    run_instantaneous,
)


class ForcedDigits:
    """Stands in for a Generator.  Call i of random() returns the middle of the
    quarter holding base-4 digit i of `code`, so a pair whose four outcomes
    each have probability 1/4 lands on that digit."""

    def __init__(self, n: int, code: int):
        self.values = [((code >> (2 * i) & 3) + 0.5) / 4 for i in range(n)]
        self.calls = 0

    def random(self) -> float:
        value = self.values[self.calls]
        self.calls += 1
        return value


def sequential_bell_measure(joint, rng):
    """Reference: collapse one pair at a time on the full 3n-qubit register,
    then strip all pairs with one product-vector projection."""
    n = joint.num_qubits // 3
    bits = []
    state = joint
    for i in range(n):
        b, _, state = measure_in_basis(state, [i, n + i], BELL_BASIS, rng)
        bits.append((b & 1, b >> 1))
    _, far = project_out(state, range(2 * n), _pair_outcome_vector(n, bits))
    return BsmOutcome(tuple(bits)), far


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_forced_code_matches_exact_reference(n):
    rng = np.random.default_rng(400 + n)
    resource = prepare_offline(random_circuit(n, 3, rng))
    psi = sample_haar_state(n, rng)
    joint = tensor_product(psi, resource.joint_state, max_qubits=3 * n)
    probs = outcome_distribution(resource, psi)
    for code in range(4**n):
        assert abs(probs[code] - 4.0**-n) < 1e-9
        _, expected = force_outcome(resource, psi, BsmOutcome.from_code(n, code))
        stub = ForcedDigits(n, code)
        result = run_instantaneous(resource, psi, stub)
        assert stub.calls == n
        assert result.outcome.code == code
        assert result.success == (code == 0)
        assert fidelity(result.output_state, expected.output_state) >= 1 - 1e-9
        stub = ForcedDigits(n, code)
        outcome, far = bell_measure_pairs(joint, stub)
        assert stub.calls == n
        assert outcome.code == code
        assert fidelity(far, expected.output_state) >= 1 - 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_haar_joint_matches_sequential_collapses(n):
    states = np.random.default_rng(500 + n)
    for seed in range(20):
        joint = sample_haar_state(3 * n, states)
        fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        outcome, far = bell_measure_pairs(joint, fast_rng)
        ref_outcome, ref_far = sequential_bell_measure(joint, ref_rng)
        assert outcome.code == ref_outcome.code
        assert fidelity(far, ref_far) >= 1 - 1e-9
        # one uniform per pair on both paths: the streams stay in step
        assert fast_rng.random() == ref_rng.random()
