"""The Bell-measurement kernels, checked against exact references.

run_instantaneous samples from the resource's near-block Gram matrices and
never forms input ⊗ resource; bell_measure_pairs contracts any 3n-qubit joint
pair by pair and is its same-seed reference.  force_outcome /
outcome_distribution are the exact slow path; the sequential measure_in_basis
implementation below is the one the shrinking contraction replaced.

The circuit resources all have near-block Gram matrices I / 2^(k+1), so every
pair's outcomes weigh 1/4 each; the Haar-random joint states do not, so a
kernel that ignores the Gram matrices fails on them.
"""
import tracemalloc

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
    OfflineResource,
    _pair_outcome_vector,
    bell_measure_pairs,
    force_outcome,
    outcome_distribution,
    prepare_offline,
    run_instantaneous,
)


class ForcedDigits:
    """Stands in for a Generator.  Call i of random() returns the middle of
    the interval that the package's draw rule maps to base-4 digit i of
    `code`, under the exact conditional distribution of pair i given the
    earlier digits (`dist` is indexed by BsmOutcome.code)."""

    def __init__(self, dist: np.ndarray, n: int, code: int):
        codes = np.arange(4**n)
        self.values = []
        for i in range(n):
            earlier = codes % 4**i == code % 4**i
            cond = np.bincount(codes[earlier] >> (2 * i) & 3,
                               weights=dist[earlier], minlength=4)
            cum = np.concatenate([[0.0], np.cumsum(cond / cond.sum())])
            digit = code >> (2 * i) & 3
            self.values.append((cum[digit] + cum[digit + 1]) / 2)
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


def haar_resource(n: int, rng) -> OfflineResource:
    """A resource whose joint state is Haar-random rather than prepared."""
    return OfflineResource(sample_haar_state(2 * n, rng))


def circuit_resource(n: int, rng) -> OfflineResource:
    return prepare_offline(random_circuit(n, 3, rng))


RESOURCES = {"circuit": circuit_resource, "haar": haar_resource}


def _forced_codes_match_exact_reference(resource, psi):
    n = resource.n
    joint = tensor_product(psi, resource.joint_state)
    dist = outcome_distribution(resource, psi)
    for code in range(4**n):
        _, expected = force_outcome(resource, psi, BsmOutcome.from_code(n, code))
        stub = ForcedDigits(dist, n, code)
        result = run_instantaneous(resource, psi, stub)
        assert stub.calls == n
        assert result.outcome.code == code
        assert result.success == (code == 0)
        assert fidelity(result.output_state, expected.output_state) >= 1 - 1e-9
        stub = ForcedDigits(dist, n, code)
        outcome, far = bell_measure_pairs(joint, stub)
        assert stub.calls == n
        assert outcome.code == code
        assert fidelity(far, expected.output_state) >= 1 - 1e-9
    return dist


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_forced_code_matches_exact_reference(n):
    rng = np.random.default_rng(400 + n)
    resource = prepare_offline(random_circuit(n, 3, rng))
    dist = _forced_codes_match_exact_reference(resource, sample_haar_state(n, rng))
    assert np.abs(dist - 4.0**-n).max() < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_haar_resource_forced_codes_match_exact_reference(n):
    rng = np.random.default_rng(450 + n)
    dist = _forced_codes_match_exact_reference(haar_resource(n, rng),
                                               sample_haar_state(n, rng))
    assert np.abs(dist - 4.0**-n).max() > 1e-3  # the weights are not uniform


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


@pytest.mark.parametrize("kind", sorted(RESOURCES))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_run_instantaneous_matches_bell_measure_pairs(kind, n):
    states = np.random.default_rng(600 + n)
    resource = RESOURCES[kind](n, states)
    for seed in range(30):
        psi = sample_haar_state(n, states)
        joint = tensor_product(psi, resource.joint_state)
        fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result = run_instantaneous(resource, psi, fast_rng)
        outcome, far = bell_measure_pairs(joint, ref_rng)
        assert result.outcome.code == outcome.code
        assert fidelity(result.output_state, far) >= 1 - 1e-9
        assert fast_rng.random() == ref_rng.random()


@pytest.mark.parametrize("kind", sorted(RESOURCES))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_near_grams_are_read_only_hermitian_unit_trace(kind, n):
    resource = RESOURCES[kind](n, np.random.default_rng(700 + n))
    grams = resource.near_grams
    assert resource.near_grams is grams  # built once
    assert [g.shape for g in grams] == [(2 << k, 2 << k) for k in range(n)]
    for gram in grams:
        assert not gram.flags.writeable
        assert np.abs(gram - gram.conj().T).max() <= 1e-12
        assert abs(np.trace(gram) - 1.0) <= 1e-12
    side = 1 << n
    r = resource.joint_state.amplitudes.reshape(side, side)
    assert np.abs(grams[-1] - r.conj().T @ r).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_circuit_resource_grams_are_maximally_mixed(n):
    resource = circuit_resource(n, np.random.default_rng(800 + n))
    for k, gram in enumerate(resource.near_grams):
        assert np.abs(gram - np.eye(2 << k) / (2 << k)).max() <= 1e-12


def test_run_instantaneous_at_n8_stays_small():
    """The first call at the CLI's largest size, which also builds the Gram
    matrices (~1.4 MiB), stays far below the 8^n amplitudes of input ⊗
    resource (256 MiB); each call carries O(2^n) amplitudes."""
    rng = np.random.default_rng(900)
    resource = prepare_offline(random_circuit(8, 2, rng))
    psi = sample_haar_state(8, rng)
    tracemalloc.start()
    try:
        run_instantaneous(resource, psi, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
