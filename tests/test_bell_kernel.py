"""The Bell-measurement kernels, checked against exact references.

_bell_rows, and run_instantaneous as its one-row form, samples from the
resource's near-block Gram matrices and never forms input ⊗ resource;
bell_measure_pairs contracts any 3n-qubit joint pair by pair.  Both are
checked against distributions, not seeded bytes: force_outcome /
outcome_distribution are the exact slow path for every forced code, and a
χ² test fits _bell_rows's codes to outcome_distribution.  The sequential
measure_in_basis implementation below is the one the shrinking contraction
replaced.

The circuit resources all have near-block Gram matrices I / 2^(k+1), so every
pair's outcomes weigh 1/4 each; the Haar-random joint states do not, so a
kernel that ignores the Gram matrices fails on them.
"""
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from instaqc.circuit import random_circuit
from instaqc.statevec import (
    StateVector,
    _haar_rows,
    fidelity,
    measure_in_basis,
    project_out,
    sample_haar_state,
    tensor_product,
)
from instaqc.teleport import (
    BELL_BASIS,
    OfflineResource,
    _bell_rows,
    _pair_outcome_vector,
    bell_measure_pairs,
    force_outcome,
    outcome_distribution,
    prepare_offline,
    run_instantaneous,
)


class ForcedDigits:
    """Stands in for a Generator.  Its one random(n) call returns, as entry
    i, the middle of the interval that the package's draw rule maps to
    base-4 digit i of `code`, under the exact conditional distribution of
    pair i given the earlier digits (`dist` is indexed by outcome code).
    A random((1, n)) call, one chunk row, gets the same values as that row."""

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

    def random(self, size) -> np.ndarray:
        n = len(self.values)
        assert size in (n, (1, n))
        self.calls += 1
        return np.reshape(self.values, size)


def sequential_bell_measure(joint, rng):
    """Reference: collapse one pair at a time on the full 3n-qubit register,
    then strip all pairs with one product-vector projection."""
    n = joint.num_qubits // 3
    code = 0
    state = joint
    for i in range(n):
        b, _, state = measure_in_basis(state, [i, n + i], BELL_BASIS, rng)
        code |= b << (2 * i)
    _, far = project_out(state, range(2 * n), _pair_outcome_vector(n, code))
    return code, far


def haar_resource(n: int, rng) -> OfflineResource:
    """A resource whose joint state is Haar-random rather than prepared."""
    return OfflineResource(sample_haar_state(2 * n, rng).amplitudes.reshape(2**n, 2**n))


def circuit_resource(n: int, rng) -> OfflineResource:
    return prepare_offline(random_circuit(n, 3, rng))


RESOURCES = {"circuit": circuit_resource, "haar": haar_resource}


def _forced_codes_match_exact_reference(resource, psi):
    n = resource.n
    joint = tensor_product(psi, resource.joint_state)
    dist = outcome_distribution(resource, psi)
    for code in range(4**n):
        _, expected = force_outcome(resource, psi, code)
        stub = ForcedDigits(dist, n, code)
        result = run_instantaneous(resource, psi, stub)
        assert stub.calls == 1
        assert result.code == code
        assert result.success == (code == 0)
        assert fidelity(result.output_state, expected.output_state) >= 1 - 1e-9
        stub = ForcedDigits(dist, n, code)
        outcome, far = bell_measure_pairs(joint, stub)
        assert stub.calls == 1
        assert outcome == code
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
        assert outcome == ref_outcome
        assert fidelity(far, ref_far) >= 1 - 1e-9
        # one uniform per pair on both paths: the streams stay in step
        assert fast_rng.random() == ref_rng.random()


@pytest.mark.parametrize("kind", sorted(RESOURCES))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bell_rows_match_sequential_run_instantaneous(kind, n):
    """One B-row chunk equals B one-row calls of the same kernel on the same
    seed: row t gets trial t's outcome and output, and both paths leave the
    generator in the same state."""
    states = np.random.default_rng(650 + n)
    resource = RESOURCES[kind](n, states)
    inputs = _haar_rows(n, 40, states)
    for seed in range(3):
        fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        codes, outputs = _bell_rows(resource, inputs, fast_rng)
        for row, code, output in zip(inputs, codes, outputs):
            result = run_instantaneous(resource, StateVector(row), ref_rng)
            assert code == result.code
            assert fidelity(StateVector(output), result.output_state) >= 1 - 1e-9
        assert fast_rng.random() == ref_rng.random()


@pytest.mark.parametrize("kind", sorted(RESOURCES))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bell_rows_codes_fit_the_exact_distribution(kind, n):
    """Pearson chi^2 of 4e5 sampled codes against `outcome_distribution`, on
    a circuit resource (uniform weights 4^-n) and on a Haar joint
    (non-uniform weights), false-alarm rate 1e-6 per case."""
    states = np.random.default_rng(660)
    resource = RESOURCES[kind](n, states)
    psi = sample_haar_state(n, states)
    expected = outcome_distribution(resource, psi) * 400_000
    rng = np.random.default_rng(661)
    rows = 80_000 >> n  # 80 000 input amplitudes a chunk keep its arrays ~10 MiB
    counts = np.zeros(4**n)
    for _ in range(400_000 // rows):
        codes, _ = _bell_rows(resource, np.tile(psi.amplitudes, (rows, 1)), rng)
        counts += np.bincount(codes, minlength=4**n)
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.isf(1e-6, 4**n - 1), stat


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
    r = resource.matrix
    assert np.abs(grams[-1] - r.conj().T @ r).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_circuit_resource_grams_are_maximally_mixed(n):
    resource = circuit_resource(n, np.random.default_rng(800 + n))
    for k, gram in enumerate(resource.near_grams):
        assert np.abs(gram - np.eye(2 << k) / (2 << k)).max() <= 1e-12


def test_run_instantaneous_at_n8_stays_small():
    """The first call at the CLI's largest size, a one-row call of the
    batched kernel `_bell_rows` that also builds the Gram matrices
    (~1.4 MiB), stays far below the 8^n amplitudes of input ⊗ resource
    (256 MiB); each row carries O(2^n) amplitudes."""
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
