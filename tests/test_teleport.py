"""Protocol core: Bell plumbing, outcome statistics, corrections, check measurement.

The (x, z) -> Pauli correction table is treated as a derived fact: the oracle
tests below re-derive it from scratch at n=1 against the frozen CORRECTIONS
constant, so a convention change anywhere upstream fails loudly here.
"""
import numpy as np
import pytest

from conftest import assert_within_3sigma, rate_within_3sigma, traced_peak
from instaqc.circuit import Circuit, apply_circuit, random_circuit
from instaqc.statevec import (
    MAX_QUBITS,
    X,
    Z,
    GateMatrix,
    StateVector,
    apply_gate,
    basis_state,
    fidelity,
    outcome_probabilities,
    orthonormal_basis_containing,
    sample_haar_state,
    tensor_product,
)
from instaqc.teleport import (
    BELL_BASIS,
    CORRECTIONS,
    BsmOutcome,
    InstantRunResult,
    OfflineResource,
    bell_measure_pairs,
    check_measurement,
    force_outcome,
    make_bell_pairs,
    outcome_distribution,
    prepare_offline,
    run_instantaneous,
    run_with_corrections,
)


def test_bell_basis_is_orthonormal():
    assert np.abs(BELL_BASIS @ BELL_BASIS.conj().T - np.eye(4)).max() < 1e-12


def test_bsm_outcome_validation_and_code():
    out = BsmOutcome(((1, 0), (0, 1)))
    assert not out.all_trivial()
    assert out.code == 1 + 2 * 4
    assert BsmOutcome.from_code(2, out.code) == out
    assert BsmOutcome(((0, 0), (0, 0))).all_trivial()
    with pytest.raises(ValueError, match="0/1"):
        BsmOutcome(((2, 0),))
    with pytest.raises(ValueError, match="out of range"):
        BsmOutcome.from_code(1, 4)


def test_make_bell_pairs_single():
    state = make_bell_pairs(1)
    assert np.allclose(state.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_make_bell_pairs_two():
    state = make_bell_pairs(2)
    for idx in range(16):
        expected = 0.5 if (idx & 3) == (idx >> 2) else 0.0
        assert abs(state.amplitudes[idx] - expected) < 1e-12


def test_make_bell_pairs_near_block_maximally_mixed():
    for n in (1, 2, 3):
        state = make_bell_pairs(n)
        probs = outcome_probabilities(state, range(n), np.eye(1 << n))
        assert np.abs(probs - 2.0**-n).max() < 1e-9


def test_make_bell_pairs_size_limit():
    n = MAX_QUBITS // 2 + 1  # 2n qubits: 4 MiB of amplitudes if built

    def build():
        with pytest.raises(ValueError, match="limit"):
            make_bell_pairs(n)

    assert traced_peak(build) < (16 << (2 * n)) // 16


def test_prepare_offline_identity_keeps_pair():
    res = prepare_offline(Circuit(1))
    assert np.allclose(res.joint_state.amplitudes,
                       [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_resource_size_is_half_its_joint_state():
    assert prepare_offline(Circuit(3)).n == 3
    with pytest.raises(ValueError, match="even"):
        OfflineResource(basis_state(3, 0))


def test_prepare_offline_x_gives_swapped_pattern():
    res = prepare_offline(Circuit(1, ((X, (0,)),)))
    assert np.allclose(res.joint_state.amplitudes,
                       [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])


@pytest.mark.parametrize("n", [1, 2])
def test_prepare_offline_near_marginal_unchanged_by_circuit(n):
    """No circuit on the far block can touch the near block's statistics."""
    rng = np.random.default_rng(31 + n)
    for _ in range(5):
        res = prepare_offline(random_circuit(n, 3, rng))
        probs = outcome_probabilities(res.joint_state, range(n), np.eye(1 << n))
        assert np.abs(probs - 2.0**-n).max() < 1e-9
        # also in a random orthonormal basis, not just the computational one
        basis = orthonormal_basis_containing(sample_haar_state(n, rng).amplitudes)
        probs = outcome_probabilities(res.joint_state, range(n), basis)
        assert np.abs(probs - 2.0**-n).max() < 1e-9


def test_bell_measure_pairs_rejects_bad_layout():
    with pytest.raises(ValueError, match="3 blocks"):
        bell_measure_pairs(basis_state(4, 0), np.random.default_rng(0))


# --- correction-table oracle -------------------------------------------------

def _teleport_residual(x, z, psi):
    """Forced-outcome far state for a single teleported qubit, no circuit."""
    res = prepare_offline(Circuit(1))
    prob, result = force_outcome(res, psi, BsmOutcome(((x, z),)))
    assert abs(prob - 0.25) < 1e-9
    return result.output_state


@pytest.mark.parametrize("x,z", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_residual_is_x_then_z_of_input(x, z):
    """Outcome (x, z) leaves X^x Z^z |psi> on the far qubit (global phase aside)."""
    rng = np.random.default_rng(40)
    for _ in range(10):
        psi = sample_haar_state(1, rng)
        expected = psi
        if z:
            expected = apply_gate(expected, Z, [0])
        if x:
            expected = apply_gate(expected, X, [0])
        got = _teleport_residual(x, z, psi)
        assert fidelity(got, expected) > 1 - 1e-9


@pytest.mark.parametrize("x,z", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_corrections_table_inverts_every_residual(x, z):
    """The frozen CORRECTIONS entry must undo the residual, re-derived here."""
    rng = np.random.default_rng(41)
    for _ in range(10):
        psi = sample_haar_state(1, rng)
        state = _teleport_residual(x, z, psi)
        for gate in CORRECTIONS[(x, z)]:
            state = apply_gate(state, gate, [0])
        assert fidelity(state, psi) > 1 - 1e-9


def test_corrections_table_is_the_expected_constant():
    assert CORRECTIONS[(0, 0)] == ()
    assert CORRECTIONS[(1, 0)] == (X,)
    assert CORRECTIONS[(0, 1)] == (Z,)
    assert CORRECTIONS[(1, 1)] == (X, Z)


# --- outcome statistics -------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_outcome_distribution_uniform_for_any_input(n):
    rng = np.random.default_rng(50 + n)
    for _ in range(5):
        res = prepare_offline(random_circuit(n, 3, rng))
        psi = sample_haar_state(n, rng)
        probs = outcome_distribution(res, psi)
        assert probs.shape == (4**n,)
        assert np.abs(probs - 4.0**-n).max() < 1e-9


def test_force_outcome_matches_distribution():
    rng = np.random.default_rng(52)
    res = prepare_offline(random_circuit(2, 3, rng))
    psi = sample_haar_state(2, rng)
    dist = outcome_distribution(res, psi)
    for code in range(16):
        prob, result = force_outcome(res, psi, BsmOutcome.from_code(2, code))
        assert abs(prob - dist[code]) < 1e-12
        assert result.success == (code == 0)


def test_sampled_outcome_frequencies_n1():
    rng = np.random.default_rng(53)
    res = prepare_offline(random_circuit(1, 2, rng))
    psi = sample_haar_state(1, rng)
    counts = np.zeros(4, dtype=int)
    trials = 20000
    for _ in range(trials):
        result = run_instantaneous(res, psi, rng)
        counts[result.outcome.code] += 1
    for code in range(4):
        rate_within_3sigma(int(counts[code]), trials, 0.25)


# --- protocol branches --------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_success_branch_gives_circuit_output(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(10):
        circ = random_circuit(n, 3, rng)
        res = prepare_offline(circ)
        psi = sample_haar_state(n, rng)
        _, result = force_outcome(res, psi, BsmOutcome.from_code(n, 0))
        assert result.success
        assert fidelity(result.output_state, apply_circuit(circ, psi)) > 1 - 1e-9


def test_identity_input_zero_success_output_zero():
    res = prepare_offline(Circuit(2))
    _, result = force_outcome(res, basis_state(2, 0), BsmOutcome.from_code(2, 0))
    assert fidelity(result.output_state, basis_state(2, 0)) > 1 - 1e-9


def test_run_instantaneous_success_flag_matches_outcome():
    rng = np.random.default_rng(62)
    res = prepare_offline(random_circuit(1, 2, rng))
    for _ in range(50):
        result = run_instantaneous(res, sample_haar_state(1, rng), rng)
        assert result.success == result.outcome.all_trivial()


def test_run_instantaneous_dimension_mismatch():
    rng = np.random.default_rng(63)
    res = prepare_offline(Circuit(1))
    with pytest.raises(ValueError, match="expects"):
        run_instantaneous(res, basis_state(2, 0), rng)


@pytest.mark.parametrize("n", [1, 2])
def test_corrections_restore_every_outcome(n):
    rng = np.random.default_rng(70 + n)
    for _ in range(5):
        circ = random_circuit(n, 3, rng)
        res = prepare_offline(circ)
        psi = sample_haar_state(n, rng)
        target = apply_circuit(circ, psi)
        for code in range(4**n):
            _, result = force_outcome(res, psi, BsmOutcome.from_code(n, code))
            fixed, extra = run_with_corrections(result, circ)
            assert extra == 2
            assert fidelity(fixed, target) > 1 - 1e-9


def test_corrections_on_trivial_outcome_are_identity():
    rng = np.random.default_rng(72)
    circ = random_circuit(2, 3, rng)
    res = prepare_offline(circ)
    psi = sample_haar_state(2, rng)
    _, result = force_outcome(res, psi, BsmOutcome.from_code(2, 0))
    fixed, _ = run_with_corrections(result, circ)
    assert fidelity(fixed, result.output_state) > 1 - 1e-9


def test_corrections_outcome_length_mismatch():
    rng = np.random.default_rng(73)
    res = prepare_offline(Circuit(1))
    result = run_instantaneous(res, basis_state(1, 0), rng)
    with pytest.raises(ValueError, match="pairs"):
        run_with_corrections(result, Circuit(2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_repair_permutation_matches_corrections_gate_by_gate(n):
    """The repair's one signed permutation equals un-running the circuit,
    applying CORRECTIONS gate by gate, and running it again."""
    rng = np.random.default_rng(75 + n)
    circ = random_circuit(n, 3, rng)
    u = circ.unitary
    output = sample_haar_state(n, rng)
    unrun = StateVector(n, u.conj().T @ output.amplitudes)
    for code in range(4**n):
        outcome = BsmOutcome.from_code(n, code)
        expected = unrun
        for i, key in enumerate(outcome.bits):
            for gate in CORRECTIONS[key]:
                expected = apply_gate(expected, gate, [i])
        result = InstantRunResult(outcome, output)
        fixed, _ = run_with_corrections(result, circ)
        assert np.abs(fixed.amplitudes - u @ expected.amplitudes).max() <= 1e-12


def _z_rotation(theta):
    return GateMatrix(1, np.diag([1.0, np.exp(1j * theta)]))


def test_pure_z_circuit_commutes_with_z_corrections():
    """For a circuit of Z rotations and an outcome with all x_i = 0, applying
    the Z corrections directly (no un-run) must also restore the output."""
    rng = np.random.default_rng(74)
    circ = Circuit(2, ((_z_rotation(0.7), (0,)), (_z_rotation(-1.3), (1,)),
                       (_z_rotation(2.1), (0,))))
    # direct matrix check: Z x Z commutes with the circuit's unitary
    u = circ.unitary
    zz = np.kron(Z.entries, Z.entries)
    assert np.abs(u @ zz - zz @ u).max() < 1e-12

    res = prepare_offline(circ)
    psi = sample_haar_state(2, rng)
    target = apply_circuit(circ, psi)
    outcome = BsmOutcome(((0, 1), (0, 1)))  # both pairs: z residue only
    _, result = force_outcome(res, psi, outcome)
    shortcut = apply_gate(apply_gate(result.output_state, Z, [0]), Z, [1])
    assert fidelity(shortcut, target) > 1 - 1e-9
    # and the general invert-correct-rerun path agrees
    fixed, _ = run_with_corrections(result, circ)
    assert fidelity(fixed, shortcut) > 1 - 1e-9


# --- check measurement ---------------------------------------------------------

def test_check_measurement_eigenstate():
    rng = np.random.default_rng(80)
    psi = sample_haar_state(2, rng)
    is_O, prob = check_measurement(psi, psi, rng)
    assert is_O
    assert abs(prob - 1.0) < 1e-12


def test_check_measurement_orthogonal():
    rng = np.random.default_rng(81)
    is_O, prob = check_measurement(basis_state(2, 1), basis_state(2, 2), rng)
    assert not is_O
    assert prob == 0.0


def test_check_measurement_dimension_mismatch():
    rng = np.random.default_rng(82)
    with pytest.raises(ValueError, match="qubit counts"):
        check_measurement(basis_state(1, 0), basis_state(2, 0), rng)


def test_check_measurement_frequency_matches_fidelity():
    """Empirical O rate converges to |<correct|output>|^2."""
    rng = np.random.default_rng(83)
    output = sample_haar_state(2, rng)
    correct = sample_haar_state(2, rng)
    expected = fidelity(output, correct)
    trials = 20000
    hits = 0
    for _ in range(trials):
        is_O, prob = check_measurement(output, correct, rng)
        assert prob == expected
        hits += is_O
    rate_within_3sigma(hits, trials, expected)


def test_check_measurement_haar_mean_quarter():
    """Mean O probability for Haar outputs at n=2 is 2^-n = 1/4."""
    rng = np.random.default_rng(84)
    correct = sample_haar_state(2, rng)
    probs = [check_measurement(sample_haar_state(2, rng), correct, rng)[1]
             for _ in range(20000)]
    assert_within_3sigma(probs, 0.25)
