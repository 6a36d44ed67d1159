"""State-vector core: gates, measurement, sampling, basis completion."""
import numpy as np
import pytest
from scipy.stats import unitary_group

from conftest import assert_within_3sigma, rate_within_3sigma, traced_peak
from instaqc.statevec import (
    CNOT,
    H,
    MAX_QUBITS,
    NAMED_GATES,
    S,
    T,
    X,
    Y,
    Z,
    GateMatrix,
    StateVector,
    apply_gate,
    basis_state,
    fidelity,
    measure_in_basis,
    orthonormal_basis_containing,
    outcome_probabilities,
    project_out,
    sample_haar_state,
    tensor_product,
    _OUTCOME_PROB_MIN,
    _check_outcome_probability,
    _haar_rows,
    _unitarity_error,
)


def test_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(np.array([bad, bad]))
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(np.array([1.0, 0.0, 0.0, bad]))


def test_state_rejects_wrong_length():
    # 0-D, 2-D, and 1-D lengths that are not 2**n with n >= 1 (all normalized)
    for amps in (np.array(1.0), np.eye(2) / np.sqrt(2), np.zeros(0), np.ones(1),
                 np.ones(3) / np.sqrt(3), np.ones(6) / np.sqrt(6)):
        with pytest.raises(ValueError, match="amplitudes"):
            StateVector(amps)


def test_state_qubit_count_read_off_its_length():
    for n in range(1, 6):
        assert StateVector(np.ones(1 << n) / np.sqrt(1 << n)).num_qubits == n


def test_state_amplitudes_read_only():
    state = basis_state(1, 0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.5


def test_basis_state_places_single_amplitude():
    state = basis_state(3, 5)
    expected = np.zeros(8)
    expected[5] = 1.0
    assert np.array_equal(state.amplitudes, expected)


def test_basis_state_index_range():
    with pytest.raises(ValueError, match="out of range"):
        basis_state(2, 4)


def test_gate_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        GateMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_gate_arity_read_off_its_shape():
    assert GateMatrix(np.eye(2)).arity == 1
    assert GateMatrix(np.eye(4)).arity == 2
    for mat in (np.eye(1), np.eye(3), np.eye(2, 4), np.eye(8)):
        with pytest.raises(ValueError, match="2x2 or 4x4"):
            GateMatrix(mat)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gate_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="not unitary"):
        GateMatrix(np.full((2, 2), bad))
    with pytest.raises(ValueError, match="not unitary"):
        GateMatrix(np.diag([1.0, 1.0, 1.0, bad]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unitarity_error_is_inf_on_non_finite_entries(bad):
    assert _unitarity_error(np.diag([1.0, bad])) == np.inf


def test_unitarity_error_measures_the_deviation():
    assert _unitarity_error(np.eye(4)) == 0.0
    assert abs(_unitarity_error(np.diag([1.0, 2.0])) - 3.0) < 1e-15


def test_named_gates_are_unitary_and_registered():
    for name, gate in NAMED_GATES.items():
        assert gate.name == name
        dim = 1 << gate.arity
        assert np.allclose(gate.entries @ gate.entries.conj().T, np.eye(dim))


def test_h_on_zero_gives_plus():
    """H|0> = (|0> + |1>)/sqrt(2)."""
    state = apply_gate(basis_state(1, 0), H, [0])
    assert np.allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


@pytest.mark.parametrize("qubit", [0, 1, 2])
def test_x_flips_its_own_bit(qubit):
    state = apply_gate(basis_state(3, 0), X, [qubit])
    assert state.amplitudes[1 << qubit] == 1.0


def test_s_and_t_phases():
    assert np.allclose(apply_gate(basis_state(1, 1), S, [0]).amplitudes, [0, 1j])
    assert np.allclose(apply_gate(basis_state(1, 1), T, [0]).amplitudes,
                       [0, np.exp(1j * np.pi / 4)])


def test_y_and_z_on_basis_states():
    assert np.allclose(apply_gate(basis_state(1, 0), Y, [0]).amplitudes, [0, 1j])
    assert np.allclose(apply_gate(basis_state(1, 1), Z, [0]).amplitudes, [0, -1])


@pytest.mark.parametrize("index,expected", [(0, 0), (1, 3), (2, 2), (3, 1)])
def test_cnot_truth_table(index, expected):
    """Control is the first target: |c=1, t> flips t."""
    state = apply_gate(basis_state(2, index), CNOT, [0, 1])
    assert state.amplitudes[expected] == 1.0


def test_cnot_reversed_targets():
    # control on qubit 1: index 2 (bit 1 set) flips bit 0
    state = apply_gate(basis_state(2, 2), CNOT, [1, 0])
    assert state.amplitudes[3] == 1.0


def test_apply_gate_matches_kron_expansion():
    """Single-qubit gate on qubit q of 3 equals the explicit kron matrix."""
    rng = np.random.default_rng(11)
    psi = sample_haar_state(3, rng)
    mats = {0: np.kron(np.eye(4), H.entries),
            1: np.kron(np.eye(2), np.kron(H.entries, np.eye(2))),
            2: np.kron(H.entries, np.eye(4))}
    for q, full in mats.items():
        got = apply_gate(psi, H, [q]).amplitudes
        assert np.allclose(got, full @ psi.amplitudes)


def test_apply_gate_two_qubit_matches_kron_expansion():
    """CNOT on (0, 1) of 3 qubits equals kron(I, CNOT) on little-endian index."""
    rng = np.random.default_rng(12)
    psi = sample_haar_state(3, rng)
    got = apply_gate(psi, CNOT, [0, 1]).amplitudes
    assert np.allclose(got, np.kron(np.eye(2), CNOT.entries) @ psi.amplitudes)


def test_apply_gate_validates_targets():
    psi = basis_state(2, 0)
    with pytest.raises(ValueError, match="duplicate"):
        apply_gate(psi, CNOT, [1, 1])
    with pytest.raises(ValueError, match="out of range"):
        apply_gate(psi, X, [2])
    with pytest.raises(ValueError, match="arity"):
        apply_gate(psi, X, [0, 1])


def test_apply_gate_preserves_norm():
    rng = np.random.default_rng(21)
    for _ in range(20):
        psi = sample_haar_state(4, rng)
        u = GateMatrix(unitary_group.rvs(2, random_state=rng))
        out = apply_gate(psi, u, [int(rng.integers(4))])
        assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) < 1e-12


def test_tensor_product_ordering():
    """First factor occupies the low qubits."""
    joint = tensor_product(basis_state(1, 1), basis_state(2, 0))
    assert joint.amplitudes[1] == 1.0
    joint = tensor_product(basis_state(1, 0), basis_state(2, 3))
    assert joint.amplitudes[6] == 1.0


def test_tensor_product_norm():
    rng = np.random.default_rng(3)
    a, b = sample_haar_state(2, rng), sample_haar_state(3, rng)
    joint = tensor_product(a, b)
    assert abs(np.vdot(joint.amplitudes, joint.amplitudes).real - 1.0) < 1e-12


def test_tensor_product_size_limit():
    # one qubit over the limit: 2 MiB of amplitudes if it were built
    a, b = basis_state(MAX_QUBITS // 2 + 1, 0), basis_state(MAX_QUBITS // 2, 0)

    def build():
        with pytest.raises(ValueError, match="limit"):
            tensor_product(a, b)

    assert traced_peak(build) < (16 << (MAX_QUBITS + 1)) // 8


def test_outcome_probabilities_computational():
    state = apply_gate(basis_state(1, 0), H, [0])
    probs = outcome_probabilities(state, [0], np.eye(2))
    assert np.allclose(probs, [0.5, 0.5])


def test_outcome_probabilities_partial_register():
    # Bell state: marginal of either qubit is uniform
    bell = apply_gate(apply_gate(basis_state(2, 0), H, [0]), CNOT, [0, 1])
    for q in (0, 1):
        assert np.allclose(outcome_probabilities(bell, [q], np.eye(2)), [0.5, 0.5])


def test_outcome_probabilities_rejects_bad_basis():
    with pytest.raises(ValueError, match="orthonormal"):
        outcome_probabilities(basis_state(1, 0), [0], np.array([[1, 1], [0, 1.0]]))
    with pytest.raises(ValueError, match="orthonormal"):
        outcome_probabilities(basis_state(1, 0), [0], np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="orthonormal"):
        outcome_probabilities(basis_state(1, 0), [0], np.diag([1.0, np.inf]))


def test_measure_collapse_is_repeatable():
    rng = np.random.default_rng(5)
    psi = sample_haar_state(3, rng)
    outcome, prob, collapsed = measure_in_basis(psi, [0, 2], np.eye(4), rng)
    assert 0 < prob <= 1
    again, prob2, _ = measure_in_basis(collapsed, [0, 2], np.eye(4), rng)
    assert again == outcome
    assert abs(prob2 - 1.0) < 1e-9


def test_measure_frequencies_match_probabilities():
    rng = np.random.default_rng(6)
    psi = sample_haar_state(2, rng)
    probs = outcome_probabilities(psi, [0, 1], np.eye(4))
    counts = np.zeros(4, dtype=int)
    trials = 20000
    for _ in range(trials):
        outcome, _, _ = measure_in_basis(psi, [0, 1], np.eye(4), rng)
        counts[outcome] += 1
    for k in range(4):
        rate_within_3sigma(int(counts[k]), trials, probs[k])


def test_measure_in_entangled_basis():
    bell_basis = np.array([[1, 0, 0, 1], [0, 1, 1, 0],
                           [1, 0, 0, -1], [0, -1, 1, 0]]) / np.sqrt(2)
    bell = apply_gate(apply_gate(basis_state(2, 0), H, [0]), CNOT, [0, 1])
    rng = np.random.default_rng(8)
    outcome, prob, _ = measure_in_basis(bell, [0, 1], bell_basis, rng)
    assert outcome == 0
    assert abs(prob - 1.0) < 1e-9


def test_project_out_keeps_remaining_qubit_state():
    # register [q0=|1>, q1=psi, q2=|0>]: projecting q0, q2 onto what they hold
    # has probability 1 and leaves exactly psi
    rng = np.random.default_rng(9)
    psi = sample_haar_state(1, rng)
    joint = tensor_product(basis_state(1, 1), tensor_product(psi, basis_state(1, 0)))
    # vector index over targets (0, 2): q0 is bit 0, q2 is bit 1; q0=1,q2=0 -> 1
    prob, rest = project_out(joint, [0, 2], np.array([0.0, 1.0, 0.0, 0.0]))
    assert abs(prob - 1.0) < 1e-12
    assert fidelity(rest, psi) > 1 - 1e-12


def test_project_out_bell_half():
    bell = apply_gate(apply_gate(basis_state(2, 0), H, [0]), CNOT, [0, 1])
    prob, rest = project_out(bell, [0], np.array([1.0, 0.0]))
    assert abs(prob - 0.5) < 1e-12
    assert np.allclose(rest.amplitudes, [1.0, 0.0])


def test_project_out_zero_probability_raises():
    with pytest.raises(ValueError, match="zero probability"):
        project_out(basis_state(2, 0), [0], np.array([0.0, 1.0]))


def test_outcome_probability_check_refuses_nan():
    _check_outcome_probability(np.array([1.0, _OUTCOME_PROB_MIN]))
    with pytest.raises(ValueError, match="NaN"):
        _check_outcome_probability(np.array([0.5, np.nan]))
    with pytest.raises(ValueError, match="NaN"):
        _check_outcome_probability(np.nan)


def test_project_out_must_leave_a_qubit():
    with pytest.raises(ValueError, match="at least one"):
        project_out(basis_state(1, 0), [0], np.array([1.0, 0.0]))


def test_fidelity_phase_invariant():
    rng = np.random.default_rng(10)
    psi = sample_haar_state(2, rng)
    rotated = StateVector(np.exp(1.37j) * psi.amplitudes)
    assert abs(fidelity(psi, rotated) - 1.0) < 1e-12


def test_fidelity_orthogonal_and_mismatch():
    assert fidelity(basis_state(2, 0), basis_state(2, 3)) == 0.0
    with pytest.raises(ValueError, match="qubit counts"):
        fidelity(basis_state(1, 0), basis_state(2, 0))


def test_haar_mean_first_amplitude():
    """E|a_0|^2 = 2^-n for Haar states; checked at n=2 over 100 000 states,
    one `_haar_rows` call drawing what as many one-row calls would."""
    rng = np.random.default_rng(13)
    samples = np.abs(_haar_rows(2, 100_000, rng)[:, 0]) ** 2
    assert_within_3sigma(samples, 0.25)


def test_haar_state_normalized():
    rng = np.random.default_rng(14)
    for n in (1, 3, 5):
        psi = sample_haar_state(n, rng)
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) < 1e-12


def test_haar_respects_size_limit():
    rng = np.random.default_rng(15)
    with pytest.raises(ValueError, match="limit"):
        sample_haar_state(17, rng)
    with pytest.raises(ValueError, match="limit"):
        _haar_rows(17, 1, rng)


def test_haar_rows_draw_what_sample_haar_state_draws():
    """One row is sample_haar_state's draw on the same seed (the row-wise
    norm can differ in the last bit); many rows are each normalized and
    have E|a_0|^2 = 2^-n."""
    for n in (1, 3, 5):
        row = _haar_rows(n, 1, np.random.default_rng(20 + n))[0]
        psi = sample_haar_state(n, np.random.default_rng(20 + n))
        assert np.abs(row - psi.amplitudes).max() <= 1e-15
    rows = _haar_rows(2, 100000, np.random.default_rng(26))
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() < 1e-12
    assert_within_3sigma(np.abs(rows[:, 0]) ** 2, 0.25)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_haar_rows_split_into_two_calls_draw_the_same_rows(n):
    """Rows are drawn one after another, so a + b rows are the a rows of one
    call then the b rows of the next on the same generator, bitwise, and
    both leave the generator in the same state."""
    for a, b in [(1, 1), (1, 6), (5, 11), (40, 1)]:
        whole, split = np.random.default_rng(30 + a), np.random.default_rng(30 + a)
        rows = _haar_rows(n, a + b, whole)
        parts = np.concatenate([_haar_rows(n, a, split), _haar_rows(n, b, split)])
        assert rows.tobytes() == parts.tobytes()
        assert whole.random() == split.random()


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_basis_completion_orthonormal(dim):
    rng = np.random.default_rng(16 + dim)
    first = sample_haar_state(int(np.log2(dim)), rng).amplitudes
    basis = orthonormal_basis_containing(first)
    assert np.allclose(basis[0], first)
    assert np.abs(basis @ basis.conj().T - np.eye(dim)).max() < 1e-9


@pytest.mark.parametrize("first", [np.zeros(4), [1.0, np.nan, 0.0, 0.0],
                                   [np.inf, 0.0]])
def test_basis_completion_rejects_degenerate_first_vector(first):
    with pytest.raises(ValueError, match="basis vector"):
        orthonormal_basis_containing(np.asarray(first, dtype=complex))


def test_basis_completion_skips_parallel_candidate():
    # first element equals e_2: the e_2 candidate must be skipped, not doubled
    first = np.zeros(4, dtype=complex)
    first[2] = 1.0
    basis = orthonormal_basis_containing(first)
    assert np.abs(basis @ basis.conj().T - np.eye(4)).max() < 1e-9


def test_basis_completion_skips_near_parallel_candidate():
    eps = 1e-4  # residual of e_0 is eps^2 = 1e-8, under the 1e-6 skip threshold
    first = np.array([np.sqrt(1 - eps**2), eps, 0.0, 0.0], dtype=complex)
    basis = orthonormal_basis_containing(first)
    assert np.abs(basis @ basis.conj().T - np.eye(4)).max() < 1e-9
