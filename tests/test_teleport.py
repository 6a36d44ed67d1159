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
    _haar_rows,
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
    OfflineResource,
    _bell_rows,
    _chunk_rows,
    _pair_outcome_vector,
    _teleport_chunk_rows,
    bell_measure_pairs,
    check_measurement,
    force_outcome,
    outcome_distribution,
    prepare_offline,
    run_instantaneous,
    run_trials,
    run_with_corrections,
)


def test_bell_basis_is_orthonormal():
    assert np.abs(BELL_BASIS @ BELL_BASIS.conj().T - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_code_digit_i_is_pair_i_bell_row(n):
    """Digit i of a code, code >> 2i & 3, is the BELL_BASIS row of pair i,
    which sits on qubits (i, n + i): entry j of the product vector is the
    product over pairs of row[bit i of j + 2 * bit n+i of j]."""
    for code in range(4**n):
        rows = [BELL_BASIS[code >> (2 * i) & 3] for i in range(n)]
        expected = [np.prod([rows[i][(j >> i & 1) + 2 * (j >> (n + i) & 1)]
                             for i in range(n)]) for j in range(4**n)]
        assert np.abs(_pair_outcome_vector(n, code) - expected).max() <= 1e-15


@pytest.mark.parametrize("n", [1, 2])
def test_force_outcome_rejects_codes_out_of_range(n):
    res = prepare_offline(Circuit(n))
    for code in (-1, 4**n):
        with pytest.raises(ValueError, match="out of range"):
            force_outcome(res, basis_state(n, 0), code)


def _bell_pairs_then_circuit(circuit: Circuit) -> np.ndarray:
    """Reference: n Bell pairs |Φ⁺⟩, pair i on qubits (i, n+i) of a 2n-qubit
    register, with the circuit run on the far block, read as R[far, near]:
    U times the pairs' amplitudes viewed as a (far, near) matrix."""
    n = circuit.num_qubits
    amps = np.zeros(1 << (2 * n), dtype=complex)
    for a in range(1 << n):
        amps[a | (a << n)] = 2.0 ** (-n / 2)
    return circuit.unitary @ amps.reshape(1 << n, 1 << n)


def _bits(mat: np.ndarray) -> bytes:
    return np.ascontiguousarray(mat, dtype=complex).tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_prepare_offline_is_the_choi_matrix(n):
    """R = U 2^(-n/2), bitwise equal to Bell pairs with the circuit run on
    their far halves; the empty circuit gives I 2^(-n/2)."""
    circ = random_circuit(n, 3, np.random.default_rng(20 + n))
    r = prepare_offline(circ).matrix
    assert _bits(r) == _bits(_bell_pairs_then_circuit(circ))
    assert _bits(r) == _bits(circ.unitary * 2 ** (-n / 2))
    empty = prepare_offline(Circuit(n)).matrix
    assert _bits(empty) == _bits(_bell_pairs_then_circuit(Circuit(n)))
    assert _bits(empty) == _bits(np.eye(1 << n) * 2 ** (-n / 2))


def test_prepare_offline_size_limit():
    """One pair past the limit is refused before U's 4^n entries are built."""
    def build():
        with pytest.raises(ValueError, match="limit"):
            prepare_offline(Circuit(MAX_QUBITS // 2 + 1))

    assert traced_peak(build) < 64 << 10


_OVER = 1 << (MAX_QUBITS // 2 + 1)  # side of R one pair past the register limit
_SHAPE = r"2\*\*n x 2\*\*n"


@pytest.mark.parametrize("matrix, match", [
    (basis_state(2, 0).amplitudes, _SHAPE),
    (basis_state(3, 0).amplitudes.reshape(2, 4), _SHAPE),
    (np.full((3, 3), 1 / 3), _SHAPE),
    (np.ones((1, 1)), _SHAPE),
    (np.array([[np.nan, 0], [0, 0]]), "not normalized"),
    (np.array([[np.inf, 0], [0, 0]]), "not normalized"),
    (np.array([[1, 0], [0, 1j]]), "not normalized"),
    (np.eye(_OVER) / np.sqrt(_OVER), "limit"),
], ids=["1-d", "non-square", "3x3", "1x1", "nan", "inf", "unnormalized", "oversized"])
def test_offline_resource_rejects_a_bad_matrix(matrix, match):
    """Shape and size are checked before the copy, so an oversized R is
    refused without a second 4 MiB allocation."""
    def build():
        with pytest.raises(ValueError, match=match):
            OfflineResource(matrix)

    assert traced_peak(build) < matrix.nbytes // 16 + (64 << 10)


def test_offline_resource_keeps_a_read_only_copy():
    assert prepare_offline(Circuit(3)).n == 3
    source = prepare_offline(Circuit(2)).matrix.copy()
    res = OfflineResource(source)
    assert res.n == 2 and not res.matrix.flags.writeable
    assert not np.shares_memory(res.matrix, source)
    source[0, 0] = 0.0
    assert res.matrix[0, 0] == 0.5
    as_list = OfflineResource([[2**-0.5, 0], [0, 2**-0.5]])
    assert as_list.matrix.dtype == complex and not as_list.matrix.flags.writeable


def test_prepare_offline_identity_keeps_pair():
    res = prepare_offline(Circuit(1))
    assert np.allclose(res.joint_state.amplitudes,
                       [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_resource_matrix_is_one_read_only_view():
    """R[far, near] is the resource's one stored form, the same read-only
    array on every read; the joint amplitudes derive from it, far block
    high."""
    res = prepare_offline(random_circuit(2, 3, np.random.default_rng(30)))
    r = res.matrix
    assert res.matrix is r and not r.flags.writeable
    amps = res.joint_state.amplitudes
    assert all(r[far, near] == amps[near | far << 2]
               for far in range(4) for near in range(4))


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
    prob, result = force_outcome(res, psi, x + 2 * z)
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
        prob, result = force_outcome(res, psi, code)
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
        counts[result.code] += 1
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
        _, result = force_outcome(res, psi, 0)
        assert result.success
        assert fidelity(result.output_state, apply_circuit(circ, psi)) > 1 - 1e-9


def test_identity_input_zero_success_output_zero():
    res = prepare_offline(Circuit(2))
    _, result = force_outcome(res, basis_state(2, 0), 0)
    assert fidelity(result.output_state, basis_state(2, 0)) > 1 - 1e-9


def test_run_instantaneous_success_flag_matches_outcome():
    rng = np.random.default_rng(62)
    res = prepare_offline(random_circuit(1, 2, rng))
    for _ in range(50):
        result = run_instantaneous(res, sample_haar_state(1, rng), rng)
        assert result.success == (result.code == 0)


def test_run_instantaneous_dimension_mismatch():
    rng = np.random.default_rng(63)
    res = prepare_offline(Circuit(1))
    with pytest.raises(ValueError, match="expects"):
        run_instantaneous(res, basis_state(2, 0), rng)


def _forced_outputs(res, psi):
    """The far-block output of every outcome code, one row per code."""
    n = res.n
    return np.array([force_outcome(res, psi, code)[1]
                     .output_state.amplitudes for code in range(4**n)])


@pytest.mark.parametrize("n", [1, 2])
def test_corrections_restore_every_outcome(n):
    rng = np.random.default_rng(70 + n)
    for _ in range(5):
        circ = random_circuit(n, 3, rng)
        res = prepare_offline(circ)
        psi = sample_haar_state(n, rng)
        target = apply_circuit(circ, psi)
        fixed = run_with_corrections(np.arange(4**n), _forced_outputs(res, psi), circ)
        assert min(fidelity(StateVector(row), target) for row in fixed) > 1 - 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_repair_matches_force_outcome_on_every_code(n):
    """One call over all 4^n forced outputs restores U psi on every row, and
    row t is what a one-row call on code t returns (up to the rounding of a
    one-row matmul against a many-row one)."""
    rng = np.random.default_rng(90 + n)
    circ = random_circuit(n, 4, rng)
    res = prepare_offline(circ)
    psi = sample_haar_state(n, rng)
    outputs = _forced_outputs(res, psi)
    codes = np.arange(4**n)
    fixed = run_with_corrections(codes, outputs, circ)
    assert fixed.shape == outputs.shape
    target = circ.unitary @ psi.amplitudes
    assert np.abs(fixed.conj() @ target).min() ** 2 >= 1 - 1e-9
    for code in codes:
        one = run_with_corrections(codes[code:code + 1], outputs[code:code + 1], circ)
        assert np.abs(one[0] - fixed[code]).max() <= 1e-12


def test_corrections_on_trivial_outcome_are_identity():
    rng = np.random.default_rng(72)
    circ = random_circuit(2, 3, rng)
    res = prepare_offline(circ)
    psi = sample_haar_state(2, rng)
    _, result = force_outcome(res, psi, 0)
    fixed = run_with_corrections(np.array([0]), result.output_state.amplitudes[None], circ)
    assert fidelity(StateVector(fixed[0]), result.output_state) > 1 - 1e-9


def test_corrections_outcome_length_mismatch():
    """A width that is not 2^n, a row-count mismatch and a code >= 4^n are
    each rejected."""
    rng = np.random.default_rng(73)
    res = prepare_offline(Circuit(1))
    result = run_instantaneous(res, basis_state(1, 0), rng)
    row = result.output_state.amplitudes[None]
    with pytest.raises(ValueError, match="qubits"):
        run_with_corrections(np.array([result.code]), row, Circuit(2))
    with pytest.raises(ValueError, match="qubits"):
        run_with_corrections(np.array([0]), row[0], Circuit(1))
    with pytest.raises(ValueError, match="row counts"):
        run_with_corrections(np.array([0, 1]), row, Circuit(1))
    with pytest.raises(ValueError, match="codes must lie"):
        run_with_corrections(np.array([4]), row, Circuit(1))
    with pytest.raises(ValueError, match="codes must lie"):
        run_with_corrections(np.array([-1]), row, Circuit(1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_repair_permutation_matches_corrections_gate_by_gate(n):
    """The repair's one signed permutation equals un-running the circuit,
    applying CORRECTIONS gate by gate, and running it again."""
    rng = np.random.default_rng(75 + n)
    circ = random_circuit(n, 3, rng)
    u = circ.unitary
    output = sample_haar_state(n, rng)
    unrun = StateVector(u.conj().T @ output.amplitudes)
    fixed = run_with_corrections(np.arange(4**n),
                                 np.tile(output.amplitudes, (4**n, 1)), circ)
    for code in range(4**n):
        expected = unrun
        for i in range(n):
            for gate in CORRECTIONS[(code >> (2 * i) & 1, code >> (2 * i + 1) & 1)]:
                expected = apply_gate(expected, gate, [i])
        assert np.abs(fixed[code] - u @ expected.amplitudes).max() <= 1e-12


def _z_rotation(theta):
    return GateMatrix(np.diag([1.0, np.exp(1j * theta)]))


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
    code = 2 + 2 * 4  # both pairs: z residue only
    _, result = force_outcome(res, psi, code)
    shortcut = apply_gate(apply_gate(result.output_state, Z, [0]), Z, [1])
    assert fidelity(shortcut, target) > 1 - 1e-9
    # and the general invert-correct-rerun path agrees
    fixed = run_with_corrections(np.array([code]),
                                 result.output_state.amplitudes[None], circ)
    assert fidelity(StateVector(fixed[0]), shortcut) > 1 - 1e-9


# --- check measurement ---------------------------------------------------------

def test_check_measurement_eigenstate():
    rng = np.random.default_rng(80)
    psi = sample_haar_state(2, rng)
    is_O, prob = check_measurement(psi.amplitudes[None], psi.amplitudes[None], rng)
    assert is_O
    assert abs(prob - 1.0) < 1e-12


def test_check_measurement_orthogonal():
    rng = np.random.default_rng(81)
    is_O, prob = check_measurement(basis_state(2, 1).amplitudes[None],
                                    basis_state(2, 2).amplitudes[None], rng)
    assert not is_O
    assert prob == 0.0


def test_check_measurement_dimension_mismatch():
    rng = np.random.default_rng(82)
    with pytest.raises(ValueError, match="qubit counts"):
        check_measurement(basis_state(1, 0).amplitudes[None],
                          basis_state(2, 0).amplitudes[None], rng)
    with pytest.raises(ValueError, match="row counts"):
        check_measurement(np.ones((3, 4)) / 2, np.ones((2, 4)) / 2, rng)


def test_check_measurement_refuses_nan_rows():
    """A NaN amplitude makes its row's probability NaN, which u < p would
    read as a failed check: refused before any draw."""
    rng = np.random.default_rng(85)
    outputs = np.array([basis_state(1, 0).amplitudes, [np.nan, 0.0]])
    with pytest.raises(ValueError, match="not finite"):
        check_measurement(outputs, outputs[::-1], rng)
    assert rng.random() == np.random.default_rng(85).random()


def test_check_measurement_frequency_matches_fidelity():
    """Empirical O rate converges to |<correct|output>|^2."""
    rng = np.random.default_rng(83)
    output = sample_haar_state(2, rng)
    correct = sample_haar_state(2, rng)
    expected = fidelity(output, correct)
    trials = 20000
    hits = 0
    for _ in range(trials):
        (is_O,), (prob,) = check_measurement(output.amplitudes[None],
                                             correct.amplitudes[None], rng)
        assert prob == expected
        hits += is_O
    rate_within_3sigma(hits, trials, expected)


def test_check_measurement_haar_mean_quarter():
    """Mean O probability for Haar outputs at n=2 is 2^-n = 1/4."""
    rng = np.random.default_rng(84)
    correct = sample_haar_state(2, rng)
    probs = [check_measurement(sample_haar_state(2, rng).amplitudes[None],
                               correct.amplitudes[None], rng)[1]
             for _ in range(20000)]
    assert_within_3sigma(probs, 0.25)


# --- trial runner ---------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("chunks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
def test_run_trials_plays_every_trial_across_chunk_boundaries(n, chunks, extra):
    """One trial short of a chunk, a full chunk, one past it and one past
    two: the last partial chunk is played, no trial is played twice, and
    every non-trivial trial is repaired."""
    trials = chunks * _teleport_chunk_rows(n) + extra
    circ = random_circuit(n, 2, np.random.default_rng(190 + n))
    report = run_trials(circ, trials, np.random.default_rng(191), corrections=True)
    assert report.histogram.sum() == report.trials == trials
    assert report.corrections.runs == trials - report.success_count
    assert report.corrections.extra_executions_per_run == 2
    assert report.corrections.min_fidelity > 1 - 1e-9


def _summaries(report):
    repair = report.corrections
    return (report.mean_success_fidelity, report.min_success_fidelity,
            repair.mean_fidelity, repair.min_fidelity)


@pytest.mark.parametrize("n, trials", [(1, 900), (2, 700), (3, 500), (5, 500)])
def test_report_does_not_depend_on_the_chunk_budget(monkeypatch, n, trials):
    """Inputs and Bell uniforms come from two spawned streams, each drawn row
    by row, so the chunk budget only sets speed.  A one-row budget, 16 KiB,
    256 KiB and 2 MiB (halved at n <= 2) give the same histogram and repair
    count, and the same fidelity summaries bitwise across the multi-row
    budgets.  numpy multiplies a one-row block by another routine, so
    one-row chunks may move the summaries in the last bits, within 1e-15."""
    circ = random_circuit(n, 3, np.random.default_rng(230 + n))
    reports = {}
    for budget in (1, 16 << 10, 256 << 10, 2 << 20):
        monkeypatch.setattr("instaqc.teleport._TELEPORT_CHUNK_BYTES", budget)
        assert (_teleport_chunk_rows(n) == 1) == (budget == 1)
        reports[budget] = run_trials(circ, trials, np.random.default_rng(231),
                                     corrections=True)
    one_row = reports.pop(1)
    for report in reports.values():
        assert np.array_equal(report.histogram, one_row.histogram)
        assert report.corrections.runs == one_row.corrections.runs
        assert _summaries(report) == _summaries(reports[16 << 10])
        for value, single in zip(_summaries(report), _summaries(one_row)):
            assert (value is None) == (single is None)
            assert value is None or abs(value - single) <= 1e-15


@pytest.mark.parametrize("n", [2, 5, 8])
def test_bell_rows_chunk_peak_per_amplitude(n):
    """A 256 KiB chunk of the Bell step holds one pair's arrays at a time:
    the chunk's candidates c, their near-ordered copy and G c, ~13 copies of
    the input's size: ~215-236 B per input amplitude, ~290-308 B if a pair's
    arrays live on into the next pair's.  The bound sits between the two."""
    resource = prepare_offline(random_circuit(n, 3, np.random.default_rng(240 + n)))
    resource.near_grams  # built before the traced call
    rows = _chunk_rows(n, 256 << 10)
    inputs = _haar_rows(n, rows, np.random.default_rng(241))
    peak = traced_peak(lambda: _bell_rows(resource, inputs, np.random.default_rng(242)))
    assert peak < 260 * (rows << n)


def test_run_trials_needs_a_trial():
    with pytest.raises(ValueError, match="trials >= 1"):
        run_trials(Circuit(1), 0, np.random.default_rng(192))
