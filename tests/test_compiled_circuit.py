"""The compiled circuit unitary against a gate-by-gate reference.

`Circuit.unitary` is built once and then every application is one matmul.
The reference below is the gate loop it replaced: one moveaxis/matmul per
gate on a single state, with its own index arithmetic, so a wrong axis order
in the batched build cannot hide behind a shared kernel.
"""
import json

import numpy as np
import pytest
from scipy.stats import unitary_group

from instaqc.circuit import (
    Circuit,
    apply_circuit,
    circuit_from_dict,
    circuit_unitary,
    random_circuit,
)
from instaqc.statevec import (
    CNOT,
    H,
    S,
    GateMatrix,
    StateVector,
    fidelity,
    sample_haar_state,
)
from instaqc.teleport import (
    BsmOutcome,
    force_outcome,
    prepare_offline,
    run_with_corrections,
)

TOL = 1e-12


def _reference_apply_gate(amps, n, gate, targets):
    src = [n - 1 - t for t in reversed(targets)]
    k = len(targets)
    psi = np.moveaxis(amps.reshape([2] * n), src, range(k))
    shape = psi.shape
    out = (gate.entries @ psi.reshape(1 << k, -1)).reshape(shape)
    return np.moveaxis(out, range(k), src).reshape(-1)


def _reference_apply_circuit(circuit, state, offset=0):
    amps = state.amplitudes
    for gate, targets in circuit.gates:
        amps = _reference_apply_gate(amps, state.num_qubits, gate,
                                     [offset + t for t in targets])
    return amps


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("depth", range(9))
def test_compiled_matches_gate_loop(n, depth):
    rng = np.random.default_rng(1000 * n + depth)
    circ = random_circuit(n, depth, rng)
    for _ in range(3):
        psi = sample_haar_state(n, rng)
        out = apply_circuit(circ, psi)
        assert np.abs(out.amplitudes - _reference_apply_circuit(circ, psi)).max() <= TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compiled_matches_gate_loop_at_every_offset(n):
    rng = np.random.default_rng(2000 + n)
    circ = random_circuit(n, 4, rng)
    for offset in range(n + 1):
        psi = sample_haar_state(2 * n, rng)
        out = apply_circuit(circ, psi, offset=offset)
        ref = _reference_apply_circuit(circ, psi, offset)
        assert np.abs(out.amplitudes - ref).max() <= TOL


def test_loaded_circuit_with_raw_matrices():
    rng = np.random.default_rng(3000)

    def raw(dim):
        u = unitary_group.rvs(dim, random_state=rng)
        return [[[float(v.real), float(v.imag)] for v in row] for row in u]

    doc = {"num_qubits": 3, "gates": [
        {"matrix": raw(4), "targets": [2, 0]},
        {"matrix": raw(2), "targets": [1]},
        {"name": "CNOT", "targets": [1, 2]},
        {"matrix": raw(4), "targets": [0, 1]},
        {"matrix": raw(4), "targets": [1, 2]},
    ]}
    circ = circuit_from_dict(json.loads(json.dumps(doc)))
    for offset in (0, 1, 2):
        psi = sample_haar_state(5, rng)
        out = apply_circuit(circ, psi, offset=offset)
        ref = _reference_apply_circuit(circ, psi, offset)
        assert np.abs(out.amplitudes - ref).max() <= TOL


@pytest.mark.parametrize("n", [1, 3])
def test_unitary_columns_are_basis_images(n):
    rng = np.random.default_rng(4000 + n)
    circ = random_circuit(n, 5, rng)
    dim = 1 << n
    ref = np.column_stack([
        _reference_apply_circuit(circ, StateVector(n, np.eye(dim)[j]))
        for j in range(dim)])
    assert np.abs(circuit_unitary(circ) - ref).max() <= TOL


def test_asymmetric_two_qubit_gate_orientation():
    # CNOT with control 1: |q1=1, q0=0> (index 2) goes to index 3
    circ = Circuit(2, ((CNOT, (1, 0)),))
    assert circ.unitary[3, 2] == 1.0
    assert circ.unitary[2, 3] == 1.0
    assert circ.unitary[0, 0] == 1.0 and circ.unitary[1, 1] == 1.0


@pytest.mark.parametrize("n", [1, 2, 5])
def test_depth_zero_is_identity(n):
    circ = random_circuit(n, 0, np.random.default_rng(5000))
    assert np.array_equal(circ.unitary, np.eye(1 << n))


def test_unitary_is_cached_and_read_only():
    circ = Circuit(2, ((H, (0,)), (CNOT, (0, 1)), (S, (1,))))
    first = circ.unitary
    assert circ.unitary is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 2.0
    copy = circuit_unitary(circ)
    assert copy is not first and copy.flags.writeable
    copy[0, 0] = 2.0
    assert circ.unitary[0, 0] != 2.0


def test_drifting_gates_fail_the_unitarity_check():
    # each gate passes its own 1e-9 check; 200 of them drift past it
    drift = GateMatrix(1, np.diag([1.0, 1.0 + 4e-10]))
    circ = Circuit(1, ((drift, (0,)),) * 200)
    with pytest.raises(ValueError, match="circuit not unitary"):
        apply_circuit(circ, sample_haar_state(1, np.random.default_rng(0)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_corrections_restore_every_code(n):
    rng = np.random.default_rng(6000 + n)
    circ = random_circuit(n, 4, rng)
    res = prepare_offline(circ)
    psi = sample_haar_state(n, rng)
    target = _reference_apply_circuit(circ, psi)
    for code in range(4**n):
        _, result = force_outcome(res, psi, BsmOutcome.from_code(n, code))
        fixed, extra = run_with_corrections(result, circ)
        assert extra == 2
        assert fidelity(fixed, StateVector(n, target)) >= 1 - 1e-9
