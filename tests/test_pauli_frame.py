"""The repair against an independent Pauli-frame oracle.

On outcome code c the far block holds U X^x Z^z psi, with x_i, z_i the bits
of pair i's digit (x + 2z).  For a Clifford U that is P' U psi with
P' = U X^x Z^z U^dag another Pauli, which a stabilizer tableau (Gottesman &
Chuang 1999; Aaronson & Gottesman 2004) computes by pushing the two masks
through the gates with bit arithmetic alone.  The oracle here uses no matrix
of the package: only the gate names, and the Pauli's action on amplitudes.
Global phases are dropped, so the tableau tracks no sign.
"""
import numpy as np
import pytest

from instaqc.circuit import Circuit
from instaqc.statevec import NAMED_GATES, StateVector, fidelity, sample_haar_state
from instaqc.teleport import (
    force_outcome,
    prepare_offline,
    run_instantaneous,
    run_with_corrections,
)

CLIFFORD_1Q = [NAMED_GATES[name] for name in ("H", "S", "X", "Y", "Z")]


def random_clifford(n: int, gates: int, rng) -> Circuit:
    """`gates` gates drawn from H, S, X, Y, Z and (from n = 2) CNOT."""
    pool = CLIFFORD_1Q + ([NAMED_GATES["CNOT"]] if n >= 2 else [])
    seq = []
    for _ in range(gates):
        gate = pool[rng.integers(len(pool))]
        targets = rng.choice(n, size=gate.arity, replace=False)
        seq.append((gate, tuple(int(t) for t in targets)))
    return Circuit(n, tuple(seq))


def push_pauli(circuit: Circuit, x: int, z: int) -> tuple[int, int]:
    """Masks of U X^x Z^z U^dag, up to phase: conjugate by each gate in
    circuit order.  H swaps X and Z; S takes X to Y ~ XZ; CNOT copies X from
    control to target and Z from target to control; Paulis flip signs only."""
    for gate, targets in circuit.gates:
        if gate.name == "H":
            q, = targets
            flip = ((x ^ z) >> q & 1) << q
            x, z = x ^ flip, z ^ flip
        elif gate.name == "S":
            q, = targets
            z ^= (x >> q & 1) << q
        elif gate.name == "CNOT":
            c, t = targets
            x ^= (x >> c & 1) << t
            z ^= (z >> t & 1) << c
        else:
            assert gate.name in ("X", "Y", "Z"), gate.name
    return x, z


def apply_pauli(x: int, z: int, v: np.ndarray) -> np.ndarray:
    """X^x Z^z v: entry j is (-1)^popcount((j ^ x) & z) v[j ^ x]."""
    signs = [(-1) ** bin((j ^ x) & z).count("1") for j in range(len(v))]
    return np.array(signs) * v[np.arange(len(v)) ^ x]


def residue_masks(n: int, code: int) -> tuple[int, int]:
    """(x, z) masks of the residue X^x Z^z that `code` leaves on the input."""
    digits = [code >> (2 * i) & 3 for i in range(n)]
    return (sum((d & 1) << i for i, d in enumerate(digits)),
            sum((d >> 1) << i for i, d in enumerate(digits)))


def test_tableau_matches_conjugation_by_the_unitary():
    """The oracle itself, against U P U^dag as matrices, on every Pauli of
    two qubits: P' equals it up to phase."""
    rng = np.random.default_rng(1300)
    circ = random_clifford(2, 12, rng)
    u = circ.unitary
    for x in range(4):
        for z in range(4):
            p = np.array([apply_pauli(x, z, col) for col in np.eye(4)]).T
            conj = u @ p @ u.conj().T
            q = np.array([apply_pauli(*push_pauli(circ, x, z), col)
                          for col in np.eye(4)]).T
            overlap = np.trace(q.conj().T @ conj) / 4
            assert abs(abs(overlap) - 1) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_forced_far_block_is_the_pushed_pauli_on_the_output(n):
    """force_outcome's far block is P' U psi, up to phase, on every code."""
    rng = np.random.default_rng(1310 + n)
    for _ in range(3):
        circ = random_clifford(n, 6 * n, rng)
        resource = prepare_offline(circ)
        psi = sample_haar_state(n, rng)
        target = circ.unitary @ psi.amplitudes
        for code in range(4**n):
            _, result = force_outcome(resource, psi, code)
            expected = apply_pauli(*push_pauli(circ, *residue_masks(n, code)), target)
            assert fidelity(result.output_state, StateVector(expected)) >= 1 - 1e-9


def test_repair_restores_the_output_at_n8():
    """At the largest size: each sampled far block is P' U psi, and
    `run_with_corrections` turns every row back into U psi."""
    n = 8
    rng = np.random.default_rng(1320)
    circ = random_clifford(n, 60, rng)
    resource = prepare_offline(circ)
    inputs = [sample_haar_state(n, rng) for _ in range(24)]
    results = [run_instantaneous(resource, psi, rng) for psi in inputs]
    codes = np.array([r.code for r in results])
    assert np.count_nonzero(codes) == len(codes)  # 4^-8 odds of code 0 per row
    outputs = np.array([r.output_state.amplitudes for r in results])
    targets = [circ.unitary @ psi.amplitudes for psi in inputs]
    for code, output, target in zip(codes, outputs, targets):
        pushed = apply_pauli(*push_pauli(circ, *residue_masks(n, code)), target)
        assert abs(np.vdot(pushed, output)) ** 2 >= 1 - 1e-9
    fixed = run_with_corrections(codes, outputs, circ)
    for row, target in zip(fixed, targets):
        assert abs(np.vdot(target, row)) ** 2 >= 1 - 1e-9
