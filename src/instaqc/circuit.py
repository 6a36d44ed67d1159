"""Gate-sequence circuits: compiled application, inversion, random generation, JSON I/O."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .statevec import (
    NAMED_GATES,
    CNOT,
    UNITARY_TOL,
    GateMatrix,
    StateVector,
    _apply_gate_batch,
    _check_gate_targets,
    _unitarity_error,
)

Gate = tuple[GateMatrix, tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class Circuit:
    """Ordered gates over num_qubits qubits; each entry is (matrix, targets)."""

    num_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        gates = tuple((gate, _check_gate_targets(self.num_qubits, gate, targets))
                      for gate, targets in self.gates)
        object.__setattr__(self, "gates", gates)

    def __len__(self) -> int:
        return len(self.gates)

    @cached_property
    def unitary(self) -> np.ndarray:
        """Read-only 2**n x 2**n matrix of the circuit (little-endian index),
        built on first access and checked for unitarity once."""
        n = self.num_qubits
        # Row j carries basis state j through the gates: the rows end as the
        # columns of the unitary.
        rows = np.eye(1 << n, dtype=complex)
        for gate, targets in self.gates:
            rows = _apply_gate_batch(rows, n, gate, targets)
        mat = np.ascontiguousarray(rows.T)
        err = _unitarity_error(mat)
        if not err <= UNITARY_TOL:
            raise ValueError(f"circuit not unitary: max |UU^dag - I| = {err:g}")
        mat.setflags(write=False)
        return mat


def apply_circuit(circuit: Circuit, state: StateVector, offset: int = 0) -> StateVector:
    """Run the circuit on `state`, with circuit qubit i mapped to qubit offset+i."""
    k = circuit.num_qubits
    if offset < 0 or offset + k > state.num_qubits:
        raise ValueError(
            f"circuit on {k} qubits at offset {offset} "
            f"does not fit in {state.num_qubits} qubits")
    high = 1 << (state.num_qubits - k - offset)
    psi = state.amplitudes.reshape(high, 1 << k, 1 << offset)
    return StateVector(state.num_qubits, (circuit.unitary @ psi).reshape(-1))


def inverse(circuit: Circuit) -> Circuit:
    """Reversed gate order with each matrix conjugate-transposed."""
    gates = tuple((gate.dagger(), targets) for gate, targets in reversed(circuit.gates))
    return Circuit(circuit.num_qubits, gates)


def _haar_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary by the QR recipe of scipy.stats.unitary_group,
    same expression order, so a seed gives bitwise the same matrix."""
    z = 1 / math.sqrt(2) * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    return q * (d / abs(d))


def random_circuit(num_qubits: int, depth: int, rng: np.random.Generator) -> Circuit:
    """Layered random circuit: per layer, a Haar-random single-qubit gate on
    every qubit, then (when num_qubits >= 2) one CNOT on a random pair."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    gates: list[Gate] = []
    for _ in range(depth):
        for qubit in range(num_qubits):
            gates.append((GateMatrix(1, _haar_unitary_2x2(rng)), (qubit,)))
        if num_qubits >= 2:
            control, target = rng.choice(num_qubits, size=2, replace=False)
            gates.append((CNOT, (int(control), int(target))))
    return Circuit(num_qubits, tuple(gates))


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _matrix_from_json(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def circuit_to_dict(circuit: Circuit) -> dict:
    """JSON-ready form: named gates where possible, raw matrices otherwise."""
    gates = []
    for gate, targets in circuit.gates:
        entry: dict = {"targets": list(targets)}
        known = NAMED_GATES.get(gate.name)
        if known is not None and np.array_equal(known.entries, gate.entries):
            entry["name"] = gate.name
        else:
            entry["matrix"] = _matrix_to_json(gate.entries)
        gates.append(entry)
    return {"num_qubits": circuit.num_qubits, "gates": gates}


def circuit_from_dict(doc: dict) -> Circuit:
    gates: list[Gate] = []
    try:
        for entry in doc["gates"]:
            # type() is int, not isinstance: a JSON true must not pass as 1
            targets = entry["targets"]
            if type(targets) is not list or any(type(t) is not int for t in targets):
                raise ValueError(f"targets must be a list of integers, got {targets!r}")
            if "name" in entry:
                if "matrix" in entry:
                    raise ValueError("a gate takes 'name' or 'matrix', not both")
                name = entry["name"]
                if name not in NAMED_GATES:
                    raise ValueError(f"unknown gate name {name!r}")
                gate = NAMED_GATES[name]
            else:
                mat = _matrix_from_json(entry["matrix"])
                arity = {2: 1, 4: 2}.get(mat.shape[0])
                if arity is None or mat.shape[0] != mat.shape[1]:
                    raise ValueError(f"matrix shape {mat.shape} is not 2x2 or 4x4")
                gate = GateMatrix(arity, mat)
            gates.append((gate, tuple(targets)))
        num_qubits = doc["num_qubits"]
    except KeyError as exc:
        raise ValueError(f"circuit has no key {exc}") from None
    if type(num_qubits) is not int:
        raise ValueError(f"num_qubits must be an integer, got {num_qubits!r}")
    return Circuit(num_qubits, tuple(gates))


def save_circuit(circuit: Circuit, path) -> None:
    with open(path, "w") as fh:
        json.dump(circuit_to_dict(circuit), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_circuit(path) -> Circuit:
    with open(path) as fh:
        return circuit_from_dict(json.load(fh))
