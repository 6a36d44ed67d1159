"""Gate-sequence circuits: compiled application, inversion, random generation, JSON I/O."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .statevec import (
    MAX_GATES,
    NAMED_GATES,
    CNOT,
    UNITARY_TOL,
    GateMatrix,
    StateVector,
    _apply_gate_batch,
    _check_gate_targets,
    _check_size,
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
        _check_size(2 * n)  # 4^n entries, a 2n-qubit register's worth
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


def apply_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    """Run the circuit on `state`, a register of the circuit's own size."""
    if state.num_qubits != circuit.num_qubits:
        raise ValueError(f"circuit on {circuit.num_qubits} qubits got a state "
                         f"of {state.num_qubits} qubits")
    return StateVector(circuit.unitary @ state.amplitudes)


def inverse(circuit: Circuit) -> Circuit:
    """Reversed gates, each conjugate-transposed; only a Hermitian one keeps its name."""
    gates = []
    for gate, targets in reversed(circuit.gates):
        adj = gate.entries.conj().T
        name = gate.name if np.array_equal(adj, gate.entries) else None
        gates.append((GateMatrix(adj, name=name), targets))
    return Circuit(circuit.num_qubits, tuple(gates))


def _check_depth(num_qubits: int, depth: int) -> None:
    """Reject a depth below 0, or one whose `random_circuit` would hold more
    than MAX_GATES gates (num_qubits per layer, plus a CNOT from 2 qubits)."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    gates = depth * (num_qubits + (num_qubits >= 2))
    if gates > MAX_GATES:
        raise ValueError(f"depth {depth} at n = {num_qubits} makes {gates} gates, "
                         f"over the limit {MAX_GATES}")


def random_circuit(num_qubits: int, depth: int, rng: np.random.Generator) -> Circuit:
    """Layered random circuit: per layer, a Haar-random single-qubit gate on
    every qubit, then (when num_qubits >= 2) one CNOT on a random pair.

    A layer's gates follow the QR recipe of scipy.stats.unitary_group,
    stacked: one normal draw holds each gate's real then imaginary (2, 2)
    part, gate by gate, so a seed gives bitwise the matrices that one
    `unitary_group.rvs(2)` call per gate would.  The draws come layer by
    layer (the gates' normals, then the CNOT pair); the QR and its phase fix
    then run once over the gates of every layer.
    """
    _check_depth(num_qubits, depth)
    parts, pairs = [], []
    for _ in range(depth):
        parts.append(rng.normal(size=(num_qubits, 2, 2, 2)))
        if num_qubits >= 2:
            pairs.append(rng.choice(num_qubits, size=2, replace=False))
    parts = np.reshape(parts, (depth, num_qubits, 2, 2, 2))
    z = 1 / math.sqrt(2) * (parts[:, :, 0] + 1j * parts[:, :, 1])
    q, r = np.linalg.qr(z)
    d = r.diagonal(axis1=-2, axis2=-1)
    q *= (d / abs(d))[..., np.newaxis, :]
    gates: list[Gate] = []
    for layer, layer_gates in enumerate(q):
        gates.extend((GateMatrix(u), (qubit,)) for qubit, u in enumerate(layer_gates))
        if num_qubits >= 2:
            control, target = pairs[layer]
            gates.append((CNOT, (int(control), int(target))))
    return Circuit(num_qubits, tuple(gates))


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _is_number_pair(value) -> bool:
    # type() is int, not isinstance: a JSON true must not pass as 1
    return (type(value) is list and len(value) == 2
            and all(type(v) in (int, float) for v in value))


def _matrix_from_json(rows) -> np.ndarray:
    """Square matrix from a list of rows of [re, im] number pairs."""
    if (type(rows) is list and rows
            and all(type(row) is list and len(row) == len(rows)
                    and all(map(_is_number_pair, row)) for row in rows)):
        try:
            return np.array(rows, dtype=float).view(complex)[..., 0]
        except OverflowError:  # an integer too large for a float
            pass
    raise ValueError("matrix must be a square list of rows of [re, im] "
                     f"number pairs, got {rows!r}")


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
    if not isinstance(doc, dict):
        raise ValueError("circuit must be a JSON object")
    gates: list[Gate] = []
    try:
        if not isinstance(doc["gates"], list):
            raise ValueError(f"gates must be a list, got {doc['gates']!r}")
        if len(doc["gates"]) > MAX_GATES:
            raise ValueError(f"gates holds {len(doc['gates'])} entries, "
                             f"over the limit {MAX_GATES}")
        for entry in doc["gates"]:
            if not isinstance(entry, dict):
                raise ValueError(f"each gate must be a JSON object, got {entry!r}")
            # type() is int, not isinstance: a JSON true must not pass as 1
            targets = entry["targets"]
            if type(targets) is not list or any(type(t) is not int for t in targets):
                raise ValueError(f"targets must be a list of integers, got {targets!r}")
            if "name" in entry:
                if "matrix" in entry:
                    raise ValueError("a gate takes 'name' or 'matrix', not both")
                name = entry["name"]
                if type(name) is not str:
                    raise ValueError(f"name must be a string, got {name!r}")
                if name not in NAMED_GATES:
                    raise ValueError(f"unknown gate name {name!r}")
                gate = NAMED_GATES[name]
            else:
                gate = GateMatrix(_matrix_from_json(entry["matrix"]))
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
