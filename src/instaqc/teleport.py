"""Run-a-circuit-before-its-input protocol.

The register layout is fixed everywhere: [input block | near block | far block]
with n qubits each.  The far block is fed through the circuit ahead of time
while each (near, far) qubit pair sits in a |Φ⁺⟩ Bell state.  When the input
arrives, a Bell-state measurement of each (input_i, near_i) pair either
projects the far block directly onto circuit(input) (the all-trivial outcome)
or leaves a known per-qubit Pauli residue to repair.

Bell outcomes are encoded as bit pairs (x, z): (0,0) = Φ⁺, (1,0) = Ψ⁺,
(0,1) = Φ⁻, (1,1) = Ψ⁻.  On outcome (x, z) the far block holds the circuit
applied to X^x Z^z of the true input (per qubit), so the repair after
un-running the circuit is: apply X, then Z.  CORRECTIONS below is frozen
against an exhaustive single-qubit oracle kept in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, apply_circuit
from .statevec import (
    DEFAULT_MAX_QUBITS,
    X,
    Z,
    GateMatrix,
    StateVector,
    _targets_to_front,
    apply_gate,
    fidelity,
    measure_in_basis,
    orthonormal_basis_containing,
    project_out,
    tensor_product,
)

_B = 1.0 / np.sqrt(2.0)

# Rows indexed by x + 2z; vector index is little-endian over (first, second)
# measured qubit, so |first=0, second=1> sits at index 2.
BELL_BASIS = np.array([
    [_B, 0.0, 0.0, _B],    # (0,0)  Φ+
    [0.0, _B, _B, 0.0],    # (1,0)  Ψ+
    [_B, 0.0, 0.0, -_B],   # (0,1)  Φ−
    [0.0, -_B, _B, 0.0],   # (1,1)  Ψ−
], dtype=complex)

# Conjugated Bell rows as [outcome, near bit, input bit]: a pair's vector index
# is input_i + 2 near_i.
_BELL_CONJ = BELL_BASIS.conj().reshape(4, 2, 2)

# (x, z) -> single-qubit gates applied in listed order to undo the residue.
CORRECTIONS: dict[tuple[int, int], tuple[GateMatrix, ...]] = {
    (0, 0): (),
    (1, 0): (X,),
    (0, 1): (Z,),
    (1, 1): (X, Z),
}


@dataclass(frozen=True)
class BsmOutcome:
    """One (x, z) bit pair per input qubit, pair i at position i."""

    bits: tuple[tuple[int, int], ...]

    def __post_init__(self):
        bits = tuple((int(x), int(z)) for x, z in self.bits)
        for x, z in bits:
            if x not in (0, 1) or z not in (0, 1):
                raise ValueError(f"outcome bits must be 0/1, got {self.bits}")
        object.__setattr__(self, "bits", bits)

    def all_trivial(self) -> bool:
        return all(x == 0 and z == 0 for x, z in self.bits)

    @property
    def code(self) -> int:
        """Integer form: base-4 digits x_i + 2 z_i, pair 0 least significant."""
        return sum((x + 2 * z) << (2 * i) for i, (x, z) in enumerate(self.bits))

    @classmethod
    def from_code(cls, n: int, code: int) -> "BsmOutcome":
        if not 0 <= code < 4**n:
            raise ValueError(f"code {code} out of range for {n} pairs")
        return cls(tuple((code >> (2 * i) & 1, code >> (2 * i + 1) & 1)
                         for i in range(n)))


@dataclass(frozen=True, eq=False)
class OfflineResource:
    """Entangled 2n-qubit state with the circuit already run on the far block."""

    n: int
    joint_state: StateVector
    circuit: Circuit

    def __post_init__(self):
        if self.joint_state.num_qubits != 2 * self.n:
            raise ValueError(
                f"joint state has {self.joint_state.num_qubits} qubits, "
                f"expected {2 * self.n}")
        if self.circuit.num_qubits != self.n:
            raise ValueError("circuit size does not match resource size")


@dataclass(frozen=True, eq=False)
class InstantRunResult:
    outcome: BsmOutcome
    success: bool
    output_state: StateVector


def make_bell_pairs(n: int, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """n Bell pairs |Φ⁺⟩, pair i on qubits (i, n+i) of a 2n-qubit register."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if 2 * n > max_qubits:
        raise ValueError(f"{2 * n} qubits exceeds limit {max_qubits}")
    amps = np.zeros(1 << (2 * n), dtype=complex)
    scale = 2.0 ** (-n / 2)
    for a in range(1 << n):
        amps[a | (a << n)] = scale
    return StateVector(2 * n, amps)


def prepare_offline(circuit: Circuit,
                    max_qubits: int = DEFAULT_MAX_QUBITS) -> OfflineResource:
    """Run the circuit on the far halves of fresh Bell pairs."""
    n = circuit.num_qubits
    joint = apply_circuit(circuit, make_bell_pairs(n, max_qubits), offset=n)
    return OfflineResource(n, joint, circuit)


def _pair_outcome_vector(n: int, bits) -> np.ndarray:
    """Product of Bell vectors over pairs, as one vector on the 2n measured
    qubits (targets ordered 0..2n-1, pair i on bits (i, n+i))."""
    idx = np.arange(1 << (2 * n))
    v = np.ones(1 << (2 * n), dtype=complex)
    for i, (x, z) in enumerate(bits):
        sub = ((idx >> i) & 1) | (((idx >> (n + i)) & 1) << 1)
        v *= BELL_BASIS[x + 2 * z][sub]
    return v


def _project_lowest_pair(state: np.ndarray) -> np.ndarray:
    """Contract the lowest (near, input) bit pair of a (far, near, input)
    array with the four Bell vectors: (4, far, near/2, input/2)."""
    far, near, inp = state.shape
    split = state.reshape(far, near // 2, 2, inp // 2, 2)
    return np.tensordot(_BELL_CONJ, split, axes=([1, 2], [2, 4]))


def _sample_pairs(proj: np.ndarray, rng: np.random.Generator):
    """Bell-measure the pairs in order, starting from the first pair's
    (4, far, near, input) projection.

    Each pair takes one rng.random() and the cumsum/searchsorted rule of
    measure_in_basis, keeps the chosen slice renormalized, and the register
    loses two qubits.  Returns the outcome and the n-qubit far-block state.
    """
    bits = []
    while True:
        flat = proj.reshape(4, -1).view(float)  # (re, im) interleaved
        probs = np.einsum("ij,ij->i", flat, flat)
        cum = np.cumsum(probs / probs.sum())
        b = min(int(np.searchsorted(cum, rng.random(), side="right")), 3)
        bits.append((b & 1, b >> 1))
        state = proj[b] / np.sqrt(probs[b])
        if state.shape[1] == 1:
            return BsmOutcome(tuple(bits)), StateVector(len(bits), state.reshape(-1))
        proj = _project_lowest_pair(state)


def bell_measure_pairs(joint: StateVector, rng: np.random.Generator):
    """Measure each (input_i, near_i) pair in the Bell basis, pair 0 first.

    `joint` must hold 3n qubits laid out [input | near | far].  Returns the
    outcome and the renormalized n-qubit far-block state.
    """
    if joint.num_qubits % 3 != 0:
        raise ValueError(f"{joint.num_qubits} qubits does not split into 3 blocks")
    side = 1 << (joint.num_qubits // 3)
    state = joint.amplitudes.reshape(side, side, side)
    return _sample_pairs(_project_lowest_pair(state), rng)


def run_instantaneous(resource: OfflineResource, input_state: StateVector,
                      rng: np.random.Generator) -> InstantRunResult:
    """One protocol attempt: Bell-measure the input against the resource.

    The 3n-qubit product is never formed: the first pair is contracted from
    the input and the resource separately.
    """
    n = resource.n
    if input_state.num_qubits != n:
        raise ValueError(
            f"input has {input_state.num_qubits} qubits, resource expects {n}")
    half = 1 << (n - 1)
    # (4, near bit 0, input/2): input bit 0 contracted with each Bell vector
    partial = _BELL_CONJ @ input_state.amplitudes.reshape(half, 2).T
    # (4, far * near/2, input/2): near bit 0 contracted with the resource
    proj = resource.joint_state.amplitudes.reshape(-1, 2) @ partial
    outcome, far = _sample_pairs(proj.reshape(4, 2 * half, half, half), rng)
    return InstantRunResult(outcome, outcome.all_trivial(), far)


def force_outcome(resource: OfflineResource, input_state: StateVector,
                  outcome: BsmOutcome):
    """Post-select a specific outcome instead of sampling it.

    Returns (probability of that outcome, InstantRunResult).  Exists so tests
    can cover all 4^n outcomes without rejection sampling.
    """
    n = resource.n
    if len(outcome.bits) != n:
        raise ValueError(f"outcome has {len(outcome.bits)} pairs, expected {n}")
    if input_state.num_qubits != n:
        raise ValueError(
            f"input has {input_state.num_qubits} qubits, resource expects {n}")
    joint = tensor_product(input_state, resource.joint_state, max_qubits=3 * n)
    prob, far = project_out(joint, range(2 * n),
                            _pair_outcome_vector(n, outcome.bits))
    return prob, InstantRunResult(outcome, outcome.all_trivial(), far)


def outcome_distribution(resource: OfflineResource,
                         input_state: StateVector) -> np.ndarray:
    """Exact probability of every outcome, indexed by BsmOutcome.code."""
    n = resource.n
    if input_state.num_qubits != n:
        raise ValueError(
            f"input has {input_state.num_qubits} qubits, resource expects {n}")
    joint = tensor_product(input_state, resource.joint_state, max_qubits=3 * n)
    mat = _targets_to_front(joint, list(range(2 * n)))
    probs = np.empty(4**n)
    for code in range(4**n):
        bits = BsmOutcome.from_code(n, code).bits
        proj = _pair_outcome_vector(n, bits).conj() @ mat
        probs[code] = np.vdot(proj, proj).real
    return probs


def run_with_corrections(result: InstantRunResult, circuit: Circuit):
    """Repair a non-trivial outcome: un-run the circuit, undo the per-qubit
    Pauli residues, run the circuit again.

    Returns (corrected output, extra circuit executions = 2).
    """
    n = circuit.num_qubits
    if len(result.outcome.bits) != n:
        raise ValueError(
            f"outcome has {len(result.outcome.bits)} pairs, circuit has {n} qubits")
    # U^dag psi as conj(conj(psi) U): un-runs the circuit without copying U
    state = StateVector(n, (result.output_state.amplitudes.conj() @ circuit.unitary).conj())
    for i, key in enumerate(result.outcome.bits):
        for gate in CORRECTIONS[key]:
            state = apply_gate(state, gate, [i])
    return apply_circuit(circuit, state), 2


def check_measurement(output: StateVector, correct: StateVector,
                      rng: np.random.Generator):
    """Measure `output` in an orthonormal basis whose first element is `correct`.

    Returns (is_O, probability_O): whether the sampled outcome hit the
    correct-state element, and its exact probability |<correct|output>|².
    """
    if output.num_qubits != correct.num_qubits:
        raise ValueError(
            f"qubit counts differ: {output.num_qubits} vs {correct.num_qubits}")
    basis = orthonormal_basis_containing(correct.amplitudes)
    idx, _, _ = measure_in_basis(output, range(output.num_qubits), basis, rng)
    return idx == 0, fidelity(output, correct)
