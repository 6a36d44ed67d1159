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
from functools import cached_property

import numpy as np

from .circuit import Circuit, apply_circuit
from .statevec import (
    X,
    Z,
    GateMatrix,
    StateVector,
    _check_size,
    _draw,
    _targets_to_front,
    fidelity,
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
# The same as one (outcome, near bit) x input bit matrix, for 2-D matmuls.
_BELL_ROWS = _BELL_CONJ.reshape(8, 2)

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

    joint_state: StateVector

    def __post_init__(self):
        if self.joint_state.num_qubits % 2:
            raise ValueError("joint state needs an even qubit count, "
                             f"got {self.joint_state.num_qubits}")

    @property
    def n(self) -> int:
        """Pairs held: the near and far blocks are n qubits each."""
        return self.joint_state.num_qubits // 2

    def _check_input(self, state: StateVector) -> None:
        if state.num_qubits != self.n:
            raise ValueError(
                f"input has {state.num_qubits} qubits, resource expects {self.n}")

    @cached_property
    def near_grams(self) -> tuple[np.ndarray, ...]:
        """Read-only Gram matrices of the near block, built on first access.

        With R[far, near] the joint amplitudes and M = R^H R, entry k is M
        traced over near bits k+1..n-1, a 2^(k+1) x 2^(k+1) matrix indexed
        little-endian by near bits 0..k; the last entry is M itself.  Once
        pairs 0..k are measured, each outcome's probability is a quadratic
        form in these, so the Bell step never touches the far block.
        """
        side = 1 << self.n
        r = self.joint_state.amplitudes.reshape(side, side)
        grams = [r.conj().T @ r]
        while grams[0].shape[0] > 2:
            half = grams[0].shape[0] // 2
            grams.insert(0, grams[0][:half, :half] + grams[0][half:, half:])
        for gram in grams:
            gram.setflags(write=False)
        return tuple(grams)


@dataclass(frozen=True, eq=False)
class InstantRunResult:
    outcome: BsmOutcome
    output_state: StateVector

    @property
    def success(self) -> bool:
        """The output is ready as it stands: every pair read Φ⁺."""
        return self.outcome.all_trivial()


def make_bell_pairs(n: int) -> StateVector:
    """n Bell pairs |Φ⁺⟩, pair i on qubits (i, n+i) of a 2n-qubit register."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_size(2 * n)
    amps = np.zeros(1 << (2 * n), dtype=complex)
    scale = 2.0 ** (-n / 2)
    for a in range(1 << n):
        amps[a | (a << n)] = scale
    return StateVector(2 * n, amps)


def prepare_offline(circuit: Circuit) -> OfflineResource:
    """Run the circuit on the far halves of fresh Bell pairs."""
    n = circuit.num_qubits
    return OfflineResource(apply_circuit(circuit, make_bell_pairs(n), offset=n))


def _pair_outcome_vector(n: int, bits) -> np.ndarray:
    """Product of Bell vectors over pairs, as one vector on the 2n measured
    qubits (targets ordered 0..2n-1, pair i on bits (i, n+i))."""
    idx = np.arange(1 << (2 * n))
    v = np.ones(1 << (2 * n), dtype=complex)
    for i, (x, z) in enumerate(bits):
        sub = ((idx >> i) & 1) | (((idx >> (n + i)) & 1) << 1)
        v *= BELL_BASIS[x + 2 * z][sub]
    return v


def bell_measure_pairs(joint: StateVector, rng: np.random.Generator):
    """Measure each (input_i, near_i) pair in the Bell basis, pair 0 first.

    `joint` must hold 3n qubits laid out [input | near | far].  Each pair is
    contracted with the four Bell vectors out of what is left, takes one
    `_draw`, and keeps the chosen slice renormalized, so the register loses
    two qubits per pair.  Returns the outcome and the renormalized n-qubit
    far-block state.
    """
    if joint.num_qubits % 3 != 0:
        raise ValueError(f"{joint.num_qubits} qubits does not split into 3 blocks")
    side = 1 << (joint.num_qubits // 3)
    state = joint.amplitudes.reshape(side, side, side)  # (far, near, input)
    bits = []
    while state.shape[1] > 1:
        far, near, inp = state.shape
        split = state.reshape(far, near // 2, 2, inp // 2, 2)
        # (4, far, near/2, input/2): the lowest (near, input) pair contracted
        proj = np.tensordot(_BELL_CONJ, split, axes=([1, 2], [2, 4]))
        flat = proj.reshape(4, -1).view(float)  # (re, im) interleaved
        probs = np.einsum("ij,ij->i", flat, flat)
        b = _draw(probs, rng)
        bits.append((b & 1, b >> 1))
        state = proj[b] / np.sqrt(probs[b])
    return BsmOutcome(tuple(bits)), StateVector(len(bits), state.reshape(-1))


def run_instantaneous(resource: OfflineResource, input_state: StateVector,
                      rng: np.random.Generator) -> InstantRunResult:
    """One protocol attempt: Bell-measure the input against the resource.

    Input and resource are in product, so the carried state is only
    w[near bits measured so far, input bits not yet measured], 2^n
    amplitudes.  Pair k contracts input bit k with the four Bell vectors and
    weighs each outcome with the resource's near-block Gram matrix
    (`OfflineResource.near_grams`); one draw per pair, in pair order, as in
    `bell_measure_pairs`, which is the reference for this kernel.  The far
    block is read once, for the output.
    """
    n = resource.n
    resource._check_input(input_state)
    w = input_state.amplitudes
    bits = []
    for gram in resource.near_grams:
        # (4, near bits 0..k, input bits k+1..): input bit k contracted
        c = (_BELL_ROWS @ w.reshape(-1, 2).T).reshape(4, gram.shape[0], -1)
        probs = (c.conj() * (gram @ c)).sum(axis=(1, 2)).real  # c^H G c
        b = _draw(probs, rng)
        bits.append((b & 1, b >> 1))
        w = c[b]
    side = 1 << n
    far = resource.joint_state.amplitudes.reshape(side, side) @ w[:, 0]
    return InstantRunResult(BsmOutcome(tuple(bits)),
                            StateVector(n, far / np.sqrt(probs[b])))


def force_outcome(resource: OfflineResource, input_state: StateVector,
                  outcome: BsmOutcome):
    """Post-select a specific outcome instead of sampling it.

    Returns (probability of that outcome, InstantRunResult).  Exists so tests
    can cover all 4^n outcomes without rejection sampling.
    """
    n = resource.n
    if len(outcome.bits) != n:
        raise ValueError(f"outcome has {len(outcome.bits)} pairs, expected {n}")
    resource._check_input(input_state)
    joint = tensor_product(input_state, resource.joint_state)
    prob, far = project_out(joint, range(2 * n),
                            _pair_outcome_vector(n, outcome.bits))
    return prob, InstantRunResult(outcome, far)


def outcome_distribution(resource: OfflineResource,
                         input_state: StateVector) -> np.ndarray:
    """Exact probability of every outcome, indexed by BsmOutcome.code."""
    n = resource.n
    resource._check_input(input_state)
    joint = tensor_product(input_state, resource.joint_state)
    mat = _targets_to_front(joint, list(range(2 * n)))
    probs = np.empty(4**n)
    for code in range(4**n):
        bits = BsmOutcome.from_code(n, code).bits
        proj = _pair_outcome_vector(n, bits).conj() @ mat
        probs[code] = np.vdot(proj, proj).real
    return probs


def _parity(values: np.ndarray, bits: int) -> np.ndarray:
    """Parity of the low `bits` bits of each entry, by xor folding (numpy's
    bitwise_count needs numpy 2)."""
    shift = 1
    while shift < bits:
        values = values ^ (values >> shift)
        shift <<= 1
    return values & 1


def run_with_corrections(result: InstantRunResult, circuit: Circuit):
    """Repair a non-trivial outcome: un-run the circuit, undo the per-qubit
    Pauli residues, run the circuit again.

    The residues X^x Z^z of CORRECTIONS over all qubits form one signed
    permutation, v'[j] = (-1)^popcount(j & zmask) v[j ^ xmask].
    Returns (corrected output, extra circuit executions = 2).
    """
    n = circuit.num_qubits
    if len(result.outcome.bits) != n:
        raise ValueError(
            f"outcome has {len(result.outcome.bits)} pairs, circuit has {n} qubits")
    xmask = sum(x << i for i, (x, _) in enumerate(result.outcome.bits))
    zmask = sum(z << i for i, (_, z) in enumerate(result.outcome.bits))
    idx = np.arange(1 << n)
    sign = 1 - 2 * _parity(idx & zmask, n)
    # U^dag psi as conj(conj(psi) U): un-runs the circuit without copying U
    unrun = (result.output_state.amplitudes.conj() @ circuit.unitary).conj()
    return StateVector(n, circuit.unitary @ (sign * unrun[idx ^ xmask])), 2


def check_measurement(output: StateVector, correct: StateVector,
                      rng: np.random.Generator):
    """Measure `output` in any orthonormal basis whose first element is `correct`.

    Only "first element or not" matters, and that is Bernoulli(|<correct|output>|²),
    so it is one draw, u < p.  Returns (is_O, probability_O).
    """
    prob = fidelity(output, correct)
    return rng.random() < prob, prob
