"""Dense complex state-vector core: states, gates, projective measurement, sampling.

Index conventions, fixed for the whole package:
  - Qubit q is bit q of the basis-state index (little-endian: qubit 0 is the
    least-significant bit).  Applying X to qubit q of |0...0> yields basis
    index 2**q.
  - Gate matrices and measurement-basis vectors index their small space the
    same way: targets[j] is bit j of the row/column index.  The CNOT constant
    below is written for targets=(control, target) under this convention.

States are immutable after construction; every operation returns a new
StateVector.  Random choices always come from an explicit numpy Generator.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-9
UNITARY_TOL = 1e-9
# The register limit: the 2^n x 2^n resource to n = 8, 3n-qubit references to n = 5.
MAX_QUBITS = 16
# The gate limit of a generated circuit.  Every gate keeps its own matrix, a
# GateMatrix and its targets, ~1 KiB of RSS each, so an unchecked --depth
# grows without bound; 2^12 gates add ~4 MiB, a few times the 1 MiB resource
# at n = 8 (where compiling them already takes ~4 s).
MAX_GATES = 1 << 12

# Gram-Schmidt completion drops a candidate whose overlap with the span built
# so far exceeds 1 - 1e-6, i.e. whose residual squared norm is below this.
_GS_RESIDUAL_MIN = 1e-6

# A projection whose outcome probability is below this is refused rather
# than renormalized by a near-zero norm.
_OUTCOME_PROB_MIN = 1e-12

_SQRT2_INV = 1.0 / np.sqrt(2.0)


def _check_size(num_qubits: int) -> None:
    """Reject a register over MAX_QUBITS before its amplitudes are allocated."""
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"{num_qubits} qubits exceeds limit {MAX_QUBITS}")


def _unitarity_error(mat: np.ndarray) -> float:
    """max |MM^dag - I|, or inf on a non-finite entry (checked first: no warning)."""
    if not np.isfinite(mat).all():
        return np.inf
    return float(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0])).max())


def _check_rows(rows, width: int | None = None) -> None:
    """Raise unless `rows` is a (B, 2^n) array, n >= 1 (2^n = `width` if given), of
    rows normalized within NORM_TOL; NaN and inf fail, and einsum raises no FP warning."""
    shape = np.shape(rows)
    dim = shape[-1] if len(shape) == 2 else 0
    if dim < 2 or dim & (dim - 1) or width not in (None, dim):
        raise ValueError(f"need (rows, {width or '2**n'}) amplitudes, n >= 1; got {shape}")
    re, im = np.real(rows), np.imag(rows)
    norm_sq = np.einsum("ti,ti->t", re, re) + np.einsum("ti,ti->t", im, im)
    bad = np.flatnonzero(~(np.abs(norm_sq - 1.0) <= NORM_TOL))
    if bad.size:
        raise ValueError(f"row {bad[0]} not normalized or not finite: "
                         f"sum |a|^2 = {norm_sq[bad[0]]:.17g}")


def _check_indices(name: str, index: np.ndarray, bound: int) -> None:
    """Raise unless `index` is integer-typed (bool is not) with entries in [0, bound)."""
    if index.dtype.kind not in "iu":  # bool is kind "b"
        raise ValueError(f"{name} must be integers, got dtype {index.dtype}")
    if index.size and not 0 <= index.min() <= index.max() < bound:
        raise ValueError(f"{name} out of range [0, {bound})")


# eq=False on array-holding dataclasses: generated field equality would try
# to bool() an elementwise array comparison.  Compare states via fidelity().
@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitudes over 2**num_qubits little-endian basis states."""

    amplitudes: np.ndarray
    num_qubits: int = field(init=False)

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        _check_rows(amps[np.newaxis])  # a state is one row
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", amps.size.bit_length() - 1)


@dataclass(frozen=True, eq=False)
class GateMatrix:
    """Unitary on 1 or 2 qubits, 2x2 or 4x4; `name` is kept only for serialization."""

    entries: np.ndarray
    name: str | None = None
    arity: int = field(init=False)

    def __post_init__(self):
        mat = np.array(self.entries, dtype=complex)
        if mat.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"gate matrix must be 2x2 or 4x4, got shape {mat.shape}")
        err = _unitarity_error(mat)
        if not err <= UNITARY_TOL:
            raise ValueError(f"matrix not unitary: max |MM^dag - I| = {err:g}")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "arity", mat.shape[0] // 2)


H = GateMatrix(np.array([[1, 1], [1, -1]]) * _SQRT2_INV, name="H")
X = GateMatrix(np.array([[0, 1], [1, 0]]), name="X")
Y = GateMatrix(np.array([[0, -1j], [1j, 0]]), name="Y")
Z = GateMatrix(np.array([[1, 0], [0, -1]]), name="Z")
S = GateMatrix(np.array([[1, 0], [0, 1j]]), name="S")
T = GateMatrix(np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]]), name="T")
# Little-endian CNOT for targets=(control, target): flips bit 1 when bit 0 is set.
CNOT = GateMatrix(
    np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]), name="CNOT")

NAMED_GATES = {g.name: g for g in (H, X, Y, Z, S, T, CNOT)}


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on num_qubits qubits."""
    dim = 1 << num_qubits
    _check_indices("basis index", np.asarray(index), dim)
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Combined state with `a` on the lower-indexed qubits, `b` above it."""
    _check_size(a.num_qubits + b.num_qubits)
    return StateVector(np.kron(b.amplitudes, a.amplitudes))


def _check_targets(num_qubits: int, targets) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits: {targets}")
    for t in targets:
        if not 0 <= t < num_qubits:
            raise ValueError(f"target qubit {t} out of range for {num_qubits} qubits")


def _check_gate_targets(num_qubits: int, gate: GateMatrix, targets) -> tuple[int, ...]:
    """`targets` as a tuple, checked against the gate's arity and the register."""
    targets = tuple(targets)
    if len(targets) != gate.arity:
        raise ValueError(f"gate of arity {gate.arity} got targets {targets}")
    _check_targets(num_qubits, targets)
    return targets


def _targets_to_front(state: StateVector, targets: list[int]) -> np.ndarray:
    """Reshape amplitudes to (2**k, rest) with the combined row index
    little-endian over `targets`; remaining qubits keep their relative order."""
    n, k = state.num_qubits, len(targets)
    src = [n - 1 - t for t in reversed(targets)]
    moved = np.moveaxis(state.amplitudes.reshape([2] * n), src, range(k))
    return moved.reshape(1 << k, -1)


def _apply_gate_batch(states: np.ndarray, n: int, gate: GateMatrix, targets) -> np.ndarray:
    """Apply `gate` to every row of a (batch, 2**n) amplitude array.

    Unchecked: targets must already be valid.  One moveaxis brings the target
    axes next to the batch axis, one matmul applies the gate to all rows.
    """
    k = gate.arity
    src = [n - t for t in reversed(targets)]  # axis 0 is the batch
    psi = np.moveaxis(states.reshape([-1] + [2] * n), src, range(1, k + 1))
    shape = psi.shape
    out = (gate.entries @ psi.reshape(shape[0], 1 << k, -1)).reshape(shape)
    return np.moveaxis(out, range(1, k + 1), src).reshape(states.shape)


def apply_gate(state: StateVector, gate: GateMatrix, targets) -> StateVector:
    """Apply `gate` to the target qubits, identity on the rest."""
    n = state.num_qubits
    targets = _check_gate_targets(n, gate, targets)
    out = _apply_gate_batch(state.amplitudes[np.newaxis], n, gate, targets)
    return StateVector(out[0])


def _validated_basis(basis, k: int) -> np.ndarray:
    mat = np.asarray(basis, dtype=complex)
    dim = 1 << k
    if mat.shape != (dim, dim):
        raise ValueError(f"expected {dim} basis vectors of length {dim}, got shape {mat.shape}")
    err = _unitarity_error(mat)
    if not err <= NORM_TOL:
        raise ValueError(f"basis not orthonormal: max deviation {err:g}")
    return mat


def outcome_probabilities(state: StateVector, targets, basis) -> np.ndarray:
    """Exact probabilities of measuring `targets` in the given orthonormal basis.

    `basis` is an array whose rows are the 2**k basis vectors, indexed
    little-endian over the targets list.
    """
    targets = list(targets)
    _check_targets(state.num_qubits, targets)
    mat = _validated_basis(basis, len(targets))
    proj = mat.conj() @ _targets_to_front(state, targets)
    return (np.abs(proj) ** 2).sum(axis=1)


def _draw_rows(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Sample an outcome index from each row of a (B, k) array of
    unnormalized probabilities, row t with uniform uniforms[t].

    The one sampling rule of the package: the first index whose normalized
    cumulative probability exceeds u, else the last, i.e. the count of
    cumulative values <= u, at most k - 1.  Two outcomes [p, 1 - p] sum to
    exactly 1 in floating point, so there it is u < p.  Each row's total is
    numpy's (pairwise from 8 terms) and np.cumsum adds left to right.  A
    single draw is a one-row call: rng.random(1) holds the value rng.random()
    would draw.
    """
    cum = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
    return np.minimum((cum <= uniforms[:, np.newaxis]).sum(axis=1), probs.shape[1] - 1)


def measure_in_basis(state: StateVector, targets, basis, rng: np.random.Generator):
    """Projectively measure `targets` in an orthonormal basis.

    Returns (outcome_index, pre-measurement probability of that outcome,
    collapsed full-register state).
    """
    targets = list(targets)
    n, k = state.num_qubits, len(targets)
    _check_targets(n, targets)
    mat = _validated_basis(basis, k)

    psi = _targets_to_front(state, targets)
    proj = mat.conj() @ psi
    probs = (np.abs(proj) ** 2).sum(axis=1)
    outcome = int(_draw_rows(probs[np.newaxis], rng.random(1))[0])

    rest = proj[outcome] / np.sqrt(probs[outcome])
    collapsed = np.outer(mat[outcome], rest)
    src = [n - 1 - t for t in reversed(targets)]
    collapsed = np.moveaxis(collapsed.reshape([2] * n), range(k), src).reshape(-1)
    return outcome, float(probs[outcome]), StateVector(collapsed)


def project_out(state: StateVector, targets, vector):
    """Project `targets` onto the normalized `vector` and drop them from the register.

    Returns (probability of the projection, renormalized state of the
    remaining qubits, which keep their relative order).
    """
    targets = list(targets)
    n, k = state.num_qubits, len(targets)
    _check_targets(n, targets)
    if k >= n:
        raise ValueError("projection must leave at least one qubit")
    vec = np.asarray(vector, dtype=complex)
    _check_rows(vec[np.newaxis], 1 << k)  # a state of the projected qubits
    reduced = vec.conj() @ _targets_to_front(state, targets)
    prob = float(np.vdot(reduced, reduced).real)
    _check_outcome_probability(prob)
    return prob, StateVector(reduced / np.sqrt(prob))


def _check_outcome_probability(prob, low: float = _OUTCOME_PROB_MIN) -> None:
    """Raise unless the outcome probability, or each of an array of them, lies in
    [low, 1 + NORM_TOL]; the test is negated, so a NaN probability fails it."""
    if not np.all((prob >= low) & (prob <= 1.0 + NORM_TOL)):
        raise ValueError("measurement outcome has NaN, above-1 or (near-)zero probability")


def _fidelities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|<a|b>|^2 along the last axis, unclipped, so a row that is not normalized
    shows: one value for two vectors, one per row for two (B, 2^n) arrays."""
    return np.abs(np.einsum("...i,...i->...", a.conj(), b)) ** 2


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, invariant under global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}")
    return float(_fidelities(a.amplitudes, b.amplitudes))


def sample_haar_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state: one row of `_haar_rows`."""
    return StateVector(_haar_rows(num_qubits, 1, rng)[0])


def _haar_rows(num_qubits: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """`rows` Haar-random states as the rows of a (rows, 2**n) array: iid
    complex Gaussians, normalized row-wise.  The draws come row by row, each
    amplitude's real and imaginary parts together, so `rows` = a + b gives
    the rows of an a-row call and then a b-row call on the same generator."""
    _check_size(num_qubits)
    z = rng.standard_normal((rows, 1 << num_qubits, 2)).view(complex)[..., 0]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def orthonormal_basis_containing(first) -> np.ndarray:
    """Orthonormal basis (rows) whose row 0 is `first`.

    Completed by Gram-Schmidt over the computational basis vectors in index
    order, skipping candidates nearly parallel to the span built so far.
    Deterministic for a given input vector.
    """
    vec = np.asarray(first, dtype=complex)
    if not np.isfinite(vec).all():
        raise ValueError("basis vector has non-finite entries")
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("basis vector is zero")
    d = vec.shape[0]
    rows = np.empty((d, d), dtype=complex)
    rows[0] = vec / norm
    m = 1
    for j in range(d):
        if m == d:
            break
        # candidate e_j: its overlap with the rows built so far is column j
        coeffs = rows[:m, j].conj()
        w = -(coeffs @ rows[:m])
        w[j] += 1.0
        norm_sq = float(np.vdot(w, w).real)
        if norm_sq > _GS_RESIDUAL_MIN:
            rows[m] = w / np.sqrt(norm_sq)
            m += 1
    if m != d:
        # d candidates each within 1e-6 of an (m < d)-dim span is impossible
        # unless d > 1e6; out of range for the qubit counts this package allows.
        raise ValueError("could not complete an orthonormal basis")
    return rows
