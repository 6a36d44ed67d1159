"""Run-a-circuit-before-its-input protocol.

The register layout is fixed everywhere: [input block | near block | far block]
with n qubits each.  The far block is fed through the circuit ahead of time
while each (near, far) qubit pair sits in a |Φ⁺⟩ Bell state.  When the input
arrives, a Bell-state measurement of each (input_i, near_i) pair either
projects the far block directly onto circuit(input) (the all-trivial outcome)
or leaves a known per-qubit Pauli residue to repair.

A pair's outcome is two bits (x, z): (0,0) = Φ⁺, (1,0) = Ψ⁺, (0,1) = Φ⁻,
(1,1) = Ψ⁻, its row x + 2z in BELL_BASIS.  The outcome of all n pairs is one
integer code, the base-4 number whose digit i (pair 0 least significant) is
pair i's row: code >> 2i & 3.  Code 0 is the all-trivial outcome.  On outcome
(x, z) the far block holds the circuit applied to X^x Z^z of the true input
(per qubit), so the repair after un-running the circuit is: apply X, then Z.
CORRECTIONS below is frozen against an exhaustive single-qubit oracle kept in
the tests.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .circuit import Circuit
from .statevec import (
    X,
    Z,
    GateMatrix,
    StateVector,
    _check_indices,
    _check_outcome_probability,
    _check_rows,
    _check_size,
    _draw_rows,
    _fidelities,
    _haar_rows,
    _targets_to_front,
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

# Repairing a non-trivial outcome un-runs the circuit and runs it again.
EXTRA_EXECUTIONS_PER_REPAIR = 2


@dataclass(frozen=True, eq=False)
class OfflineResource:
    """The offline state as R[far, near], a read-only 2^n x 2^n matrix.  For a
    circuit U run on the far halves of n Bell pairs, R = U 2^(-n/2), U's Choi state."""

    matrix: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.matrix)
        n = shape[0].bit_length() - 1 if shape else 0
        if n < 1 or shape != (1 << n, 1 << n):
            raise ValueError(f"need a 2**n x 2**n matrix, n >= 1; got shape {shape}")
        _check_size(2 * n)
        mat = np.array(self.matrix, dtype=complex)
        _check_rows(mat.reshape(1, -1))  # R's entries are a 2n-qubit state
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self) -> int:
        """Pairs held: the near and far blocks are n qubits each."""
        return self.matrix.shape[0].bit_length() - 1

    def _check_input(self, state: StateVector) -> None:
        if state.num_qubits != self.n:
            raise ValueError(
                f"input has {state.num_qubits} qubits, resource expects {self.n}")

    @property
    def joint_state(self) -> StateVector:
        """The 2n-qubit register: amplitude near | far << n is R[far, near]."""
        return StateVector(self.matrix.reshape(-1))

    @cached_property
    def near_grams(self) -> tuple[np.ndarray, ...]:
        """Read-only Gram matrices of the near block, built on first access.

        With R = `matrix` and M = R^H R, entry k is M traced over near bits
        k+1..n-1, a 2^(k+1) x 2^(k+1) matrix indexed little-endian by near
        bits 0..k; the last entry is M itself.  Once pairs 0..k are measured,
        each outcome's probability is a quadratic form in these, so the Bell
        step never touches the far block.
        """
        grams = [self.matrix.conj().T @ self.matrix]
        while grams[0].shape[0] > 2:
            half = grams[0].shape[0] // 2
            grams.insert(0, grams[0][:half, :half] + grams[0][half:, half:])
        for gram in grams:
            gram.setflags(write=False)
        return tuple(grams)


@dataclass(frozen=True, eq=False)
class InstantRunResult:
    code: int
    output_state: StateVector

    @property
    def success(self) -> bool:
        """The output is ready as it stands: every pair read Φ⁺."""
        return self.code == 0


def prepare_offline(circuit: Circuit) -> OfflineResource:
    """The circuit run on the far halves of fresh Bell pairs: R = U 2^(-n/2)."""
    return OfflineResource(circuit.unitary * 2.0 ** (-circuit.num_qubits / 2))


def _pair_outcome_vector(n: int, code: int) -> np.ndarray:
    """Product of the Bell vectors that `code` names, as one vector on the 2n
    measured qubits (targets ordered 0..2n-1, pair i on bits (i, n+i))."""
    idx = np.arange(1 << (2 * n))
    v = np.ones(1 << (2 * n), dtype=complex)
    for i in range(n):
        sub = ((idx >> i) & 1) | (((idx >> (n + i)) & 1) << 1)
        v *= BELL_BASIS[code >> (2 * i) & 3][sub]
    return v


def bell_measure_pairs(joint: StateVector, rng: np.random.Generator):
    """Measure each (input_i, near_i) pair in the Bell basis, pair 0 first.

    `joint` must hold 3n qubits laid out [input | near | far].  Each pair is
    contracted with the four Bell vectors out of what is left, takes one
    one-row `_draw_rows` call with its uniform from one rng.random(n), and
    keeps the chosen slice renormalized, so the register loses two qubits per
    pair.  Returns the outcome code and the renormalized n-qubit far-block
    state.
    """
    if joint.num_qubits % 3 != 0:
        raise ValueError(f"{joint.num_qubits} qubits does not split into 3 blocks")
    n = joint.num_qubits // 3
    state = joint.amplitudes.reshape(1 << n, 1 << n, 1 << n)  # (far, near, input)
    uniforms = rng.random(n)
    code = 0
    for k in range(n):
        far, near, inp = state.shape
        split = state.reshape(far, near // 2, 2, inp // 2, 2)
        # (4, far, near/2, input/2): the lowest (near, input) pair contracted
        proj = np.tensordot(_BELL_CONJ, split, axes=([1, 2], [2, 4]))
        flat = proj.reshape(4, -1).view(float)  # (re, im) interleaved
        probs = np.einsum("ij,ij->i", flat, flat)
        b = int(_draw_rows(probs[np.newaxis], uniforms[k:k + 1])[0])
        code |= b << (2 * k)
        state = proj[b] / np.sqrt(probs[b])
    return code, StateVector(state.reshape(-1))


def _bell_rows(resource: OfflineResource, inputs: np.ndarray,
               rng: np.random.Generator):
    """Bell-measure each row of a (B, 2^n) array of inputs against the resource.

    Input and resource are in product, so a row carries only w[near bits
    measured so far, input bits not yet measured], 2^n amplitudes.  Pair k
    contracts input bit k with the four Bell vectors and weighs each outcome
    c with c^H G_k c, G_k the resource's near-block Gram matrix
    (`OfflineResource.near_grams`); the far block is read once, for the
    outputs.  Draws rng.random((B, n)) first, row t's uniforms in pair order,
    so a chunk of B rows gives what B one-row calls on the same seed would.
    Each step is one 2-D matmul or elementwise pass over the chunk.
    `bell_measure_pairs` is the reference for this kernel.  Returns (outcome
    codes, (B, 2^n) normalized output rows).
    """
    rows = len(inputs)
    uniforms = rng.random((rows, resource.n))
    picked = np.arange(rows)
    codes = np.zeros(rows, dtype=np.int64)
    w = inputs  # per row: [near bits measured so far | input bits left], input lowest
    for k, gram in enumerate(resource.near_grams):
        m = gram.shape[0]
        # (row, near bits 0..k-1, input bits k+1.., outcome, near bit k)
        c = (w.reshape(-1, 2) @ _BELL_ROWS.T).reshape(rows, m // 2, -1, 4, 2)
        # near bits 0..k last, little-endian as G_k indexes them
        near = c.transpose(0, 3, 2, 4, 1).reshape(-1, m)
        gc = near @ gram.T  # (G_k c)^T = c^T G_k^T, every (row, outcome, rest) at once
        # Re(c^H G c) as a dot of (re, im) interleaved views
        probs = np.einsum("tbi,tbi->tb", near.reshape(rows, 4, -1).view(float),
                          gc.reshape(rows, 4, -1).view(float))
        del near, gc  # freed before the pick below and the next pair's arrays
        b = _draw_rows(probs, uniforms[:, k])
        codes |= b << (2 * k)
        w = c[picked, :, :, b].transpose(0, 3, 1, 2)  # near bit k on top
    far = w.reshape(rows, -1) @ resource.matrix.T
    return codes, far / np.sqrt(probs[picked, b])[:, None]


def run_instantaneous(resource: OfflineResource, input_state: StateVector,
                      rng: np.random.Generator) -> InstantRunResult:
    """One protocol attempt: `_bell_rows` on the input as a single row."""
    resource._check_input(input_state)
    codes, outputs = _bell_rows(resource, input_state.amplitudes[np.newaxis], rng)
    return InstantRunResult(int(codes[0]), StateVector(outputs[0]))


def force_outcome(resource: OfflineResource, input_state: StateVector, code: int):
    """Post-select the outcome `code` instead of sampling it.

    Returns (probability of that outcome, InstantRunResult).  Exists so tests
    can cover all 4^n outcomes without rejection sampling.
    """
    n = resource.n
    _check_indices("outcome code", np.asarray(code), 4**n)
    resource._check_input(input_state)
    joint = tensor_product(input_state, resource.joint_state)
    prob, far = project_out(joint, range(2 * n), _pair_outcome_vector(n, code))
    return prob, InstantRunResult(code, far)


def outcome_distribution(resource: OfflineResource,
                         input_state: StateVector) -> np.ndarray:
    """Exact probability of every outcome, indexed by its code."""
    n = resource.n
    resource._check_input(input_state)
    joint = tensor_product(input_state, resource.joint_state)
    mat = _targets_to_front(joint, list(range(2 * n)))
    probs = np.empty(4**n)
    for code in range(4**n):
        proj = _pair_outcome_vector(n, code).conj() @ mat
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


def run_with_corrections(codes: np.ndarray, outputs: np.ndarray, circuit: Circuit):
    """Repair every row of a (B, 2^n) array of outputs, row t read with the
    outcome code codes[t]: un-run the circuit, undo the per-qubit Pauli
    residues, run the circuit again.

    The residues X^x Z^z of CORRECTIONS over all qubits form one signed
    permutation, v'[j] = (-1)^popcount(j & zmask) v[j ^ xmask], gathered
    row-wise.  Rows are multiplied from the right: v U^* un-runs, v U^T runs.
    Code 0 repairs to the output itself.  Returns the (B, 2^n) corrected
    rows; each repaired row costs EXTRA_EXECUTIONS_PER_REPAIR circuit runs.
    """
    n = circuit.num_qubits
    _check_rows(outputs, 1 << n)
    codes = np.asarray(codes)
    if codes.shape != (len(outputs),):
        raise ValueError(f"row counts differ: {codes.shape} codes, "
                         f"{len(outputs)} output rows")
    _check_indices("outcome codes", codes, 4**n)
    xmask = np.zeros_like(codes)
    zmask = np.zeros_like(codes)
    for i in range(n):
        xmask |= (codes >> (2 * i) & 1) << i
        zmask |= (codes >> (2 * i + 1) & 1) << i
    idx = np.arange(1 << n)
    unrun = outputs @ circuit.unitary.conj()
    fixed = np.take_along_axis(unrun, idx ^ xmask[:, np.newaxis], axis=1)
    fixed *= 1 - 2 * _parity(idx & zmask[:, np.newaxis], n)
    return fixed @ circuit.unitary.T


# Teleport trials per chunk: about 256 KiB at 160 B per amplitude (204 rows at
# n = 3, 51 at n = 5, 6 at n = 8), half the game's; n = 1 and 2 keep 128 KiB
# (409 and 204 rows).  Seeded reports do not depend on it, so it is a speed
# constant: a chunk costs a few dozen numpy calls whatever its size.  On a
# 2-vCPU x86 VM, perfbench `teleport-wide` (n = 5) ran 16% more trials/s with
# 256 KiB chunks than the one-stream code did with 128 KiB (10 of 10 pairs,
# peak RSS +1.0%); 512 KiB was no faster than 256 KiB (2 of 4 pairs) and
# added another 1.7% of peak RSS.
# n <= 2 gains ~10% at 256 KiB too, but that puts `teleport-repair`'s main()
# under 4 ms, where perfbench's run.py often loses the child's result
# (ROADMAP item 1); move n <= 2 to 256 KiB once that is mended.
_TELEPORT_CHUNK_BYTES = 256 << 10


def _chunk_rows(n: int, budget: int) -> int:
    """Rows of a chunk of n-qubit trials that fits `budget` bytes."""
    return max(1, budget // (160 << n))


def _teleport_chunk_rows(n: int) -> int:
    """Rows of a `run_trials` chunk at n qubits (see `_TELEPORT_CHUNK_BYTES`)."""
    budget = _TELEPORT_CHUNK_BYTES if n > 2 else _TELEPORT_CHUNK_BYTES // 2
    return _chunk_rows(n, budget)


def _mean_and_min(fids: list[np.ndarray]):
    """(mean, min) of the fidelities of several chunks; (None, None) for none."""
    fids = np.concatenate(fids)
    return (float(fids.mean()), float(fids.min())) if len(fids) else (None, None)


@dataclass(frozen=True)
class RepairSummary:
    """The repair of a run's non-trivial outcomes: rows repaired, the extra
    circuit executions each cost, and the repaired rows' fidelities."""

    runs: int
    extra_executions_per_run: int
    mean_fidelity: float | None
    min_fidelity: float | None


@dataclass(frozen=True, eq=False)
class TeleportReport:
    """Outcome histogram and fidelity summaries of a run of protocol trials;
    n, the counts and the rates are derived from the histogram.

    `histogram[code]` counts the trials that read outcome `code`, 4^n
    entries.  Fidelities are against the circuit's output on each trial's
    input; a summary is None when no trial fell in its branch.  `corrections`
    is None unless the run repaired its non-trivial outcomes.
    """

    histogram: np.ndarray
    mean_success_fidelity: float | None
    min_success_fidelity: float | None
    corrections: RepairSummary | None

    @property
    def n(self) -> int:
        """Pairs measured: the histogram has 4^n entries."""
        return (len(self.histogram).bit_length() - 1) // 2

    @property
    def trials(self) -> int:
        return int(self.histogram.sum())

    @property
    def success_count(self) -> int:
        """Trials that read the all-trivial outcome, code 0."""
        return int(self.histogram[0])

    @property
    def success_rate(self) -> float:
        return self.success_count / self.trials

    @property
    def expected_success_rate(self) -> float:
        return 4.0**-self.n


def teleport_report_to_dict(report: TeleportReport) -> dict:
    """The report as one JSON document: the scalar summary first (the CLI's
    CSV row), then the nonzero histogram entries and any repair block."""
    doc = {
        "n": report.n,
        "trials": report.trials,
        "success_count": report.success_count,
        "success_rate": report.success_rate,
        "expected_success_rate": report.expected_success_rate,
        "mean_success_fidelity": report.mean_success_fidelity,
        "min_success_fidelity": report.min_success_fidelity,
        "outcome_histogram": {str(code): int(report.histogram[code])
                              for code in np.flatnonzero(report.histogram)},
    }
    if report.corrections is not None:
        doc["corrections"] = asdict(report.corrections)
    return doc


def run_trials(circuit: Circuit, trials: int, rng: np.random.Generator,
               corrections: bool = False) -> TeleportReport:
    """Play `trials` protocol attempts against `prepare_offline(circuit)`,
    each on a Haar-random input, and repair every non-trivial outcome if
    `corrections`.

    The inputs and the Bell uniforms come from two streams spawned from
    `rng`, each drawn row by row, so the report does not depend on how the
    trials are split: trials are played in chunks of `_teleport_chunk_rows(n)`
    rows for speed alone.  Per chunk: the Haar inputs as one array, one
    `_bell_rows` call for the Bell step, then the histogram, the targets
    `inputs @ U.T`, the success fidelities and the repair of every
    non-trivial row as row-wise passes over the chunk.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    n = circuit.num_qubits
    resource = prepare_offline(circuit)
    chunk = _teleport_chunk_rows(n)
    input_rng, bell_rng = rng.spawn(2)

    histogram = np.zeros(4**n, dtype=np.int64)
    success_fids, corrected_fids = [], []
    for start in range(0, trials, chunk):
        inputs = _haar_rows(n, min(chunk, trials - start), input_rng)
        codes, outputs = _bell_rows(resource, inputs, bell_rng)
        histogram += np.bincount(codes, minlength=4**n)
        targets = inputs @ circuit.unitary.T
        ok = codes == 0
        success_fids.append(_fidelities(outputs[ok], targets[ok]))
        if corrections:
            corrected = run_with_corrections(codes[~ok], outputs[~ok], circuit)
            corrected_fids.append(_fidelities(corrected, targets[~ok]))
    repair = None
    if corrections:
        repair = RepairSummary(sum(map(len, corrected_fids)), EXTRA_EXECUTIONS_PER_REPAIR,
                               *_mean_and_min(corrected_fids))
    return TeleportReport(histogram, *_mean_and_min(success_fids), repair)


def check_measurement(outputs: np.ndarray, corrects: np.ndarray,
                      rng: np.random.Generator):
    """Measure each row of `outputs` in any orthonormal basis whose first
    element is the matching row of `corrects`, both (B, 2^n) arrays.

    Only "first element or not" matters, and that is Bernoulli(|<correct|output>|²),
    so each row is one draw, u < p, from one rng.random(B) (for B = 1 the
    same value as rng.random()).  Returns (is_O, probability_O), one entry per row.
    Raises, before drawing, on a probability that is NaN or above 1 + NORM_TOL.
    """
    if outputs.ndim != 2 or outputs.shape != corrects.shape:
        raise ValueError(f"need two (rows, 2**n) arrays, equal in qubit counts and "
                         f"row counts; got shapes {outputs.shape} and {corrects.shape}")
    prob = _fidelities(outputs, corrects)  # row t is fidelity(output_t, correct_t)
    _check_outcome_probability(prob, low=0.0)
    return rng.random(len(prob)) < prob, prob
