#!/usr/bin/env python3
"""Walk through one teleported computation, outcome by outcome.

The protocol: entangle n Bell pairs and run the circuit on the far halves
before the input exists.  When the input shows up, Bell-measure it against
the near halves.  One outcome out of 4^n needs no repair at all; every
other outcome is fixable if you are willing to run the circuit twice more.
"""

import numpy as np

from instaqc import (
    EXTRA_EXECUTIONS_PER_REPAIR,
    StateVector,
    apply_circuit,
    check_measurement,
    fidelity,
    force_outcome,
    outcome_distribution,
    prepare_offline,
    random_circuit,
    run_instantaneous,
    run_with_corrections,
    sample_haar_state,
)

rng = np.random.default_rng(7)

n = 2
circuit = random_circuit(n, depth=3, rng=rng)
psi = sample_haar_state(n, rng)
target = apply_circuit(circuit, psi)


def digits(code: int) -> list[tuple[int, int]]:
    """The (x, z) bits of each pair, read off base-4 digit i = x_i + 2 z_i."""
    return [(code >> (2 * i) & 1, code >> (2 * i + 1) & 1) for i in range(n)]


print(f"n = {n} qubits, circuit depth 3, Haar-random input")
print()

# Everything below this line happens before psi is known.
resource = prepare_offline(circuit)
print(f"offline resource prepared: R[far, near] of shape {resource.matrix.shape} "
      f"({n} near, {n} far qubits, circuit already applied to the far block)")
print()

# The measurement outcome is uniform over all 4^n correction frames.
dist = outcome_distribution(resource, psi)
print(f"outcome distribution: {len(dist)} outcomes, "
      f"max deviation from uniform = {np.abs(dist - 1 / len(dist)).max():.2e}")
print()

# Branch 1: the lucky outcome. The far block already holds U|psi>.
prob, result = force_outcome(resource, psi, 0)
out_fidelity = fidelity(result.output_state, target)
print(f"all-trivial outcome (probability {prob:.4f} = 4^-{n}):")
print(f"  fidelity to U|psi> = {out_fidelity:.15f}, no further work needed")
print()

# Branch 2: every other outcome. The far block holds U applied to a
# Pauli-mangled input; undo U, repair the Paulis, rerun U.
# The repair takes every outcome at once: one row per outcome code.
print("forced sweep over all outcomes, repaired by the correction path:")
outputs = np.array([force_outcome(resource, psi, code)[1]
                    .output_state.amplitudes for code in range(4**n)])
fixed = run_with_corrections(np.arange(4**n), outputs, circuit)
for code in range(4**n):
    # code 0 needs no repair: its row is used as it stands
    row = outputs[code] if code == 0 else fixed[code]
    f = fidelity(StateVector(row), target)
    tag = "free" if code == 0 else f"{EXTRA_EXECUTIONS_PER_REPAIR} extra circuit executions"
    print(f"  outcome {code:2d} {digits(code)} -> fidelity {f:.12f} ({tag})")
print()

# A sampled run, graded the way the game grades it: project onto a basis
# that contains the right answer and see which outcome fires.
result = run_instantaneous(resource, psi, rng)
(is_O,), (prob_O,) = check_measurement(result.output_state.amplitudes[None],
                                       target.amplitudes[None], rng)
print(f"one sampled run: outcome {result.code} {digits(result.code)}, "
      f"success = {result.success}")
print(f"  check measurement: fired correct = {is_O}, "
      f"exact probability of firing correct = {prob_O:.6f}")
