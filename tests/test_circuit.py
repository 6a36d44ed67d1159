"""Circuit application, inversion, random generation, and JSON round trips."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import unitary_group

from instaqc.circuit import (
    Circuit,
    apply_circuit,
    circuit_from_dict,
    circuit_to_dict,
    inverse,
    load_circuit,
    random_circuit,
    save_circuit,
)
from instaqc.statevec import (
    CNOT,
    H,
    MAX_GATES,
    NAMED_GATES,
    S,
    T,
    X,
    GateMatrix,
    basis_state,
    fidelity,
    sample_haar_state,
)


def test_empty_circuit_is_identity():
    rng = np.random.default_rng(0)
    psi = sample_haar_state(2, rng)
    assert fidelity(apply_circuit(Circuit(2), psi), psi) > 1 - 1e-12


def test_h_cnot_builds_bell_state():
    circ = Circuit(2, ((H, (0,)), (CNOT, (0, 1))))
    out = apply_circuit(circ, basis_state(2, 0))
    assert np.allclose(out.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_apply_circuit_rejects_a_state_of_another_size():
    circ = Circuit(2, ((CNOT, (0, 1)),))
    for n in (1, 3):
        with pytest.raises(ValueError, match=f"got a state of {n} qubits"):
            apply_circuit(circ, basis_state(n, 0))


def test_circuit_validates_targets():
    with pytest.raises(ValueError, match="out of range"):
        Circuit(1, ((CNOT, (0, 1)),))
    with pytest.raises(ValueError, match="arity"):
        Circuit(2, ((X, (0, 1)),))


def test_circuit_rejects_duplicate_targets_at_construction():
    with pytest.raises(ValueError, match="duplicate"):
        Circuit(2, ((CNOT, (0, 0)),))


def test_inverse_of_self_inverse_gates():
    circ = Circuit(2, ((H, (0,)), (CNOT, (0, 1))))
    inv = inverse(circ)
    assert [g.name for g, _ in inv.gates] == ["CNOT", "H"]
    assert [t for _, t in inv.gates] == [(0, 1), (0,)]


def test_inverse_names_only_self_adjoint_gates():
    circ = Circuit(1, ((S, (0,)), (X, (0,)), (T, (0,))))
    inv = inverse(circ)
    assert [g.name for g, _ in inv.gates] == [None, "X", None]
    for (gate, _), (orig, _) in zip(inv.gates, reversed(circ.gates)):
        assert np.array_equal(gate.entries, orig.entries.conj().T)


def test_inverse_round_trip_on_random_states():
    rng = np.random.default_rng(1)
    circ = random_circuit(3, 4, rng)
    inv = inverse(circ)
    for _ in range(50):
        psi = sample_haar_state(3, rng)
        back = apply_circuit(inv, apply_circuit(circ, psi))
        assert fidelity(back, psi) > 1 - 1e-9


def test_inverse_is_involution():
    rng = np.random.default_rng(2)
    circ = random_circuit(3, 3, rng)
    twice = inverse(inverse(circ))
    for _ in range(50):
        psi = sample_haar_state(3, rng)
        assert fidelity(apply_circuit(twice, psi), apply_circuit(circ, psi)) > 1 - 1e-9


def test_random_circuit_depth_zero_is_empty():
    rng = np.random.default_rng(3)
    assert len(random_circuit(2, 0, rng)) == 0


def test_random_circuit_layer_shape():
    rng = np.random.default_rng(4)
    circ = random_circuit(3, 5, rng)
    # each layer: one single-qubit gate per qubit plus one CNOT
    assert len(circ) == 5 * 4
    for gate, targets in circ.gates:
        assert all(0 <= t < 3 for t in targets)
    cnots = [t for g, t in circ.gates if g.arity == 2]
    assert len(cnots) == 5
    assert all(t[0] != t[1] for t in cnots)


def test_random_circuit_single_qubit_has_no_cnot():
    rng = np.random.default_rng(5)
    circ = random_circuit(1, 4, rng)
    assert len(circ) == 4
    assert all(g.arity == 1 for g, _ in circ.gates)


def test_random_circuit_deterministic_under_seed():
    a = random_circuit(3, 4, np.random.default_rng(42))
    b = random_circuit(3, 4, np.random.default_rng(42))
    assert len(a) == len(b)
    for (ga, ta), (gb, tb) in zip(a.gates, b.gates):
        assert ta == tb
        assert np.array_equal(ga.entries, gb.entries)


def test_random_circuit_gates_match_scipy_haar_bitwise():
    # random_circuit draws each 2x2 gate with scipy's unitary_group recipe,
    # reimplemented in numpy (one normal draw per layer, then one stacked QR
    # over every layer's gates) so the package does not import scipy
    for n in (1, 2, 3, 5, 8):
        layer = n + (n >= 2)  # n gates, then a CNOT when there is a pair
        for seed in range(20):
            circ = random_circuit(n, 4, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            for first in range(0, 4 * layer, layer):
                for qubit in range(n):
                    gate, targets = circ.gates[first + qubit]
                    assert targets == (qubit,)
                    assert np.array_equal(gate.entries,
                                          unitary_group.rvs(2, random_state=rng))
                if n >= 2:
                    assert circ.gates[first + n][0] is CNOT
                    control, target = rng.choice(n, size=2, replace=False)
                    assert circ.gates[first + n][1] == (control, target)


@pytest.mark.parametrize("n, depth", [(1, 0), (3, 0), (1, 4), (3, 4)])
def test_random_circuit_draws_layer_by_layer(n, depth):
    """Each layer draws its gates' normals, then its CNOT pair, and nothing
    else is drawn: the generator ends where those draws leave it."""
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    random_circuit(n, depth, rng)
    for _ in range(depth):
        ref.normal(size=(n, 2, 2, 2))
        if n >= 2:
            ref.choice(n, size=2, replace=False)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_random_circuit_norm_preserving():
    rng = np.random.default_rng(6)
    circ = random_circuit(4, 3, rng)
    psi = sample_haar_state(4, rng)
    out = apply_circuit(circ, psi)
    assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) < 1e-12


def test_random_circuit_negative_depth():
    with pytest.raises(ValueError, match="depth"):
        random_circuit(2, -1, np.random.default_rng(7))


@pytest.mark.parametrize("n, per_layer", [(1, 1), (3, 4)])
def test_random_circuit_gate_limit(n, per_layer):
    """n gates a layer, plus one CNOT from n = 2: the depth that makes
    MAX_GATES gates is built, one layer more is refused before any draw."""
    limit = MAX_GATES // per_layer
    assert len(random_circuit(n, limit, np.random.default_rng(8))) == MAX_GATES
    rng = np.random.default_rng(8)
    for depth in (limit + 1, 10**12):
        with pytest.raises(ValueError, match=f"depth {depth} at n = {n} makes"):
            random_circuit(n, depth, rng)
    assert rng.random() == np.random.default_rng(8).random()


def test_json_gate_count_limit():
    """MAX_GATES gates load; one more is refused before any gate is built,
    so even entries that are not gates get the count error."""
    doc = {"num_qubits": 1, "gates": [{"name": "H", "targets": [0]}] * MAX_GATES}
    assert len(circuit_from_dict(doc)) == MAX_GATES
    for gates in (doc["gates"] + doc["gates"][:1], [None] * (MAX_GATES + 1)):
        with pytest.raises(ValueError, match=f"gates holds {MAX_GATES + 1} entries, "
                                             f"over the limit {MAX_GATES}"):
            circuit_from_dict({"num_qubits": 1, "gates": gates})


def test_circuit_unitary_matches_kron():
    circ = Circuit(2, ((H, (0,)),))
    assert np.allclose(circ.unitary, np.kron(np.eye(2), H.entries))


def test_json_round_trip_named_gates():
    circ = Circuit(2, ((H, (0,)), (CNOT, (0, 1)), (X, (1,))))
    doc = circuit_to_dict(circ)
    assert doc == {"num_qubits": 2, "gates": [
        {"name": "H", "targets": [0]},
        {"name": "CNOT", "targets": [0, 1]},
        {"name": "X", "targets": [1]},
    ]}
    back = circuit_from_dict(doc)
    assert [g.name for g, _ in back.gates] == ["H", "CNOT", "X"]


def test_json_round_trip_matrix_fallback():
    rng = np.random.default_rng(8)
    u = GateMatrix(unitary_group.rvs(2, random_state=rng))
    circ = Circuit(1, ((u, (0,)),))
    doc = circuit_to_dict(circ)
    assert "matrix" in doc["gates"][0]
    entry = doc["gates"][0]["matrix"]
    assert len(entry) == 2 and len(entry[0]) == 2 and len(entry[0][0]) == 2
    back = circuit_from_dict(doc)
    assert np.allclose(back.gates[0][0].entries, u.entries)


def test_json_survives_serialization():
    rng = np.random.default_rng(9)
    circ = random_circuit(2, 3, rng)
    doc = json.loads(json.dumps(circuit_to_dict(circ)))
    back = circuit_from_dict(doc)
    psi = sample_haar_state(2, rng)
    assert fidelity(apply_circuit(back, psi), apply_circuit(circ, psi)) > 1 - 1e-9


@st.composite
def _mixed_circuits(draw):
    """1-4 qubits; each gate a named gate or a raw Haar 2x2 / 4x4 matrix."""
    n = draw(st.integers(1, 4))
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        arity = draw(st.sampled_from((1, 2) if n >= 2 else (1,)))
        if draw(st.booleans()):
            gate = draw(st.sampled_from(
                [g for g in NAMED_GATES.values() if g.arity == arity]))
        else:
            seed = draw(st.integers(0, 2**32 - 1))
            gate = GateMatrix(unitary_group.rvs(1 << arity, random_state=seed))
        gates.append((gate, tuple(draw(st.permutations(range(n)))[:arity])))
    return Circuit(n, tuple(gates))


@settings(max_examples=60, deadline=None)
@given(_mixed_circuits())
def test_json_round_trip_property(circ):
    back = circuit_from_dict(json.loads(json.dumps(circuit_to_dict(circ))))
    assert back.num_qubits == circ.num_qubits
    assert ([(g.arity, t) for g, t in back.gates]
            == [(g.arity, t) for g, t in circ.gates])
    assert np.abs(back.unitary - circ.unitary).max() <= 1e-12


def test_json_unknown_gate_name():
    with pytest.raises(ValueError, match="unknown gate"):
        circuit_from_dict({"num_qubits": 1,
                           "gates": [{"name": "Q", "targets": [0]}]})


def test_json_bad_matrix_shape():
    with pytest.raises(ValueError, match="2x2 or 4x4"):
        circuit_from_dict({"num_qubits": 2, "gates": [
            {"matrix": [[[1, 0], [0, 0], [0, 0]]] * 3, "targets": [0]}]})


def test_save_and_load_file(tmp_path):
    rng = np.random.default_rng(10)
    circ = random_circuit(2, 2, rng)
    path = tmp_path / "circuit.json"
    save_circuit(circ, path)
    back = load_circuit(path)
    psi = sample_haar_state(2, rng)
    assert fidelity(apply_circuit(back, psi), apply_circuit(circ, psi)) > 1 - 1e-9
