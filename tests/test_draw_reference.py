"""One draw per decision, checked against the basis measurements it replaced.

check_measurement and rsp_strategy only ask "did the first basis element
fire?", so each decides with one draw, u < p.  The references below measure
in a full orthonormal basis, as both functions used to; the comparisons are
of exact values, and a stub generator pins each decision's threshold at p.
`_draw_rows`, the package's one sampling rule, is checked against the numpy
cumsum + searchsorted rule in its one-row form (the single draws of
`measure_in_basis` and `bell_measure_pairs`) and in its many-row form (the
chunks of `_bell_rows`), a chunk of checks against one-row checks, and the
three Bell samplers against the one rng.random(n) per trial that they all
take.
"""
import numpy as np
import pytest

from instaqc.circuit import random_circuit
from instaqc.statevec import (
    StateVector,
    _draw_rows,
    _haar_rows,
    basis_state,
    fidelity,
    measure_in_basis,
    orthonormal_basis_containing,
    outcome_probabilities,
    project_out,
    sample_haar_state,
    tensor_product,
)
from instaqc.strategies import rsp_strategy
from instaqc.teleport import (
    _bell_rows,
    bell_measure_pairs,
    check_measurement,
    prepare_offline,
    run_instantaneous,
)


class FixedDraw:
    """Generator stand-in whose random() always returns `u`; counts draws."""

    def __init__(self, u):
        self.u = u
        self.draws = 0

    def random(self, size=None):
        self.draws += 1
        return self.u if size is None else np.full(size, self.u)


def _rsp_reference(resource, known):
    """rsp_strategy as a near-block measurement in a basis led by conj(known):
    the probability of outcome 0 and the far block that outcome leaves."""
    n = resource.n
    basis = orthonormal_basis_containing(known.amplitudes.conj())
    prob = outcome_probabilities(resource.joint_state, range(n), basis)[0]
    outcome, _, collapsed = measure_in_basis(resource.joint_state, range(n), basis,
                                             FixedDraw(0.0))
    assert outcome == 0
    _, far = project_out(collapsed, range(n), basis[0])
    return prob, far


def _draw_by_cumsum(probs, u):
    """The rule as numpy cumsum + searchsorted over one 1-D array."""
    cum = np.cumsum(probs / probs.sum())
    return min(int(np.searchsorted(cum, u, side="right")), len(probs) - 1)


@pytest.mark.parametrize("length", [2, 3, 4, 7, 8, 9, 16])
def test_draw_matches_cumsum_rule_at_every_boundary(length):
    """A one-row call per u, and one call on a chunk holding one row per u,
    pick what the numpy cumsum picked, with u at each cumulative value and at
    both of its float neighbours (zeros make repeated boundaries; past 8
    terms numpy's total is summed pairwise)."""
    rng = np.random.default_rng(730 + length)
    for trial in range(150):
        probs = rng.random(length) * rng.choice([1e-3, 1.0, 7.0])
        if trial % 3 == 0:
            probs[rng.random(length) < 0.3] = 0.0
        if not probs.any():
            continue
        cum = np.cumsum(probs / probs.sum())
        us = np.concatenate([[0.0], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0)])
        expected = [_draw_by_cumsum(probs, u) for u in us]
        assert [_draw_rows(probs[None], np.array([u]))[0] for u in us] == expected, probs
        rows = _draw_rows(np.tile(probs, (len(us), 1)), us)
        assert rows.tolist() == expected, probs


@pytest.mark.parametrize("u, expected", [(0.0, 0), (0.19999, 0), (0.2, 1),
                                         (0.49999, 1), (0.5, 2), (0.99999, 2)])
def test_draw_picks_first_cumulative_above_u(u, expected):
    # normalized to /2
    assert _draw_rows(np.array([[0.4, 0.6, 1.0]]), np.array([u]))[0] == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bell_samplers_take_one_uniform_per_pair(n):
    """One trial of `run_instantaneous` or `bell_measure_pairs` leaves the
    generator where rng.random(n) leaves a twin, and one `_bell_rows` chunk
    of B rows where rng.random((B, n)) does.  rng.random(n) holds the values
    of n rng.random() calls, so every sampler sees a trial's same uniforms."""
    states = np.random.default_rng(740 + n)
    resource = prepare_offline(random_circuit(n, 3, states))
    inputs = _haar_rows(n, 5, states)
    psi = StateVector(inputs[0])
    joint = tensor_product(psi, resource.joint_state)

    def twin_after(seed, size):
        twin = np.random.default_rng(seed)
        twin.random(size)
        return twin.bit_generator.state

    for seed, run, size in [
            (1, lambda rng: run_instantaneous(resource, psi, rng), n),
            (2, lambda rng: bell_measure_pairs(joint, rng), n),
            (3, lambda rng: _bell_rows(resource, inputs, rng), (5, n))]:
        rng = np.random.default_rng(seed)
        run(rng)
        assert rng.bit_generator.state == twin_after(seed, size)
    scalar = np.random.default_rng(4)
    assert (np.random.default_rng(4).random(n).tolist()
            == [scalar.random() for _ in range(n)])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_check_probability_matches_basis_measurement(n):
    rng = np.random.default_rng(700 + n)
    for _ in range(5):
        output, correct = sample_haar_state(n, rng), sample_haar_state(n, rng)
        basis = orthonormal_basis_containing(correct.amplitudes)
        expected = outcome_probabilities(output, range(n), basis)[0]
        _, prob = check_measurement(output.amplitudes[None], correct.amplitudes[None],
                                    FixedDraw(0.5))
        assert abs(prob - expected) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_decision_flips_at_p(n):
    rng = np.random.default_rng(710 + n)
    output, correct = sample_haar_state(n, rng), sample_haar_state(n, rng)
    _, p = check_measurement(output.amplitudes[None], correct.amplitudes[None],
                             FixedDraw(0.0))
    assert 0.0 < p < 1.0 and p != 0.5
    below, at = FixedDraw(np.nextafter(p, 0.0)), FixedDraw(p)
    assert check_measurement(output.amplitudes[None], correct.amplitudes[None], below)[0]
    assert not check_measurement(output.amplitudes[None], correct.amplitudes[None], at)[0]
    assert below.draws == at.draws == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_rows_are_one_row_checks(n):
    """A chunk grades row t as the t-th one-row call on the same seed does,
    and a one-row call draws the value rng.random() would."""
    states = np.random.default_rng(715 + n)
    outputs = np.array([sample_haar_state(n, states).amplitudes for _ in range(50)])
    corrects = np.array([sample_haar_state(n, states).amplitudes for _ in range(50)])
    rng, ref_rng, scalar_rng = (np.random.default_rng(n) for _ in range(3))
    is_O, probs = check_measurement(outputs, corrects, rng)
    for t in range(50):
        (row_O,), (row_p,) = check_measurement(outputs[t:t + 1], corrects[t:t + 1], ref_rng)
        assert (row_O, row_p) == (is_O[t], probs[t])
        assert row_p == fidelity(StateVector(outputs[t]), StateVector(corrects[t]))
        assert row_O == (scalar_rng.random() < row_p)
    assert rng.random() == ref_rng.random() == scalar_rng.random()


def test_check_certain_outcomes():
    psi = basis_state(2, 1)
    assert check_measurement(psi.amplitudes[None], psi.amplitudes[None],
                             FixedDraw(np.nextafter(1.0, 0.0)))[0]
    assert not check_measurement(psi.amplitudes[None], basis_state(2, 2).amplitudes[None],
                                 FixedDraw(0.0))[0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rsp_matches_basis_measurement(n):
    rng = np.random.default_rng(720 + n)
    circuit = random_circuit(n, 3, rng)
    resource = prepare_offline(circuit)
    for _ in range(3):
        known = sample_haar_state(n, rng)
        p, far_ref = _rsp_reference(resource, known)
        assert abs(p - 2.0**-n) <= 1e-12
        below, above = FixedDraw(p - 1e-12), FixedDraw(p + 1e-12)
        answered, far = rsp_strategy(resource, known.amplitudes[None], below)
        assert answered[0]
        np.testing.assert_allclose(far[0], far_ref.amplitudes, rtol=0, atol=1e-12)
        answered, far = rsp_strategy(resource, known.amplitudes[None], above)
        assert not answered[0] and far.shape == (0, 1 << n)
        assert below.draws == above.draws == 1
