"""One draw per decision, checked against the basis measurements it replaced.

check_measurement and rsp_strategy only ask "did the first basis element
fire?", so each decides with one `_draw` over [p, 1 - p].  The references
below measure in a full orthonormal basis, as both functions used to; the
comparisons are of exact values, and a stub generator pins each decision's
threshold at p.
"""
import numpy as np
import pytest

from instaqc.circuit import random_circuit
from instaqc.statevec import (
    _draw,
    basis_state,
    measure_in_basis,
    orthonormal_basis_containing,
    outcome_probabilities,
    project_out,
    sample_haar_state,
)
from instaqc.strategies import rsp_strategy
from instaqc.teleport import check_measurement, prepare_offline


class FixedDraw:
    """Generator stand-in whose random() always returns `u`; counts draws."""

    def __init__(self, u):
        self.u = u
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.u


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


@pytest.mark.parametrize("u, expected", [(0.0, 0), (0.19999, 0), (0.2, 1),
                                         (0.49999, 1), (0.5, 2), (0.99999, 2)])
def test_draw_picks_first_cumulative_above_u(u, expected):
    rng = FixedDraw(u)
    assert _draw(np.array([0.4, 0.6, 1.0]), rng) == expected  # normalized to /2
    assert rng.draws == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_check_probability_matches_basis_measurement(n):
    rng = np.random.default_rng(700 + n)
    for _ in range(5):
        output, correct = sample_haar_state(n, rng), sample_haar_state(n, rng)
        basis = orthonormal_basis_containing(correct.amplitudes)
        expected = outcome_probabilities(output, range(n), basis)[0]
        _, prob = check_measurement(output, correct, FixedDraw(0.5))
        assert abs(prob - expected) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_decision_flips_at_p(n):
    rng = np.random.default_rng(710 + n)
    output, correct = sample_haar_state(n, rng), sample_haar_state(n, rng)
    _, p = check_measurement(output, correct, FixedDraw(0.0))
    assert 0.0 < p < 1.0 and p != 0.5
    below, at = FixedDraw(np.nextafter(p, 0.0)), FixedDraw(p)
    assert check_measurement(output, correct, below)[0]
    assert not check_measurement(output, correct, at)[0]
    assert below.draws == at.draws == 1


def test_check_certain_outcomes():
    psi = basis_state(2, 1)
    assert check_measurement(psi, psi, FixedDraw(np.nextafter(1.0, 0.0)))[0]
    assert not check_measurement(psi, basis_state(2, 2), FixedDraw(0.0))[0]


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
        answered, far = rsp_strategy(resource, known, below)
        assert answered
        np.testing.assert_allclose(far.amplitudes, far_ref.amplitudes,
                                   rtol=0, atol=1e-12)
        assert rsp_strategy(resource, known, above) == (False, None)
        assert below.draws == above.draws == 1
