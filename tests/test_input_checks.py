"""Every public boundary that takes state rows, index arrays or outcome codes
refuses bad input with a ValueError, with no RuntimeWarning and before any
draw: the generator's state is unchanged."""
import warnings

import numpy as np
import pytest

from instaqc.circuit import Circuit
from instaqc.statevec import StateVector, basis_state, project_out
from instaqc.strategies import approximate_output, classical_basis_strategy, rsp_strategy
from instaqc.teleport import (
    OfflineResource,
    check_measurement,
    force_outcome,
    prepare_offline,
    run_with_corrections,
)

GOOD = np.eye(2)  # two normalized 1-qubit rows
NORM = "not normalized or not finite"
SHAPE = r"\(rows, "
PROB = "NaN, above-1"


def _with_row_1(value):
    rows = GOOD.copy()
    rows[1] = value
    return rows


# Row 1 is bad; each value overlaps GOOD's row 1, so a check probability sees it.
BAD_VALUES = {"nan": [0.0, np.nan], "inf": [0.0, np.inf], "x5": [0.0, 5.0]}
BAD_SHAPES = {"1-D": GOOD[0], "width 3": np.ones((2, 3)) / np.sqrt(3),
              "width 4": np.eye(2, 4)}


def _partner(rows):
    """check_measurement's other argument: GOOD, or one row of it for 1-D rows."""
    return GOOD if np.ndim(rows) == 2 else GOOD[0]


# boundary -> (call on rows, match for a bad value, match for a bad shape,
# whether any 2^n width is valid there)
ROW_BOUNDARIES = {
    # StateVector and project_out's vector take one row: row 1, a scalar when
    # the "rows" are 1-D
    "StateVector": (lambda rows, rng: StateVector(rows[1]), NORM, SHAPE, True),
    "project_out vector": (lambda rows, rng: project_out(basis_state(2, 0), [0], rows[1]),
                           NORM, SHAPE, False),
    # the resource's flattened matrix is a 2n-qubit state
    "OfflineResource": (lambda rows, rng: OfflineResource(rows / np.sqrt(2)), NORM,
                        r"2\*\*n x 2\*\*n", False),
    "approximate_output": (lambda rows, rng: approximate_output(rows, 0.5), NORM, SHAPE, True),
    "check_measurement outputs": (
        lambda rows, rng: check_measurement(rows, _partner(rows), rng),
        PROB, "qubit counts", False),
    "check_measurement corrects": (
        lambda rows, rng: check_measurement(_partner(rows), rows, rng),
        PROB, "qubit counts", False),
    "rsp_strategy": (lambda rows, rng: rsp_strategy(prepare_offline(Circuit(1)), rows, rng),
                     f"finite|{PROB}", "resource expects", False),
    "run_with_corrections rows": (
        lambda rows, rng: run_with_corrections(np.array([0, 1]), rows, Circuit(1)),
        NORM, SHAPE, False),
}

# Index 1 is bad; `bound` is the boundary's exclusive upper limit.
BAD_INDICES = {
    "float": lambda bound: np.array([0.0, 1.0]),
    "bool": lambda bound: np.array([False, True]),
    "negative": lambda bound: np.array([0, -1]),
    "at bound": lambda bound: np.array([0, bound]),
}
INDEX_BOUNDARIES = {  # boundary -> (bound, call on indices)
    "basis_state": (2, lambda idx, rng: basis_state(1, idx[1].item())),
    "classical input": (2, lambda idx, rng: classical_basis_strategy(Circuit(1), idx,
                                                                     np.array([0, 0]))),
    "classical guess": (2, lambda idx, rng: classical_basis_strategy(Circuit(1),
                                                                     np.array([0, 0]), idx)),
    "run_with_corrections codes": (4, lambda idx, rng: run_with_corrections(idx, GOOD,
                                                                            Circuit(1))),
    "force_outcome": (4, lambda idx, rng: force_outcome(prepare_offline(Circuit(1)),
                                                        basis_state(1, 0), idx[1].item())),
}

# Inputs that a version with a clipped check probability and hand-written
# checks answered, or failed on with a numpy TypeError.
REPROS = {
    "check inf row": (lambda rng: check_measurement(np.array([[np.inf, 0]]),
                                                    np.array([[1, 0]]), rng), PROB),
    "check x5 row": (lambda rng: check_measurement(np.array([[5, 0]]), np.array([[1, 0]]),
                                                   rng), PROB),
    "check 1-D rows": (lambda rng: check_measurement(np.array([1, 0]), np.array([1, 0]), rng),
                       "qubit counts"),
    "rsp x10 rows": (lambda rng: rsp_strategy(prepare_offline(Circuit(1)), [[10, 0]] * 5, rng),
                     PROB),
    "repair float code": (lambda rng: run_with_corrections(np.array([1.0]), GOOD[:1],
                                                           Circuit(1)), "integers"),
    "repair row counts": (lambda rng: run_with_corrections(np.array([0]), GOOD, Circuit(1)),
                          "row counts"),
    "repair 1-qubit rows on 2": (lambda rng: run_with_corrections(np.array([0, 1]), GOOD,
                                                                  Circuit(2)), SHAPE),
}


def _cases():
    for name, (call, value_match, shape_match, any_width) in ROW_BOUNDARIES.items():
        for kind, value in BAD_VALUES.items():
            yield pytest.param(lambda rng, call=call, rows=_with_row_1(value): call(rows, rng),
                               value_match, id=f"{name}-{kind}")
        for kind, rows in BAD_SHAPES.items():
            if not (any_width and kind == "width 4"):
                yield pytest.param(lambda rng, call=call, rows=rows: call(rows, rng),
                                   shape_match, id=f"{name}-{kind}")
    for name, (bound, call) in INDEX_BOUNDARIES.items():
        for kind, make in BAD_INDICES.items():
            match = "out of range" if kind in ("negative", "at bound") else "integers"
            yield pytest.param(lambda rng, call=call, idx=make(bound): call(idx, rng),
                               match, id=f"{name}-{kind}")
    for name, (call, match) in REPROS.items():
        yield pytest.param(call, match, id=name)


@pytest.mark.parametrize("call, match", list(_cases()))
def test_public_boundary_refuses_bad_input(call, match):
    rng = np.random.default_rng(31)
    before = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call(rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("call", [
    lambda rng: StateVector(GOOD[1]),
    lambda rng: project_out(basis_state(2, 0), [0], GOOD[0]),
    lambda rng: basis_state(1, 1),
    lambda rng: OfflineResource(GOOD / np.sqrt(2)),
    lambda rng: approximate_output(GOOD, 0.5),
    lambda rng: check_measurement(GOOD, GOOD, rng),
    lambda rng: rsp_strategy(prepare_offline(Circuit(1)), GOOD, rng),
    lambda rng: run_with_corrections(np.array([0, 3]), GOOD, Circuit(1)),
    lambda rng: classical_basis_strategy(Circuit(1), np.array([0, 1]), np.array([1, 1])),
    lambda rng: force_outcome(prepare_offline(Circuit(1)), basis_state(1, 0), 3),
], ids=["StateVector", "project_out", "basis_state", "OfflineResource", "approximate_output",
        "check_measurement", "rsp_strategy", "run_with_corrections",
        "classical_basis_strategy", "force_outcome"])
def test_public_boundary_takes_the_good_input(call):
    """The rows and indices the bad cases are built from pass every boundary."""
    call(np.random.default_rng(31))
