"""Teleportation-based precomputation: run a circuit on halves of Bell pairs
before the input exists, then either get lucky on the Bell measurement or
repair the output, and score strategies that exploit the lucky branch.
"""
from .statevec import (
    CNOT,
    H,
    MAX_QUBITS,
    NAMED_GATES,
    NORM_TOL,
    S,
    T,
    UNITARY_TOL,
    X,
    Y,
    Z,
    GateMatrix,
    StateVector,
    apply_gate,
    basis_state,
    fidelity,
    measure_in_basis,
    orthonormal_basis_containing,
    outcome_probabilities,
    project_out,
    sample_haar_state,
    tensor_product,
)
from .circuit import (
    Circuit,
    apply_circuit,
    circuit_from_dict,
    circuit_to_dict,
    inverse,
    load_circuit,
    random_circuit,
    save_circuit,
)
from .teleport import (
    BELL_BASIS,
    CORRECTIONS,
    EXTRA_EXECUTIONS_PER_REPAIR,
    InstantRunResult,
    OfflineResource,
    TeleportReport,
    bell_measure_pairs,
    check_measurement,
    force_outcome,
    outcome_distribution,
    prepare_offline,
    run_instantaneous,
    run_trials,
    run_with_corrections,
    teleport_report_to_dict,
)
from .strategies import (
    CLASSICAL_BASIS,
    INSTANTANEOUS,
    NO_ANSWER,
    RANDOM_GUESS,
    REMOTE_STATE_PREP,
    GameReport,
    ScoreParams,
    StrategyKind,
    approximate,
    approximate_breakeven,
    approximate_output,
    classical_basis_strategy,
    cost_analysis,
    expected_score,
    game_report_to_dict,
    rsp_strategy,
    run_game,
)
from .timeline import (
    TimelineConfig,
    TimelineReport,
    simulate_timeline,
    timeline_config_from_dict,
)

__version__ = "0.1.0"
