"""Shorter-width truncated-Taylor LCU time evolution.

Statevector simulation of the binary-encoded mid-circuit-measurement
circuit and its unary-encoded reference, closed-form success-probability
and runtime oracles, closed-form gate counts, and BLISS l1-norm
optimization of Jordan-Wigner-encoded fermionic Hamiltonians.
"""
import types

from .bliss import (
    BlissParams,
    BlissResult,
    FermionicOperator,
    apply_bliss,
    build_hubbard_chain,
    jordan_wigner,
    load_fermionic,
    optimize_bliss,
)
from .circuits import (
    CircuitPlan,
    RegisterLayout,
    build_w_hk,
    build_w_tilde,
    build_w_unary,
    power_schedule,
    taylor_prepare_amplitudes,
    taylor_weights,
)
from .hamiltonian import (
    HamiltonianLCU,
    PauliTerm,
    build_ising,
    canonicalize,
    l1_norm,
    load_hamiltonian,
    save_hamiltonian,
)
from .oracle import (
    expected_runtime_midmeasure,
    fidelity,
    runtime_upper_bound,
    success_prob_hk,
    success_prob_wtilde,
    total_runtime_success,
)
from .resources import GateCounts, count
from .sampler import (
    CostModel,
    RunStats,
    estimate,
    mean_cost_per_shot,
    run_shots,
    run_shots_many,
    trace_plan,
)

__all__ = sorted(  # every name imported above: the classes and functions, not the modules
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)

__version__ = "0.1.0"
