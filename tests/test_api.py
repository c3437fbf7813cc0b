"""The package's public names: a change to the API shows as an edit of this list."""
import lcusim

PUBLIC = [
    "BlissParams", "BlissResult", "CircuitPlan", "CostModel", "FermionicOperator",
    "GateCounts", "HamiltonianLCU", "PauliTerm", "RegisterLayout", "RunStats",
    "apply_bliss", "build_hubbard_chain", "build_ising", "build_w_hk",
    "build_w_tilde", "build_w_unary", "canonicalize", "count", "estimate",
    "expected_runtime_midmeasure", "fidelity", "jordan_wigner", "l1_norm",
    "load_fermionic", "load_hamiltonian", "mean_cost_per_shot", "optimize_bliss",
    "power_schedule", "run_shots", "run_shots_many", "runtime_upper_bound", "save_hamiltonian",
    "success_prob_hk", "success_prob_wtilde", "taylor_prepare_amplitudes", "taylor_weights",
    "total_runtime_success", "trace_plan",
]


def test_public_names_are_pinned_and_importable():
    assert sorted(lcusim.__all__) == PUBLIC
    namespace = {}
    exec(f"from lcusim import {', '.join(PUBLIC)}", namespace)
    assert all(namespace[name] is getattr(lcusim, name) for name in PUBLIC)
