import numpy as np
import pytest

from lcusim.circuits import AdjointPrepare, FinalMeasure, MeasureExpectZero, Select
from lcusim.hamiltonian import build_ising, canonicalize, pauli_string_matrix
from lcusim.sampler import CostModel, PlanTrace, _instruction_cost
from lcusim.statevector import (
    apply_register_unitary,
    apply_select,
    completion_unitary,
    init_state,
    project_zero,
)


@pytest.fixture
def ising4():
    return build_ising(4, 1.0, 0.5)


@pytest.fixture
def psi0_4():
    psi = np.zeros(16, dtype=complex)
    psi[0] = 1.0
    return psi


def basis_state(n, index=0):
    psi = np.zeros(1 << n, dtype=complex)
    psi[index] = 1.0
    return psi


def random_state(n, rng):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def ladder_matrix(j, n, dagger=False):
    """Dense a_j (or a_j^dag) from its Jordan-Wigner letters: Z on qubits below j,
    (X + i Y) / 2 (or (X - i Y) / 2) on qubit j; a reference independent of ``bliss``."""
    zs, tail = "Z" * j, "I" * (n - j - 1)
    y_coeff = -0.5j if dagger else 0.5j
    return 0.5 * pauli_string_matrix(zs + "X" + tail) + y_coeff * pauli_string_matrix(zs + "Y" + tail)


def random_hamiltonian(n, L, rng, hermitian=True):
    """Random length-L Pauli-string Hamiltonian with real coefficients."""
    seen = set()
    raw = []
    while len(raw) < L:
        letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        if letters in seen or letters == "I" * n:
            continue
        seen.add(letters)
        coeff = rng.uniform(-1.0, 1.0)
        if not hermitian:
            coeff = coeff * np.exp(1j * rng.uniform(0, 2 * np.pi))
        raw.append((coeff, letters))
    return canonicalize(n, raw)


def register_trace(plan, psi, cost=CostModel()):
    """The success path with every register simulated, measurements projected in
    plan order: the independent reference for ``sampler.trace_plan``."""
    state = init_state(plan.layout, psi)
    cond = []
    abort_costs = []
    running_cost = 0.0
    dead = False
    for ins in plan.instructions:
        running_cost += _instruction_cost(ins, cost)
        if isinstance(ins, (MeasureExpectZero, FinalMeasure)):
            abort_costs.append(running_cost)
            if dead:
                cond.append(0.0)
                continue
            p0 = project_zero(state, ins.register)
            cond.append(p0)
            if p0 == 0.0:
                dead = True
        elif dead:
            continue
        elif isinstance(ins, Select):
            apply_select(state, plan.hamiltonian, ins.l_register, ins.control)
        else:  # Prepare as the dense completion unitary, not the reflection trace_plan uses
            U = completion_unitary(ins.amps)
            U = U.conj().T if isinstance(ins, AdjointPrepare) else U
            apply_register_unitary(state, ins.register, U)
    success_prob = float(np.prod(cond)) if cond else 1.0
    final = None if dead else state.system_state()
    return PlanTrace(
        cond_probs=tuple(cond),
        success_prob=success_prob,
        final_system_state=final,
        abort_costs=tuple(abort_costs),
        success_cost=running_cost,
    )
