import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcusim.circuits import CircuitPlan, Prepared, Run, build_w_hk
from lcusim.errors import LayoutError, NormalizationError, ResourceLimitError
from lcusim.hamiltonian import canonicalize, check_state, l1_norm
from lcusim.oracle import success_prob_hk
from lcusim.sampler import trace_plan
from conftest import random_state
from reference import (
    MeasurementDegenerateError,
    RegisterLayout,
    StateVector,
    apply_1q,
    apply_cx,
    apply_register_unitary,
    apply_select,
    completion_unitary,
    fidelity,
    householder,
    init_state,
    measure_register,
    pauli_string_matrix,
    prepare_amplitudes,
    project_zero,
    register_probabilities,
    to_matrix,
)


def _layout(n, l_width):
    return RegisterLayout([("system", n), ("l", l_width)])


def _reflection(amps):
    """The dense completion unitary (I - 2 v v^dag) diag(d) of ``householder(amps)``."""
    v, d = householder(amps)
    return (np.eye(v.shape[0]) - 2.0 * np.outer(v, v.conj())) * d[np.newaxis, :]


class TestLayout:
    def test_standard(self):
        # the W-tilde layout: each register starts where the one before it ends
        lay = RegisterLayout([("system", 4), ("l", 2), ("k", 3)])
        assert lay.total == 9
        assert [(r.name, r.width, r.offset) for r in lay.registers] == [
            ("system", 4, 0), ("l", 2, 4), ("k", 3, 6)
        ]
        assert (lay.n, lay.register("k").offset + 1) == (4, 7)

    @pytest.mark.parametrize(
        "widths", [[("system", 2), ("l", 0)], [("system", 2), ("l", 1), ("l", 1)]],
        ids=["zero-width", "duplicate-name"],
    )
    def test_bad_registers_rejected(self, widths):
        with pytest.raises(LayoutError):
            RegisterLayout(widths)

    def test_simulation_cap_enforced(self):
        lay = RegisterLayout([("system", 10), ("l", 10), ("k", 10)])  # layouts themselves are fine
        with pytest.raises(ResourceLimitError):
            init_state(lay, np.eye(1 << 10)[0])

    def test_unnormalized_init_rejected(self):
        lay = _layout(2, 1)
        with pytest.raises(NormalizationError):
            init_state(lay, np.array([1.0, 1.0, 0.0, 0.0]))
        with pytest.raises(NormalizationError):
            init_state(lay, np.array([np.nan, 0.0, 0.0, 0.0]))


class TestCompletionUnitary:
    def test_first_column(self):
        amps = np.sqrt([0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1, 0.0])
        U = completion_unitary(amps)
        assert np.allclose(U[:, 0], amps, atol=1e-12)
        assert np.allclose(U.conj().T @ U, np.eye(8), atol=1e-12)

    def test_deterministic(self):
        amps = np.array([0.6, 0.8])
        assert np.array_equal(completion_unitary(amps), completion_unitary(amps))

    @given(st.integers(0, 200))
    def test_unitary_for_random_complex_vectors(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        a /= np.linalg.norm(a)
        U = completion_unitary(a)
        assert np.abs(U[:, 0] - a).max() < 1e-12
        assert np.abs(U.conj().T @ U - np.eye(4)).max() < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            completion_unitary(np.array([1.0, 1.0]))
        with pytest.raises(NormalizationError):
            completion_unitary(np.array([np.nan, 0.0]))


class TestRegisterOps:
    def test_prepare_sets_l_distribution(self, ising4):
        # the reflection's first column is the PREPARE state: |a_l|^2 = w_l / l1
        probs = np.abs(_reflection(prepare_amplitudes(ising4))[:, 0]) ** 2
        weights = np.array([t.weight for t in ising4.terms]) / 5.0
        assert np.allclose(probs[:7], weights, atol=1e-12)
        assert probs[7] == pytest.approx(0.0, abs=1e-12)

    def test_prepare_adjoint_restores(self, ising4):
        # a Prepare and its adjoint on an ancilla (7 of its 8 values) leave it in |0>
        psi = random_state(4, np.random.default_rng(7))
        a = prepare_amplitudes(ising4)
        plan = CircuitPlan({"c": 3}, ising4, (Prepared("c", a),))
        trace = trace_plan(plan, psi)
        assert trace.cond_probs == pytest.approx((1.0,), abs=1e-12)
        assert np.abs(trace.final_system_state - psi).max() < 1e-12

    def test_register_unitary_matches_kron(self):
        # unitary on the l register acts as U (x) I_system in our LSB ordering
        lay = _layout(2, 2)
        rng = np.random.default_rng(3)
        psi_full = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi_full /= np.linalg.norm(psi_full)
        state = StateVector(lay, psi_full.copy())
        U = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        apply_register_unitary(state, "l", U)
        expected = np.kron(U, np.eye(4)) @ psi_full
        assert np.abs(state.amplitudes - expected).max() < 1e-12

    def test_wrong_unitary_shape(self):
        lay = _layout(2, 2)
        state = init_state(lay, np.eye(4)[0])
        with pytest.raises(LayoutError):
            apply_register_unitary(state, "l", np.eye(2))


class TestPrepareReflection:
    """``householder`` (a reflection, no matrix) against the dense ``completion_unitary``."""

    LAYOUT = RegisterLayout([("a", 2), ("b", 3), ("c", 2)])

    @pytest.mark.parametrize("register", ["a", "b", "c"])  # widths 2, 3, 2
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_matches_completion_unitary(self, register, adjoint):
        # on all 2^w values, and restricted to 0 and the support of the amplitudes, which
        # is how the array reference applies it to a register that holds fewer values
        rng = np.random.default_rng(2 * ord(register) + adjoint)
        width = self.LAYOUT.register(register).width
        amps = random_state(width, rng)
        amps[rng.permutation(1 << width)[: 1 << (width - 1)]] = 0.0
        amps /= np.linalg.norm(amps)
        dag = (lambda M: M.conj().T) if adjoint else (lambda M: M)
        U = dag(completion_unitary(amps))
        values = np.union1d([0], np.flatnonzero(amps))
        others = np.setdiff1d(np.arange(1 << width), values)
        assert np.abs(dag(_reflection(amps)) - U).max() < 1e-14
        assert np.abs(dag(_reflection(amps[values])) - U[np.ix_(values, values)]).max() < 1e-14
        assert np.array_equal(U[np.ix_(others, others)], np.eye(others.shape[0]))
        assert not U[np.ix_(values, others)].any() and not U[np.ix_(others, values)].any()

    def test_real_amplitudes_with_zero_first_entry(self):
        amps = np.array([0.0, 0.0, 0.6, 0.8])
        assert np.abs(_reflection(amps)[:, 0] - amps).max() < 1e-15

    def test_wrong_width_rejected(self, ising4):
        # the plan refuses amplitudes of the wrong length, the reflection unnormalized ones
        with pytest.raises(LayoutError):
            CircuitPlan({"c": 2}, ising4, (Prepared("c", np.array([0.6, 0.8])),))
        with pytest.raises(NormalizationError):
            householder(np.ones(4))
        with pytest.raises(NormalizationError):
            householder(np.array([np.nan, 0.0, 0.0, 0.0]))


class TestLcuBlock:
    """One post-selected block through ``trace_plan`` against dense matrices."""

    def test_matches_dense_rescaled_hamiltonian(self):
        rng = np.random.default_rng(21)
        H = canonicalize(2, [(0.5, "XZ"), (-0.25, "YI"), (0.3j, "ZZ")])
        psi = random_state(2, rng)
        trace = trace_plan(build_w_hk(H, 1), psi)
        v = (-1j / l1_norm(H)) * to_matrix(H) @ psi
        assert trace.cond_probs[0] == pytest.approx(np.vdot(v, v).real, rel=1e-13)
        assert np.abs(trace.final_system_state - v / np.linalg.norm(v)).max() < 1e-14

    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "fresh"])
    @pytest.mark.parametrize("control", [None, 3])  # qubit 3 is bit 0 of c
    @pytest.mark.parametrize(
        "raw",
        [
            [(0.7, "ZZI"), (-0.4, "IZZ"), (0.3j, "ZII"), (0.5, "XIZ"), (0.2 - 0.1j, "YII"),
             (0.9, "XYI")],
            [(0.6, "III"), (0.5, "XIZ"), (0.2 - 0.1j, "YII"), (0.9, "XYI"), (-0.3, "IXI")],
        ],
        ids=["z-groups", "identity-term"],
    )
    def test_grouped_kernel_matches_dense(self, cached, control, raw):
        # terms sharing X masks (x = 0, Y letters, complex phases, an identity term), three
        # blocks controlled by c and then one by t on the registers (c, t, l), c and t
        # prepared one after the other, and the diagonals built by an oracle matvec before
        # the traces or by the first trace
        rng = np.random.default_rng(23)
        H = canonicalize(3, raw)
        bit = None if control is None else control - H.n  # c follows the system
        ac, at = random_state(1, rng), random_state(1, rng)
        plan = CircuitPlan({"c": 1, "t": 1, "l": H.l_width}, H, (
            Prepared("c", ac, (Run("l", bit, 3),)), Prepared("t", at, (Run("l", 0),))))
        F = (-1j / l1_norm(H)) * to_matrix(H)
        on = np.diag([0.0, 1.0])
        controlled = np.kron(on, F) + np.kron(np.eye(2) - on, np.eye(8))  # on (register, system)
        block = np.kron(np.eye(2), F) if control is None else controlled
        Uc, Ut = completion_unitary(ac), completion_unitary(at)
        groups = []
        if cached:
            success_prob_hk(H, np.eye(8)[0], 1)
            groups.append(H._groups)
        for _ in range(2):  # every trace reads the diagonals built first
            v = random_state(3, rng)
            trace = trace_plan(plan, v)
            cond = []  # each register's blocks, its adjoint Prepare and its |0> rows
            for U, blocks in ((Uc, [block] * 3), (Ut, [controlled])):
                v = np.kron(U, np.eye(8)) @ np.kron([1, 0], v)
                for M in blocks + [np.kron(U.conj().T, np.eye(8))[:8]]:
                    v = M @ v
                    cond.append(np.vdot(v, v).real)
                    v /= np.sqrt(cond[-1])
            assert np.abs(np.subtract(trace.cond_probs, cond)).max() < 1e-13
            assert np.abs(trace.final_system_state - v).max() < 1e-13
            groups.append(H._groups)
        assert all(g is groups[0] for g in groups)

    def test_vanishing_branch_returns_zero(self):
        H = canonicalize(1, [(0.5, "I"), (-0.5, "Z")])
        trace = trace_plan(build_w_hk(H, 1), np.eye(2)[0])
        assert trace.cond_probs == (0.0,)
        assert trace.final_system_state is None

    def test_bad_arguments(self, ising4):
        # a block controlled by a system qubit (no register is open) or on a term register
        # too narrow for the terms is refused by the plan; an unnormalized state by the trace
        with pytest.raises(LayoutError):
            CircuitPlan({"l": 3}, ising4, (Run("l", 3),))
        with pytest.raises(LayoutError):
            CircuitPlan({"l": 1}, ising4, (Run("l"),))
        with pytest.raises(NormalizationError):
            trace_plan(build_w_hk(ising4, 1), np.ones(16))
        with pytest.raises(NormalizationError):
            trace_plan(build_w_hk(ising4, 1), np.full(16, np.nan))


class TestCheckState:
    def test_a_unit_vector_of_the_width(self):
        psi = check_state([0.6, 0.8j], 1)
        assert psi.dtype == complex and fidelity(psi, psi) == pytest.approx(1.0)
        with pytest.raises(NormalizationError):
            check_state(np.full(2, 1e300), 1)  # the norm overflows to inf
        with pytest.raises(LayoutError, match="2-qubit state needs shape \\(4,\\)"):
            check_state([0.6, 0.8j], 2)


class TestSelect:
    def test_matches_dense_multiplexor(self):
        rng = np.random.default_rng(11)
        H = canonicalize(
            2, [(0.5, "XZ"), (-0.25, "YI"), (0.3j, "ZZ"), (0.15, "IX")]
        )
        lay = _layout(2, 2)
        psi_full = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi_full /= np.linalg.norm(psi_full)
        state = StateVector(lay, psi_full.copy())
        apply_select(state, H)
        dense = np.zeros((16, 16), dtype=complex)
        for li in range(4):
            proj = np.zeros((4, 4))
            proj[li, li] = 1.0
            term = H.terms[li]
            op = -1j * np.exp(1j * term.phase) * pauli_string_matrix(term.letters)
            dense += np.kron(proj, op)
        assert np.abs(state.amplitudes - dense @ psi_full).max() < 1e-12

    def test_identity_beyond_term_count(self):
        H = canonicalize(1, [(1.0, "X"), (0.5, "Z"), (0.25, "Y")])
        lay = _layout(1, 2)
        amps = np.zeros(8, dtype=complex)
        amps[3 << 1] = 1.0  # l = 3 >= L = 3, system |0>
        state = StateVector(lay, amps.copy())
        apply_select(state, H)
        assert np.abs(state.amplitudes - amps).max() == 0.0

    def test_control_off_is_identity(self):
        H = canonicalize(1, [(1.0, "X")])
        lay = RegisterLayout([("system", 1), ("l", 1), ("c", 1)])
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        state = StateVector(lay, amps.copy())
        apply_select(state, H, control=2)
        assert np.abs(state.amplitudes - amps).max() == 0.0

    def test_control_on_applies(self):
        H = canonicalize(1, [(1.0, "X")])
        lay = RegisterLayout([("system", 1), ("l", 1), ("c", 1)])
        amps = np.zeros(8, dtype=complex)
        amps[4] = 1.0  # control on, l = 0, system |0>
        state = StateVector(lay, amps.copy())
        apply_select(state, H, control=2)
        expected = np.zeros(8, dtype=complex)
        expected[5] = -1j  # (-i) X |0> on the control-on branch
        assert np.abs(state.amplitudes - expected).max() < 1e-15

    def test_unitary_preserves_norm(self, ising4):
        lay = _layout(4, 3)
        rng = np.random.default_rng(2)
        psi_full = rng.normal(size=1 << lay.total) + 1j * rng.normal(size=1 << lay.total)
        psi_full /= np.linalg.norm(psi_full)
        state = StateVector(lay, psi_full)
        apply_select(state, ising4)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestMeasurement:
    def test_probabilities_sum_to_one(self, ising4):
        lay = _layout(4, 3)
        state = init_state(lay, np.eye(16)[0])
        apply_register_unitary(state, "l", completion_unitary(prepare_amplitudes(ising4)))
        assert register_probabilities(state, "l").sum() == pytest.approx(1.0)

    def test_measurement_frequencies(self):
        lay = _layout(1, 1)
        rng = np.random.default_rng(0)
        hits = 0
        shots = 20000
        amps = np.array([0.6, 0.8])
        for _ in range(shots):
            state = init_state(lay, np.eye(2)[0])
            apply_register_unitary(state, "l", completion_unitary(amps))
            outcome, _ = measure_register(state, "l", rng)
            hits += outcome
        p_hat = hits / shots
        assert abs(p_hat - 0.64) < 3 * np.sqrt(0.64 * 0.36 / shots)

    def test_projection_renormalizes(self):
        lay = _layout(1, 1)
        state = init_state(lay, np.eye(2)[0])
        apply_register_unitary(state, "l", completion_unitary(np.array([0.6, 0.8])))
        p0 = project_zero(state, "l")
        assert p0 == pytest.approx(0.36)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert register_probabilities(state, "l")[1] == pytest.approx(0.0, abs=1e-15)

    def test_dead_branch_returns_zero_and_keeps_state(self):
        lay = _layout(1, 1)
        state = init_state(lay, np.eye(2)[0])
        apply_register_unitary(state, "l", completion_unitary(np.array([0.0, 1.0])))
        before = state.amplitudes.copy()
        assert project_zero(state, "l") == 0.0
        assert np.array_equal(state.amplitudes, before)

    def test_degenerate_measurement_raises(self):
        lay = _layout(1, 1)
        state = StateVector(lay, np.zeros(4, dtype=complex))
        with pytest.raises(MeasurementDegenerateError):
            measure_register(state, "l", np.random.default_rng(0))

    def test_system_state_guard(self):
        lay = _layout(1, 1)
        state = init_state(lay, np.eye(2)[0])
        apply_register_unitary(state, "l", completion_unitary(np.array([0.6, 0.8])))
        with pytest.raises(LayoutError):
            state.system_state()


class TestLowLevelGates:
    def test_cx_truth_table(self):
        lay = RegisterLayout([("system", 2)])
        for basis in range(4):
            amps = np.zeros(4, dtype=complex)
            amps[basis] = 1.0
            state = StateVector(lay, amps)
            apply_cx(state, 0, 1)  # control qubit 0 (LSB), target qubit 1
            expected = basis ^ (2 if basis & 1 else 0)
            assert state.amplitudes[expected] == 1.0

    def test_1q_on_middle_qubit(self):
        rng = np.random.default_rng(9)
        lay = RegisterLayout([("system", 3)])
        psi = random_state(3, rng)
        state = StateVector(lay, psi.copy())
        U = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        apply_1q(state, 1, U)
        expected = np.kron(np.eye(2), np.kron(U, np.eye(2))) @ psi
        assert np.abs(state.amplitudes - expected).max() < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 1000))
    def test_select_square_gives_rescaled_h_squared(self, seed):
        # two Select applications with matched l give (-i H_l)(-i H_l) per branch;
        # checked indirectly: Select is its own functional inverse up to -1 per branch
        rng = np.random.default_rng(seed)
        H = canonicalize(2, [(0.7, "XY"), (0.2, "ZI")])
        lay = _layout(2, 1)
        psi_full = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi_full /= np.linalg.norm(psi_full)
        state = StateVector(lay, psi_full.copy())
        apply_select(state, H)
        apply_select(state, H)
        assert np.abs(state.amplitudes + psi_full).max() < 1e-12
