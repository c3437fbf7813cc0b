import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcusim import hamiltonian
from lcusim.errors import (
    LayoutError,
    MeasurementDegenerateError,
    NormalizationError,
    ResourceLimitError,
)
from lcusim.hamiltonian import canonicalize, l1_norm, prepare_amplitudes
from lcusim.statevector import (
    Register,
    RegisterLayout,
    StateVector,
    apply_lcu_block,
    apply_prepare,
    init_state,
    project_zero,
    register_probabilities,
)
from conftest import random_state
from reference import (
    apply_1q,
    apply_cx,
    apply_register_unitary,
    apply_select,
    completion_unitary,
    measure_register,
    pauli_string_matrix,
    to_matrix,
)


def _layout(n, l_width):
    return RegisterLayout([("system", n), ("l", l_width)])


class TestLayout:
    def test_standard(self):
        # the W-tilde layout: each register starts where the one before it ends
        lay = RegisterLayout([("system", 4), ("l", 2), ("k", 3)])
        assert lay.total == 9
        assert [(r.name, r.width, r.offset) for r in lay.registers] == [
            ("system", 4, 0), ("l", 2, 4), ("k", 3, 6)
        ]
        assert (lay.n, lay.qubit("k", 1)) == (4, 7)

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
        from lcusim.hamiltonian import prepare_amplitudes

        lay = _layout(4, 3)
        state = init_state(lay, np.eye(16)[0])
        apply_prepare(state, "l", prepare_amplitudes(ising4))
        probs = register_probabilities(state, "l")
        weights = np.array([t.weight for t in ising4.terms]) / 5.0
        assert np.allclose(probs[:7], weights, atol=1e-12)
        assert probs[7] == pytest.approx(0.0, abs=1e-12)

    def test_prepare_adjoint_restores(self, ising4):
        from lcusim.hamiltonian import prepare_amplitudes

        lay = _layout(4, 3)
        rng = np.random.default_rng(7)
        psi = random_state(4, rng)
        state = init_state(lay, psi)
        before = state.amplitudes.copy()
        apply_prepare(state, "l", prepare_amplitudes(ising4))
        apply_prepare(state, "l", prepare_amplitudes(ising4), adjoint=True)
        assert np.abs(state.amplitudes - before).max() < 1e-12

    def test_register_unitary_matches_kron(self):
        # unitary on the l register acts as U (x) I_system in our LSB ordering
        lay = _layout(2, 2)
        rng = np.random.default_rng(3)
        psi_full = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi_full /= np.linalg.norm(psi_full)
        from lcusim.statevector import StateVector

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
    """``apply_prepare`` (reflection, no matrix) against the dense ``completion_unitary``."""

    LAYOUT = RegisterLayout([("a", 2), ("b", 3), ("c", 2)])

    @pytest.mark.parametrize("register", ["a", "b", "c"])  # bottom, middle, top
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_matches_completion_unitary(self, register, adjoint):
        from lcusim.statevector import StateVector

        rng = np.random.default_rng(2 * ord(register) + adjoint)
        reg = self.LAYOUT.register(register)
        amps = random_state(reg.width, rng)
        psi = random_state(self.LAYOUT.total, rng)
        U = completion_unitary(amps)
        U = U.conj().T if adjoint else U
        ref = StateVector(self.LAYOUT, psi.copy())
        apply_register_unitary(ref, register, U)
        state = StateVector(self.LAYOUT, psi.copy())
        apply_prepare(state, register, amps, adjoint=adjoint)
        assert np.abs(state.amplitudes - ref.amplitudes).max() < 1e-14

    def test_real_amplitudes_with_zero_first_entry(self):
        from lcusim.statevector import StateVector

        amps = np.array([0.0, 0.0, 0.6, 0.8])
        lay = RegisterLayout([("system", 1), ("l", 2)])
        state = StateVector(lay, np.eye(8, dtype=complex)[0])
        apply_prepare(state, "l", amps)
        assert np.abs(state.amplitudes.reshape(4, 2)[:, 0] - amps).max() < 1e-15

    def test_wrong_width_rejected(self):
        lay = _layout(2, 2)
        state = init_state(lay, np.eye(4)[0])
        with pytest.raises(LayoutError):
            apply_prepare(state, "l", np.array([0.6, 0.8]))
        with pytest.raises(NormalizationError):
            apply_prepare(state, "l", np.ones(4))
        with pytest.raises(NormalizationError):
            apply_prepare(state, "l", np.array([np.nan, 0.0, 0.0, 0.0]))


class TestLcuBlock:
    def test_matches_dense_rescaled_hamiltonian(self):
        rng = np.random.default_rng(21)
        H = canonicalize(2, [(0.5, "XZ"), (-0.25, "YI"), (0.3j, "ZZ")])
        psi = random_state(2, rng)
        state = init_state(RegisterLayout([("system", 2)]), psi)
        p = apply_lcu_block(state, H, prepare_amplitudes(H))
        v = (-1j / l1_norm(H)) * to_matrix(H) @ psi
        assert p == pytest.approx(np.vdot(v, v).real, rel=1e-13)
        assert np.abs(state.amplitudes - v / np.linalg.norm(v)).max() < 1e-14

    def test_control_and_padding(self):
        # control on the middle qubit of a (system, c, t) layout; a 4-entry
        # amplitude vector for 3 terms puts |a_3|^2 on the identity
        rng = np.random.default_rng(22)
        H = canonicalize(1, [(1.0, "X"), (0.5, "Z"), (0.25, "Y")])
        a = random_state(2, rng)
        lay = RegisterLayout([("system", 1), ("c", 1), ("t", 1)])
        psi = random_state(3, rng)
        from lcusim.statevector import StateVector

        state = StateVector(lay, psi.copy())
        p = apply_lcu_block(state, H, a, control=1)
        F = np.abs(a[3]) ** 2 * np.eye(2, dtype=complex)
        for w, t in zip(np.abs(a) ** 2, H.terms):
            F += w * (-1j) * np.exp(1j * t.phase) * pauli_string_matrix(t.letters)
        on = np.diag([0.0, 1.0])
        full = np.kron(np.eye(2), np.kron(on, F) + np.kron(np.eye(2) - on, np.eye(2)))
        v = full @ psi
        assert p == pytest.approx(np.vdot(v, v).real, rel=1e-13)
        assert np.abs(state.amplitudes - v / np.linalg.norm(v)).max() < 1e-14

    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "over-budget"])
    @pytest.mark.parametrize("control", [None, 3])
    @pytest.mark.parametrize(
        "raw",
        [
            [(0.7, "ZZI"), (-0.4, "IZZ"), (0.3j, "ZII"), (0.5, "XIZ"), (0.2 - 0.1j, "YII"),
             (0.9, "XYI")],
            [(0.6, "III"), (0.5, "XIZ"), (0.2 - 0.1j, "YII"), (0.9, "XYI"), (-0.3, "IXI")],
        ],
        ids=["z-groups", "identity-term"],
    )
    def test_grouped_kernel_matches_dense(self, monkeypatch, cached, control, raw):
        # terms sharing X masks (x = 0, Y letters, complex phases; an identity term, which
        # shares the scalar x = 0 group with the padding), amplitudes that are not
        # prepare_amplitudes(H) with weight on the padding entries, a control qubit, and
        # the diagonals cached or rebuilt on every call
        if not cached:
            monkeypatch.setattr(hamiltonian, "_DIAGONAL_BUDGET", 0)
        rng = np.random.default_rng(23)
        H = canonicalize(3, raw)
        a = random_state(3, rng)
        lay = RegisterLayout([("system", 3), ("c", 1), ("t", 1)])
        F = (np.abs(a[H.num_terms :]) ** 2).sum() * np.eye(8, dtype=complex)
        for w, t in zip(np.abs(a) ** 2, H.terms):
            F += w * (-1j) * np.exp(1j * t.phase) * pauli_string_matrix(t.letters)
        if control is None:
            full = np.kron(np.eye(4), F)
        else:
            on = np.diag([0.0, 1.0])
            full = np.kron(np.eye(2), np.kron(on, F) + np.kron(np.eye(2) - on, np.eye(8)))
        for _ in range(3):  # repeated blocks reuse (or rebuild) the diagonals
            psi = random_state(5, rng)
            state = StateVector(lay, psi.copy())
            p = apply_lcu_block(state, H, a, control=control)
            v = full @ psi
            assert p == pytest.approx(np.vdot(v, v).real, rel=1e-13)
            assert np.abs(state.amplitudes - v / np.linalg.norm(v)).max() < 1e-14
        assert len(H._diagonals) == (1 if cached else 0)

    def test_vanishing_branch_returns_zero(self):
        H = canonicalize(1, [(0.5, "I"), (-0.5, "Z")])
        state = init_state(RegisterLayout([("system", 1)]), np.eye(2)[0])
        assert apply_lcu_block(state, H, prepare_amplitudes(H)) == 0.0

    def test_bad_arguments(self, ising4):
        state = init_state(_layout(4, 3), np.eye(16)[0])
        with pytest.raises(LayoutError):
            apply_lcu_block(state, ising4, prepare_amplitudes(ising4), control=3)
        with pytest.raises(LayoutError):
            apply_lcu_block(state, ising4, np.array([0.6, 0.8]))
        with pytest.raises(NormalizationError):
            apply_lcu_block(state, ising4, np.ones(8))
        with pytest.raises(NormalizationError):
            apply_lcu_block(state, ising4, np.full(8, np.nan))


class TestSelect:
    def test_matches_dense_multiplexor(self):
        rng = np.random.default_rng(11)
        H = canonicalize(
            2, [(0.5, "XZ"), (-0.25, "YI"), (0.3j, "ZZ"), (0.15, "IX")]
        )
        lay = _layout(2, 2)
        psi_full = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi_full /= np.linalg.norm(psi_full)
        from lcusim.statevector import StateVector

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
        from lcusim.statevector import StateVector

        amps = np.zeros(8, dtype=complex)
        amps[3 << 1] = 1.0  # l = 3 >= L = 3, system |0>
        state = StateVector(lay, amps.copy())
        apply_select(state, H)
        assert np.abs(state.amplitudes - amps).max() == 0.0

    def test_control_off_is_identity(self):
        H = canonicalize(1, [(1.0, "X")])
        lay = RegisterLayout([("system", 1), ("l", 1), ("c", 1)])
        from lcusim.statevector import StateVector

        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        state = StateVector(lay, amps.copy())
        apply_select(state, H, control=2)
        assert np.abs(state.amplitudes - amps).max() == 0.0

    def test_control_on_applies(self):
        H = canonicalize(1, [(1.0, "X")])
        lay = RegisterLayout([("system", 1), ("l", 1), ("c", 1)])
        from lcusim.statevector import StateVector

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
        from lcusim.statevector import StateVector

        state = StateVector(lay, psi_full)
        apply_select(state, ising4)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestMeasurement:
    def test_probabilities_sum_to_one(self, ising4):
        from lcusim.hamiltonian import prepare_amplitudes

        lay = _layout(4, 3)
        state = init_state(lay, np.eye(16)[0])
        apply_prepare(state, "l", prepare_amplitudes(ising4))
        assert register_probabilities(state, "l").sum() == pytest.approx(1.0)

    def test_measurement_frequencies(self):
        lay = _layout(1, 1)
        rng = np.random.default_rng(0)
        hits = 0
        shots = 20000
        amps = np.array([0.6, 0.8])
        for _ in range(shots):
            state = init_state(lay, np.eye(2)[0])
            apply_prepare(state, "l", amps)
            outcome, _ = measure_register(state, "l", rng)
            hits += outcome
        p_hat = hits / shots
        assert abs(p_hat - 0.64) < 3 * np.sqrt(0.64 * 0.36 / shots)

    def test_projection_renormalizes(self):
        lay = _layout(1, 1)
        state = init_state(lay, np.eye(2)[0])
        apply_prepare(state, "l", np.array([0.6, 0.8]))
        p0 = project_zero(state, "l")
        assert p0 == pytest.approx(0.36)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert register_probabilities(state, "l")[1] == pytest.approx(0.0, abs=1e-15)

    def test_dead_branch_returns_zero_and_keeps_state(self):
        lay = _layout(1, 1)
        state = init_state(lay, np.eye(2)[0])
        apply_prepare(state, "l", np.array([0.0, 1.0]))
        before = state.amplitudes.copy()
        assert project_zero(state, "l") == 0.0
        assert np.array_equal(state.amplitudes, before)

    def test_degenerate_measurement_raises(self):
        from lcusim.statevector import StateVector

        lay = _layout(1, 1)
        state = StateVector(lay, np.zeros(4, dtype=complex))
        with pytest.raises(MeasurementDegenerateError):
            measure_register(state, "l", np.random.default_rng(0))

    def test_system_state_guard(self):
        lay = _layout(1, 1)
        state = init_state(lay, np.eye(2)[0])
        apply_prepare(state, "l", np.array([0.6, 0.8]))
        with pytest.raises(LayoutError):
            state.system_state()


class TestLowLevelGates:
    def test_cx_truth_table(self):
        lay = RegisterLayout([("system", 2)])
        for basis in range(4):
            amps = np.zeros(4, dtype=complex)
            amps[basis] = 1.0
            from lcusim.statevector import StateVector

            state = StateVector(lay, amps)
            apply_cx(state, 0, 1)  # control qubit 0 (LSB), target qubit 1
            expected = basis ^ (2 if basis & 1 else 0)
            assert state.amplitudes[expected] == 1.0

    def test_1q_on_middle_qubit(self):
        rng = np.random.default_rng(9)
        lay = RegisterLayout([("system", 3)])
        psi = random_state(3, rng)
        from lcusim.statevector import StateVector

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
        from lcusim.statevector import StateVector

        state = StateVector(lay, psi_full.copy())
        apply_select(state, H)
        apply_select(state, H)
        assert np.abs(state.amplitudes + psi_full).max() < 1e-12
