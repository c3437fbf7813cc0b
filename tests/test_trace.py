"""The collapsed success-path trace against the register-level reference."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcusim.circuits import (
    CircuitPlan,
    LcuBlock,
    Measure,
    Prepare,
    build_w_hk,
    build_w_tilde,
    build_w_unary,
)
from lcusim import hamiltonian
from lcusim.errors import LayoutError, LcusimError
from lcusim.hamiltonian import build_ising, canonicalize
from lcusim.oracle import fidelity
from lcusim.sampler import CostModel, trace_plan
from lcusim.statevector import Register, RegisterLayout
from conftest import random_hamiltonian, random_state
from reference import register_trace

COST = CostModel(d=0.3, d_ctrl=0.7, m=0.1)


def assert_same_trace(plan, psi):
    new, ref = trace_plan(plan, psi, COST), register_trace(plan, psi, COST)
    assert len(new.cond_probs) == len(ref.cond_probs)
    assert np.abs(np.subtract(new.cond_probs, ref.cond_probs)).max() <= 1e-12
    assert new.abort_costs == ref.abort_costs
    assert new.success_cost == ref.success_cost
    if ref.final_system_state is None:
        assert new.final_system_state is None
    else:
        assert fidelity(new.final_system_state, ref.final_system_state) > 1 - 1e-12
    return new


class TestAgainstRegisterTrace:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["w_hk", "wtilde", "wunary"]),
        st.integers(1, 4),
    )
    def test_random_plans(self, seed, family, order):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        H = random_hamiltonian(n, int(rng.integers(1, min(5, 4**n))), rng)
        psi = random_state(n, rng)
        tau = float(rng.uniform(0.01, 0.5)) / sum(t.weight for t in H.terms)
        if family == "w_hk":
            plan = build_w_hk(H, order)
        elif family == "wtilde":
            plan = build_w_tilde(H, tau, min(order, 3))
        else:
            plan = build_w_unary(H, tau, order)
        assert_same_trace(plan, psi)

    @pytest.mark.parametrize(
        "raw, basis, cond",
        [
            ([(0.5, "I"), (-0.5, "Z")], 0, (0.0, 0.0, 0.0)),  # (I - Z)/2 annihilates |0>
            ([(0.5, "X"), (0.5j, "Y")], 1, (1.0, 0.0, 0.0)),  # |0><1| maps |1> to |0>, then to 0
        ],
    )
    def test_dead_branch(self, raw, basis, cond):
        H = canonicalize(1, raw)
        trace = assert_same_trace(build_w_hk(H, 3), np.eye(2, dtype=complex)[basis])
        assert trace.cond_probs == pytest.approx(cond, abs=1e-15)
        assert trace.final_system_state is None

    @pytest.mark.parametrize("family", ["w_hk", "wtilde", "wunary"])
    def test_tau_zero(self, family, ising4):
        rng = np.random.default_rng(4)
        psi = random_state(4, rng)
        plan = {
            "w_hk": build_w_hk(ising4, 2),
            "wtilde": build_w_tilde(ising4, 0.0, 2),
            "wunary": build_w_unary(ising4, 0.0, 2),
        }[family]
        trace = assert_same_trace(plan, psi)
        if family != "w_hk":
            assert trace.success_prob == pytest.approx(1.0, abs=1e-12)

    def test_collapsed_width(self, ising4, psi0_4, monkeypatch):
        import lcusim.sampler as sampler

        widths = []
        init_state = sampler.init_state
        monkeypatch.setattr(
            sampler, "init_state", lambda lay, psi: widths.append(lay.total) or init_state(lay, psi)
        )
        trace_plan(build_w_tilde(ising4, 0.05, 3), psi0_4)
        trace_plan(build_w_unary(ising4, 0.05, 7), psi0_4)  # a 32-qubit layout
        trace_plan(build_w_hk(ising4, 2), psi0_4)
        assert widths == [4 + 3, 4 + 7, 4]


def _one_block(H, *ins, extra=()):
    """A W_{H^k}-style plan on system + l (+ extra registers) with the given instructions."""
    n, lw = H.n, H.l_width
    regs = [Register("system", n, 0), Register("l", lw, n)]
    for name, width in extra:
        regs.append(Register(name, width, sum(r.width for r in regs)))
    return CircuitPlan(RegisterLayout(tuple(regs)), H, tuple(ins), family="w_hk")


class TestPlanShape:
    H = canonicalize(1, [(1.0, "X"), (0.5, "Z")])
    psi = np.array([0.6, 0.8], dtype=complex)

    def _raises(self, plan, match, error=LayoutError):
        with pytest.raises(error, match=match):
            trace_plan(plan, self.psi)

    def test_builder_shape_accepted(self):
        plan = _one_block(self.H, LcuBlock("l"), Measure("l"))
        assert_same_trace(plan, self.psi)

    def test_control_inside_l_register(self):
        self._raises(_one_block(self.H, LcuBlock("l", control=1), Measure("l")), "instruction 0")

    def test_control_inside_system(self):
        self._raises(_one_block(self.H, LcuBlock("l", control=0), Measure("l")), "instruction 0")

    def test_plan_ends_inside_cycle(self):
        # a block whose l-register is never measured
        plan = _one_block(self.H, LcuBlock("l"), Measure("l"), LcuBlock("l"))
        self._raises(plan, "never measured")

    def test_second_block_before_the_first_is_measured(self):
        plan = _one_block(self.H, LcuBlock("l"), LcuBlock("l"), Measure("l"), Measure("l"))
        self._raises(plan, "instruction 1")

    def test_l_register_measured_with_no_block_pending(self):
        self._raises(_one_block(self.H, Measure("l"), LcuBlock("l"), Measure("l")), "instruction 0")

    def test_wrong_amplitude_length(self):
        # three terms need a 2-qubit l-register; prepare_amplitudes refuses a 1-qubit one
        H = canonicalize(1, [(1.0, "X"), (0.5, "Z"), (0.25, "Y")])
        layout = RegisterLayout((Register("system", 1, 0), Register("l", 1, 1)))
        plan = CircuitPlan(layout, H, (LcuBlock("l"), Measure("l")), family="w_hk")
        self._raises(plan, "too narrow", LcusimError)

    def test_other_register_measured_while_a_select_is_pending(self):
        c = np.array([0.6, 0.8])
        plan = _one_block(
            self.H, Prepare("c", c), LcuBlock("l", control=2), Prepare("c", c, adjoint=True),
            Measure("c", final=True), Measure("l"), extra=[("c", 1)],
        )
        self._raises(plan, "instruction 3")

    def test_l_registers_measured_out_of_select_order(self, ising4):
        plan = build_w_unary(ising4, 0.05, 2)
        ins = list(plan.instructions)
        i0 = ins.index(Measure("l0"))
        ins[i0], ins[i0 + 1] = ins[i0 + 1], ins[i0]
        swapped = CircuitPlan(plan.layout, plan.hamiltonian, tuple(ins), plan.family)
        with pytest.raises(LayoutError, match=f"instruction {i0}"):
            trace_plan(swapped, np.eye(16)[0])


class TestGroupedKernel:
    def test_trace_builds_each_group_diagonal_once(self, monkeypatch):
        # the 15 blocks of a W-tilde kappa = 4 trace share one factor vector: one build of
        # the n + 1 group diagonals, then one pass per group and block, no per-term gather
        H = build_ising(6, 1.0, 0.5)
        plan, psi = build_w_tilde(H, 0.05, 4), random_state(6, np.random.default_rng(4))
        build, builds = hamiltonian._group_diagonals, []

        def recording(*args):
            builds.append(build(*args))
            return builds[-1]

        with monkeypatch.context() as m:
            m.setattr(hamiltonian, "_group_diagonals", recording)
            trace = trace_plan(plan, psi, COST)
        assert len(builds) == 1
        assert len(builds[0]) == H.n + 1  # x = 0 (the ZZ couplings) and one X field per site
        ref = register_trace(plan, psi, COST)
        assert len(trace.cond_probs) == len(ref.cond_probs) == 15 + 1  # l-registers, then k
        assert np.abs(np.subtract(trace.cond_probs, ref.cond_probs)).max() <= 1e-12
