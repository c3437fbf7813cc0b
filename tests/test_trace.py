"""The moment trace against the register-level, array and exact references."""
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lcusim.circuits import (
    CircuitPlan,
    LcuBlock,
    Measure,
    Prepare,
    build_w_hk,
    build_w_tilde,
    build_w_unary,
)
from lcusim import hamiltonian, sampler
from lcusim.errors import LayoutError, NormalizationError, ResourceLimitError
from lcusim.hamiltonian import build_ising, canonicalize
from lcusim.oracle import chain_probabilities, success_prob_wtilde
from lcusim.sampler import trace_plan
from lcusim.resources import count
import reference
from conftest import random_hamiltonian, random_state
from reference import (array_trace, compile_plan, exact_wtilde_chain, fidelity, register_trace,
                       simulate_compiled)


def assert_same_trace(plan, psi):
    """``trace_plan`` and the array reference both equal the register-level trace."""
    new, ref = trace_plan(plan, psi), register_trace(plan, psi)
    for got in (new, array_trace(plan, psi)):
        assert len(got.cond_probs) == len(ref.cond_probs) == plan.measure_count
        assert np.abs(np.subtract(got.cond_probs, ref.cond_probs)).max(initial=0.0) <= 1e-12
        if ref.final_system_state is None:
            assert got.final_system_state is None
        else:
            assert fidelity(got.final_system_state, ref.final_system_state) > 1 - 1e-12
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

    def test_underflowing_taylor_rows(self, ising4):
        # at tau * l1 = 2e-60 the weights beta_6 and beta_7 underflow to 0, so the trace
        # keeps 6 of the 8 values of k and gathers the rows of each control bit
        plan = build_w_tilde(ising4, 1e-60 / 2.5, 3)
        assert np.count_nonzero(plan.instructions[0].amps) == 6
        assert_same_trace(plan, random_state(4, np.random.default_rng(5)))

    def test_collapsed_width(self):
        # the unary register holds only its K + 1 values |1^k 0^(K-k)>: K = 23 on 2 sites
        # traces on 24 rows x 4 amplitudes, where all its qubits would be 2 + 23
        H, tau = build_ising(2, 1.0, 0.5), 0.3
        psi = random_state(2, np.random.default_rng(6))
        trace = trace_plan(build_w_unary(H, tau, 23), psi)
        assert trace.success_prob == pytest.approx(success_prob_wtilde(H, psi, tau, 23), abs=1e-12)

    @pytest.mark.parametrize(
        "n, K, tau", [(4, 40, 0.05), (4, 40, 0.8), (2, 300, 0.5), (8, 31, 0.3)]
    )
    def test_unary_trace_matches_the_oracle(self, n, K, tau):
        # past K = 62 the unary values 2^K - 1 outgrow int64 and the rows hold Python ints
        H = build_ising(n, 1.0, 0.5)
        psi = random_state(n, np.random.default_rng(K))
        trace = trace_plan(build_w_unary(H, tau, K), psi)
        assert trace.success_prob == pytest.approx(success_prob_wtilde(H, psi, tau, K), rel=1e-12)

    def test_wide_trace_refused_before_allocating(self):
        # a 5-qubit k register on 20 system qubits is a 25-qubit circuit, over the cap that
        # bounds the simulated width: refused before any allocation
        plan = build_w_tilde(build_ising(20, 1.0, 0.5), 0.05, 5)
        psi = np.eye(1, 1 << 20, dtype=complex)[0]
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="25 qubits"):
                trace_plan(plan, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


_C = np.array([0.6, 0.8])


def _one_block(H, *ins, extra=()):
    """A W_{H^k}-style plan on l (and the extra (name, width) registers) with the given
    instructions."""
    return CircuitPlan({"l": H.l_width, **dict(extra)}, H, tuple(ins))


class TestPlanShape:
    """``CircuitPlan`` refuses every plan that no success-path trace can run."""

    H = canonicalize(1, [(1.0, "X"), (0.5, "Z")])
    psi = np.array([0.6, 0.8], dtype=complex)

    def _raises(self, *ins, match, extra=()):
        with pytest.raises(LayoutError, match=match):
            _one_block(self.H, *ins, extra=extra)

    def test_builder_shape_accepted(self):
        plan = _one_block(self.H, LcuBlock("l"), Measure("l"))
        assert_same_trace(plan, self.psi)

    def test_a_list_plan_keeps_a_tuple_and_traces_as_its_tuple_twin(self):
        # the plan kept the list itself, and _walk's `instructions + (None,)` raised a bare
        # TypeError (can only concatenate list (not "tuple") to list)
        twin = build_w_tilde(self.H, 0.3, 2)
        instructions = list(twin.instructions)
        plan = CircuitPlan(twin.widths, self.H, instructions)
        instructions.clear()  # the plan holds its own copy
        assert plan.instructions == twin.instructions
        got, want = trace_plan(plan, self.psi), trace_plan(twin, self.psi)
        assert got.cond_probs == want.cond_probs and got.success_prob == want.success_prob
        assert np.array_equal(got.final_system_state, want.final_system_state)

    def test_control_inside_l_register(self):
        self._raises(LcuBlock("l", control=("l", 0)), Measure("l"), match="instruction 0")

    @pytest.mark.parametrize("name", ["system", "k", "l "])
    @pytest.mark.parametrize("role", ["Prepare", "Measure", "block", "control"])
    def test_a_register_not_in_widths_is_refused_at_its_instruction(self, role, name):
        # one rule for every role. The system is the Hamiltonian's qubits, not a register:
        # the trace's amplitude axis, not an axis of values, and no bit a block can read
        named = {"Prepare": [Prepare(name, _C), Prepare(name, _C, adjoint=True), Measure(name)],
                 "Measure": [Measure(name)],
                 "block": [LcuBlock(name), Measure(name)],
                 "control": [LcuBlock("l", (name, 0)), Measure("l")]}[role]
        self._raises(Prepare("c", _C), Prepare("c", _C, adjoint=True), Measure("c"), *named,
                     extra=[("c", 1)], match=f"^instruction 3: no register named {name!r}$")

    @pytest.mark.parametrize("name", [["l"], ["c"], 3], ids=repr)
    @pytest.mark.parametrize("role", ["Prepare", "Measure", "block", "control"])
    def test_a_register_name_that_is_not_a_str_is_refused(self, role, name):
        # a list name raised a bare TypeError (unhashable) before the plan was read
        named = {"Prepare": [Prepare(name, _C), Prepare(name, _C, adjoint=True), Measure(name)],
                 "Measure": [Measure(name)],
                 "block": [LcuBlock(name), Measure(name)],
                 "control": [LcuBlock("l", (name, 0)), Measure("l")]}[role]
        tracemalloc.start()
        try:
            self._raises(Prepare("c", _C), Prepare("c", _C, adjoint=True), Measure("c"), *named,
                         extra=[("c", 1)],
                         match=f"^instruction 3: no register named {re.escape(repr(name))}$")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("control", [(), ("c",), ("c", 0, 1), ["c", 0]], ids=repr)
    def test_a_control_that_is_not_a_register_bit_pair_is_refused(self, control):
        # () and ("c",) raised a bare IndexError; a triple and a list were accepted
        self._raises(Prepare("c", _C), LcuBlock("l", control), Measure("l"),
                     Prepare("c", _C, adjoint=True), Measure("c"), extra=[("c", 1)],
                     match=re.escape(f"instruction 1: control {control!r} is not a (register, bit)"))

    def test_an_instruction_of_no_kind_is_refused(self):
        # a None instruction raised AttributeError
        self._raises(LcuBlock("l"), None, Measure("l"),
                     match="^instruction 1: None is not a Prepare, LcuBlock or Measure$")

    @pytest.mark.parametrize("bit", [1, -1, 0.0, 0.5, True])
    def test_control_bit_outside_its_register(self, bit):
        # a float bit passed the range check and failed in the trace's shift
        self._raises(Prepare("c", _C), LcuBlock("l", ("c", bit)), Measure("l"),
                     Prepare("c", _C, adjoint=True), Measure("c"), extra=[("c", 1)],
                     match=f"instruction 1: control \\('c', {bit}\\) is an l-register bit or out")

    def test_plan_ends_inside_cycle(self):
        # a block whose l-register is never measured
        self._raises(LcuBlock("l"), Measure("l"), LcuBlock("l"), match="never measured")

    def test_second_block_before_the_first_is_measured(self):
        self._raises(
            LcuBlock("l"), LcuBlock("l"), Measure("l"), Measure("l"), match="instruction 1"
        )

    def test_l_register_measured_with_no_block_pending(self):
        self._raises(Measure("l"), LcuBlock("l"), Measure("l"), match="instruction 0")

    def test_wrong_amplitude_length(self):
        # three terms need a 2-qubit l-register; a 4-entry Prepare does not fit a 1-qubit one
        H = canonicalize(1, [(1.0, "X"), (0.5, "Z"), (0.25, "Y")])
        with pytest.raises(LayoutError, match="too narrow"):
            CircuitPlan({"l": 1}, H, (LcuBlock("l"), Measure("l")))
        self._raises(Prepare("c", np.full(4, 0.5)), Measure("c"), match="2\\^1", extra=[("c", 1)])

    def test_amplitude_count_neither_binary_nor_unary(self):
        # a 3-qubit register takes 8 (binary) or 4 (unary) amplitudes, not 3
        amps = np.full(3, 1 / np.sqrt(3))
        self._raises(Prepare("c", amps), Measure("c"), match="0: needs 2\\^3 or 4", extra=[("c", 3)])

    def test_adjoint_is_keyword_only(self):
        # an old positional style argument cannot read as an adjoint
        with pytest.raises(TypeError):
            Prepare("c", np.array([0.6, 0.8]), "dense")

    def test_prepare_on_an_l_register(self):
        c = np.array([0.6, 0.8])
        self._raises(Prepare("l", c), LcuBlock("l"), Measure("l"), match="is an l-register")

    def test_unnormalized_prepare(self):
        with pytest.raises(NormalizationError, match="instruction 0"):
            _one_block(self.H, Prepare("c", np.array([0.6, 0.6])), Measure("c"), extra=[("c", 1)])

    def test_unary_prepare_on_the_unary_values(self):
        # 3 amplitudes on a 2-qubit register are unary, on |00>, |10> and |11> (values 0, 1
        # and 3): bit 1 is set on value 3 alone, so the block acts on the rows of weight 0.64^2
        amps = np.array([0.6, 0.48, 0.64])
        plan = _one_block(self.H, Prepare("c", amps), LcuBlock("l", ("c", 1)), Measure("l"),
                          Prepare("c", amps, adjoint=True), Measure("c"), extra=[("c", 2)])
        trace = assert_same_trace(plan, self.psi)
        h = np.array([[0.5, 1.0], [1.0, -0.5]]) * (-1j / 1.5)  # H~ = (-i / l1)(X + Z / 2)
        p = np.linalg.norm((0.36 + 0.2304) * self.psi + 0.4096 * h @ self.psi) ** 2
        assert trace.success_prob == pytest.approx(p, abs=1e-12)
        assert simulate_compiled(compile_plan(plan), self.psi)[1] == pytest.approx(p, abs=1e-12)

    def test_prepared_ancilla_never_measured(self):
        self._raises(Prepare("c", np.array([0.6, 0.8])), match="c is never", extra=[("c", 1)])

    def test_other_register_measured_while_a_select_is_pending(self):
        c = np.array([0.6, 0.8])
        self._raises(
            Prepare("c", c), LcuBlock("l", ("c", 0)), Prepare("c", c, adjoint=True),
            Measure("c"), Measure("l"), extra=[("c", 1)], match="instruction 3",
        )

    def test_second_register_prepared_while_one_is_live(self):
        # the moment trace holds the rows of one register at a time
        c = np.array([0.6, 0.8])
        self._raises(Prepare("c", c), Prepare("t", c), Measure("t"), Measure("c"),
                     extra=[("c", 1), ("t", 1)], match="instruction 1: t prepared while c is live")

    @pytest.mark.parametrize("after", ["block", "measure-of-another-register", "third-prepare"])
    def test_state_changed_between_the_second_prepare_and_its_measure(self, after):
        # only the Measures of l-registers may come between; the unary plan's come there
        c = np.array([0.6, 0.8])
        between = {
            "block": [LcuBlock("l", ("c", 0)), Measure("l")],
            "measure-of-another-register": [Measure("t")],
            "third-prepare": [Prepare("c", c)],
        }[after]
        self._raises(Prepare("c", c), Prepare("c", c, adjoint=True), *between, Measure("c"),
                     extra=[("c", 1), ("t", 1)],
                     match="instruction 2: only term-register Measures may come between c's adjoint")

    def test_l_measures_between_the_second_prepare_and_its_measure(self):
        c = np.array([0.6, 0.8])
        plan = _one_block(self.H, Prepare("c", c), LcuBlock("l", ("c", 0)),
                          Prepare("c", c, adjoint=True), Measure("l"), Measure("c"),
                          extra=[("c", 1)])
        assert_same_trace(plan, self.psi)

    def test_adjoint_opens_a_register(self):
        self._raises(Prepare("c", _C, adjoint=True), Measure("c"), extra=[("c", 1)],
                     match="instruction 0: c is opened by an adjoint")

    def test_register_reopened_before_its_adjoint(self):
        self._raises(Prepare("c", _C), Prepare("c", _C), Prepare("c", _C, adjoint=True),
                     Measure("c"), extra=[("c", 1)],
                     match="instruction 1: c is reopened before its adjoint")

    @pytest.mark.parametrize("other", [[0.8, 0.6], [-0.6, -0.8], [0.6j, 0.8], [0.6, 0.8, 0.0]])
    def test_adjoint_of_other_amplitudes(self, other):
        # of other values, phases or length than the opening column
        self._raises(Prepare("c", _C), LcuBlock("l", ("c", 0)), Measure("l"),
                     Prepare("c", np.array(other), adjoint=True), Measure("c"), extra=[("c", 1)],
                     match="instruction 3: c's adjoint has other amplitudes")

    def test_adjoint_of_an_equal_copy_accepted(self):
        plan = _one_block(self.H, Prepare("c", _C), LcuBlock("l", ("c", 0)), Measure("l"),
                          Prepare("c", _C.copy(), adjoint=True), Measure("c"), extra=[("c", 1)])
        assert_same_trace(plan, self.psi)

    @pytest.mark.parametrize("ins, at", [
        ((Prepare("c", _C), Measure("c")), 1),
        ((Prepare("c", _C), LcuBlock("l", ("c", 0)), Measure("l"), Measure("c")), 3),
        ((Prepare("c", _C), Measure("t"), Prepare("c", _C, adjoint=True), Measure("c")), 1),
    ], ids=["no-adjoint", "after-a-block", "another-register"])
    def test_measured_before_the_adjoint(self, ins, at):
        self._raises(*ins, extra=[("c", 1), ("t", 1)],
                     match=f"instruction {at}: {ins[at].register} is measured before its adjoint")

    def test_measure_of_a_never_prepared_ancilla(self):
        self._raises(LcuBlock("l"), Measure("l"), Measure("c"), extra=[("c", 1)],
                     match="instruction 2: c is measured before its adjoint")

    def test_l_registers_measured_out_of_select_order(self, ising4):
        plan = build_w_unary(ising4, 0.05, 2)
        ins = list(plan.instructions)
        i0 = ins.index(Measure("l0"))
        ins[i0], ins[i0 + 1] = ins[i0 + 1], ins[i0]
        with pytest.raises(LayoutError, match=f"instruction {i0}"):
            CircuitPlan(plan.widths, plan.hamiltonian, tuple(ins))


_REGISTERS = ["system", "l0", "l1", "c", "u"]
_DENSE = np.sqrt([0.4, 0.3, 0.2, 0.1])
_SPARSE = np.array([0.0, 0.6, 0.0, 0.8])  # values 1 and 3 only
_UNARY = np.array([0.6, 0.48, 0.64])  # on |00>, |10> and |11>
_U_PREPARES = [_DENSE, _SPARSE, _UNARY]  # 2-qubit registers: binary and unary amplitudes
_CONTROLS = [None, ("c", 0), ("c", 1), ("u", 0), ("u", 1), ("system", 1), ("l0", 0), ("l1", 1)]
_INSTRUCTION = st.one_of(
    st.builds(LcuBlock, st.sampled_from(_REGISTERS), st.sampled_from(_CONTROLS)),
    st.builds(Measure, st.sampled_from(_REGISTERS)),
    st.builds(
        lambda register, amps, adjoint: Prepare(register, amps, adjoint=adjoint),
        st.sampled_from(_REGISTERS),
        st.sampled_from(_U_PREPARES + [_C]),
        st.booleans(),
    ),
)


def _cycle(register, amps, name, bit):
    """A W-tilde-style cycle: Prepare, one controlled block and its measurement, the adjoint
    Prepare and the measurement of the control register."""
    return [Prepare(register, amps), LcuBlock(name, (register, bit)), Measure(name),
            Prepare(register, amps, adjoint=True), Measure(register)]


# single instructions, blocks followed by their measurement, and whole W-tilde-style
# cycles on the control registers, so that many draws are plans that run
_INSTRUCTIONS = st.lists(
    st.one_of(
        _INSTRUCTION.map(lambda ins: [ins]),
        st.builds(
            lambda name, control: [LcuBlock(name, control), Measure(name)],
            st.sampled_from(["l0", "l1"]),
            st.sampled_from(_CONTROLS),
        ),
        st.builds(lambda name: _cycle("c", _C, name, 0), st.sampled_from(["l0", "l1"])),
        st.builds(
            lambda amps, name, bit: _cycle("u", amps, name, bit),
            st.sampled_from(_U_PREPARES),
            st.sampled_from(["l0", "l1"]),
            st.integers(0, 1),
        ),
    ),
    max_size=5,
).map(lambda units: [ins for unit in units for ins in unit])


class TestPlanValidity:
    """A plan is refused by ``CircuitPlan`` or run alike by the trace, the register-level
    reference and ``count``."""

    H = canonicalize(2, [(0.7, "XZ"), (-0.4, "ZI"), (0.3, "YY")])  # 2-qubit l-registers
    WIDTHS = {"l0": 2, "l1": 2, "c": 1, "u": 2}

    @settings(max_examples=300, deadline=None)
    @given(_INSTRUCTIONS, st.integers(0, 2**32 - 1))
    @example([LcuBlock("l0", ("system", 0)), Measure("l0")], 0)
    @example(_cycle("u", _UNARY, "l0", 1) + _cycle("u", _SPARSE, "l1", 0), 0)
    @example(_cycle("c", _C, "l0", 0) + _cycle("u", _UNARY, "l1", 0), 1)
    def test_refused_or_run_by_every_consumer(self, instructions, seed):
        try:
            plan = CircuitPlan(self.WIDTHS, self.H, tuple(instructions))
        except LayoutError:
            return
        assert_same_trace(plan, random_state(2, np.random.default_rng(seed)))
        assert count(plan) == compile_plan(plan).counts()

    @settings(max_examples=300, deadline=None)
    @given(_INSTRUCTIONS, st.integers(0, 2**32 - 1))
    @example([Prepare("c", _C), Prepare("c", _C), Measure("c")], 0)
    @example([Prepare("u", _DENSE, adjoint=True), LcuBlock("l0", ("u", 0)), Measure("l0"),
              Prepare("u", _DENSE, adjoint=True), Measure("u")], 1)
    @example(_cycle("u", _UNARY, "l0", 1) + _cycle("u", _DENSE, "l1", 0), 2)
    def test_trace_does_not_depend_on_the_completion(self, instructions, seed):
        # the reference's Prepares become U diag(1, e^{i theta_1}, ..): column 0, all that a
        # Prepare closed by its own adjoint shows, is kept, and every accepted plan runs alike
        try:
            plan = CircuitPlan(self.WIDTHS, self.H, tuple(instructions))
        except LayoutError:
            return
        completion = reference.completion_unitary

        def rephased(amps):
            U = completion(amps)
            theta = np.random.default_rng([seed, U.shape[0]]).uniform(0, 2 * np.pi, U.shape[0])
            theta[0] = 0.0
            return U * np.exp(1j * theta)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(reference, "completion_unitary", rephased)
            assert_same_trace(plan, random_state(2, np.random.default_rng(seed)))


class TestExactChain:
    """The q chain of a small W-tilde plan against Gaussian-rational arithmetic: rational
    weights, tau l1 and psi, so every q is exact (``reference.exact_wtilde_chain``)."""

    RAW = [(Fraction(1), "ZZ"), (Fraction(-1, 2), "XI"), (Fraction(1, 4), "IX"),
           (Fraction(3, 8), "YY")]  # l1 = 17/8
    PSI = [(1, 0), (2, 1), (-1, 0), (0, 3)]  # unnormalized

    def _chains(self, tau, kappa):
        H = canonicalize(2, [(float(c), letters) for c, letters in self.RAW])
        x = tau * sum(abs(c) for c, _ in self.RAW)
        assert float(tau) * hamiltonian.l1_norm(H) == float(x)  # tau l1 is exact in floats too
        exact = [float(q) for q in exact_wtilde_chain(self.RAW, 2, x, kappa, self.PSI)]
        psi = np.array([complex(*a) for a in self.PSI])
        plan = build_w_tilde(H, float(tau), kappa)
        return exact, [t(plan, psi / np.linalg.norm(psi)).cond_probs for t in (trace_plan, array_trace)]

    def test_small_case(self):
        exact, chains = self._chains(Fraction(1, 4), 3)  # tau l1 = 17/32
        for chain in chains:
            assert np.abs(np.subtract(chain, exact)).max() <= 1e-14

    def test_cancelling_collapse(self):
        # at tau l1 = 85/8 the collapsed state sum_k w_k H~^k psi is ~ e^{-tau l1} U psi
        # while its terms reach w_k ~ 0.12: its q, 1.2e-7, keeps ~13 of 16 digits
        exact, chains = self._chains(Fraction(5), 5)
        assert 1e-7 < exact[-1] < 2e-7
        for chain in chains:
            assert np.abs(np.subtract(chain, exact)).max() <= 1e-14
            assert abs(chain[-1] / exact[-1] - 1) <= 1e-12

    def test_large_tau_l1(self):
        # tau l1 = 200: a_0 = sqrt(w_0) ~ 2.6e-40. The array reference formed its k = 0
        # amplitude as d_0 (1 - 2 |v_0|^2), a difference near 1 that rounded to 2.2e-16, and
        # its q's were off by up to 0.49996; the moment trace was within 2e-16
        H, psi = build_ising(2, 1.0, 0.5), random_state(2, np.random.default_rng(9))
        raw = [(Fraction(1), "ZZ"), (Fraction(1, 2), "XI"), (Fraction(1, 2), "IX")]  # H's terms
        exact = exact_wtilde_chain(raw, 2, Fraction(200), 7,
                                   [(Fraction(a.real), Fraction(a.imag)) for a in psi.tolist()])
        plan, exact = build_w_tilde(H, 100.0, 7), np.array(exact, float)
        for trace in (trace_plan, array_trace):
            assert np.abs(np.subtract(trace(plan, psi).cond_probs, exact)).max() <= 1e-14


class TestMomentTrace:
    def test_pass_stops_at_the_last_nonzero_amplitude(self, monkeypatch):
        # kappa = 17 has 2^17 - 1 blocks, but at tau = 0.05 the Taylor amplitudes past
        # k = 121 are 0, so no row reaches a higher power of H~ and the pass stops there
        H = build_ising(2, 1.0, 0.5)
        plan, psi = build_w_tilde(H, 0.05, 17), random_state(2, np.random.default_rng(17))
        last = int(np.flatnonzero(plan.instructions[0].amps)[-1])
        calls, apply = [], sampler.apply_rescaled
        monkeypatch.setattr(sampler, "apply_rescaled", lambda *a: calls.append(1) or apply(*a))
        trace = trace_plan(plan, psi)
        assert 0 < len(calls) <= last < 200
        assert trace.success_prob == pytest.approx(
            success_prob_wtilde(H, psi, 0.05, (1 << 17) - 1), abs=1e-12
        )
        assert sum(q != 1.0 for q in trace.cond_probs) < 2 * last

    def test_plans_on_one_hamiltonian_share_the_pass(self, monkeypatch):
        # three W-tilde plans and a W_{H^k} plan: one pass of psi to degree 7 for all four
        H = build_ising(3, 1.0, 0.5)
        plans = [build_w_tilde(H, 0.3, kappa) for kappa in (1, 2, 3)] + [build_w_hk(H, 2)]
        psi = random_state(3, np.random.default_rng(8))
        calls, apply = [], sampler.apply_rescaled
        monkeypatch.setattr(sampler, "apply_rescaled", lambda *a: calls.append(1) or apply(*a))
        shared = sampler._traces(plans, psi)
        assert len(calls) == 7
        for plan, trace in zip(plans, shared):  # each as it is traced on its own
            alone = trace_plan(plan, psi)
            assert trace.cond_probs == alone.cond_probs
            assert np.array_equal(trace.final_system_state, alone.final_system_state)


class TestRescaledPass:
    """Where nu_m = ||H~^m phi||^2 would leave the float range, the pass holds H~^m phi times
    a power of 2 and the q's are ratios at one scale."""

    def test_a_long_chain_is_not_read_as_dead(self):
        # nu_m = 2^-m: unscaled, it underflowed past m = 1074 and the last 27 q's read 0
        H, psi = build_ising(2, 1.0, 0.5), np.ones(4) / 2
        trace = trace_plan(build_w_hk(H, 1100), psi)
        assert trace.cond_probs == pytest.approx([0.5] * 1100, rel=1e-12)
        assert fidelity(trace.final_system_state, psi) > 1 - 1e-12

    def test_a_long_chain_matches_the_oracle(self):
        H = build_ising(2, 1.0, 0.5)
        psi = random_state(2, np.random.default_rng(9))
        trace, chain = trace_plan(build_w_hk(H, 1500), psi), chain_probabilities(H, psi, 1500)
        assert np.abs(np.subtract(trace.cond_probs, chain)).max() <= 1e-12
        assert trace.final_system_state is not None

    def test_rows_at_many_scales_match_the_reference(self, monkeypatch):
        # H~ = -i (Z + I/2) / 1.5 takes |1> to -1/3 of it: nu_m = 9^-m falls past 2^-900 at
        # m = 284, and the Taylor rows reach m = 341, so q's mix rows of two scales
        H, psi = canonicalize(1, [(1.0, "Z"), (0.5, "I")]), np.array([0.0, 1.0])
        plan, scales, krylov = build_w_tilde(H, 10.0, 9), [], sampler._krylov

        def recording(*args):
            out = krylov(*args)
            scales.append(out[1].max())  # e, the pass's exponents
            return out

        monkeypatch.setattr(sampler, "_krylov", recording)
        trace, ref = trace_plan(plan, psi), array_trace(plan, psi)
        assert max(scales) > 0
        assert np.abs(np.subtract(trace.cond_probs, ref.cond_probs)).max() <= 1e-12
        assert trace.success_prob == pytest.approx(success_prob_wtilde(H, psi, 10.0, 511), rel=1e-12)
        assert fidelity(trace.final_system_state, ref.final_system_state) > 1 - 1e-12


class TestGroupedKernel:
    def test_trace_builds_each_group_diagonal_once(self, monkeypatch):
        # the 15 blocks of a W-tilde kappa = 4 trace apply one H~ of one H: one build of
        # the n + 1 group diagonals, then one pass per group and block, no per-term gather
        H = build_ising(6, 1.0, 0.5)
        plan, psi = build_w_tilde(H, 0.05, 4), random_state(6, np.random.default_rng(4))
        build, builds = hamiltonian._group_diagonals, []

        def recording(*args):
            builds.append(build(*args))
            return builds[-1]

        with monkeypatch.context() as m:
            m.setattr(hamiltonian, "_group_diagonals", recording)
            trace = trace_plan(plan, psi)
        assert len(builds) == 1
        assert len(builds[0]) == H.n + 1  # x = 0 (the ZZ couplings) and one X field per site
        ref = register_trace(plan, psi)
        assert len(trace.cond_probs) == len(ref.cond_probs) == 15 + 1  # l-registers, then k
        assert np.abs(np.subtract(trace.cond_probs, ref.cond_probs)).max() <= 1e-12
