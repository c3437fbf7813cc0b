"""The moment trace against the register-level, array and exact references."""
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lcusim.circuits import (
    CircuitPlan,
    Prepared,
    Run,
    build_w_hk,
    build_w_tilde,
    build_w_unary,
)
from lcusim import hamiltonian, sampler
from lcusim.errors import LayoutError, NormalizationError, ResourceLimitError
from lcusim.hamiltonian import build_ising, canonicalize
from lcusim.oracle import chain_probabilities, success_prob_wtilde
from lcusim.sampler import trace_plan
from lcusim.resources import CostModel, count, shot_costs
import reference
from conftest import random_hamiltonian, random_state
from reference import (LcuBlock, Measure, Prepare, array_trace, compile_plan, exact_wtilde_chain,
                       fidelity, flat_shot_costs, register_trace, simulate_compiled, spell)


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
        assert np.count_nonzero(plan.steps[0].amps) == 6
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


def _one_block(H, *steps, extra=()):
    """A plan on l (and the extra (name, width) registers) with the given steps."""
    return CircuitPlan({"l": H.l_width, **dict(extra)}, H, tuple(steps))


def _naming(role, name):
    """A second step that names register ``name`` in ``role``, and the place it is refused."""
    return {"Prepared": (Prepared(name, _C), "step 1"),
            "run": (Run(name), "step 1"),
            "inner run": (Prepared("c", _C, (Run(name, 0),)), "step 1 run 0")}[role]


class TestPlanShape:
    """``CircuitPlan`` refuses every step that no success-path trace can run."""

    H = canonicalize(1, [(1.0, "X"), (0.5, "Z")])
    psi = np.array([0.6, 0.8], dtype=complex)

    def _raises(self, *steps, match, extra=()):
        with pytest.raises(LayoutError, match=match):
            _one_block(self.H, *steps, extra=extra)

    def test_builder_shape_accepted(self):
        plan = _one_block(self.H, Run("l"))
        assert spell(plan) == (LcuBlock("l"), Measure("l"))
        assert_same_trace(plan, self.psi)

    def test_a_list_plan_keeps_a_tuple_and_traces_as_its_tuple_twin(self):
        # the plan kept the list itself, and _walk's `instructions + (None,)` raised a bare
        # TypeError (can only concatenate list (not "tuple") to list) when plans held a flat
        # instruction tuple
        twin = build_w_tilde(self.H, 0.3, 2)
        steps = list(twin.steps)
        plan = CircuitPlan(twin.widths, self.H, steps)
        steps.clear()  # the plan holds its own copy
        assert plan.steps == twin.steps and plan.measure_count == twin.measure_count
        got, want = trace_plan(plan, self.psi), trace_plan(twin, self.psi)
        assert got.cond_probs == want.cond_probs and got.success_prob == want.success_prob
        assert np.array_equal(got.final_system_state, want.final_system_state)

    @pytest.mark.parametrize("arg, value, message", [
        ("widths", None, "widths is a NoneType, not a dict"),
        ("widths", [1, 2], "widths is a list, not a dict"),
        ("hamiltonian", None, "hamiltonian is a NoneType, not a HamiltonianLCU"),
        ("steps", None, "steps is a NoneType, not a tuple or list"),
        ("steps", Run("l"), "step 0 is a str, not a Run or Prepared"),  # a Run is a tuple
    ], ids=["widths-None", "widths-list", "hamiltonian-None", "steps-None", "steps-a-Run"])
    def test_a_malformed_plan_argument_is_refused(self, arg, value, message):
        # None or a list as widths and None as steps raised a bare TypeError, None as the
        # Hamiltonian AttributeError
        args = {"widths": {"l": 1}, "hamiltonian": self.H, "steps": ()} | {arg: value}
        with pytest.raises(LayoutError, match=f"^{re.escape(message)}$"):
            CircuitPlan(**args)

    @pytest.mark.parametrize("step", [None, LcuBlock("l"), Measure("l"), Prepare("c", _C)],
                             ids=repr)
    def test_a_step_of_no_kind_is_refused(self, step):
        # a flat instruction is not a step; a None instruction raised AttributeError
        name = type(step).__name__
        self._raises(Run("l"), step, extra=[("c", 1)],
                     match=f"^step 1 is a {name}, not a Run or Prepared$")

    @pytest.mark.parametrize("run", [None, LcuBlock("l"), ("l", 0, 1)], ids=repr)
    def test_a_run_of_no_kind_is_refused(self, run):
        name = type(run).__name__
        self._raises(Prepared("c", _C, (Run("l", 0), run)), extra=[("c", 1)],
                     match=f"^step 0 run 1 is a {name}, not a Run$")

    @pytest.mark.parametrize("runs", [None, {Run("l", 0)}, [Run("l", 0)], Run("l", 0)], ids=repr)
    def test_runs_that_are_not_a_tuple_are_refused(self, runs):
        # a list could change after the plan checked it; a Run is itself a tuple: its fields
        # are read as runs, and "l" is none
        match = "^step 0: runs is a (NoneType|set|list), not a tuple$|^step 0 run 0 is a str"
        self._raises(Prepared("c", _C, runs), extra=[("c", 1)], match=match)

    @pytest.mark.parametrize("name", ["system", "k", "l "])
    @pytest.mark.parametrize("role", ["Prepared", "run", "inner run"])
    def test_a_register_not_in_widths_is_refused_at_its_step(self, role, name):
        # one rule for every role. The system is the Hamiltonian's qubits, not a register:
        # the trace's amplitude axis, not an axis of values, and no bit a block can read
        step, where = _naming(role, name)
        self._raises(Prepared("c", _C), step, extra=[("c", 1)],
                     match=f"^{where}: no register named {name!r}$")

    @pytest.mark.parametrize("name", [["l"], ["c"], 3], ids=repr)
    @pytest.mark.parametrize("role", ["Prepared", "run", "inner run"])
    def test_a_register_name_that_is_not_a_str_is_refused(self, role, name):
        # a list name raised a bare TypeError (unhashable) before the plan was read
        step, where = _naming(role, name)
        tracemalloc.start()
        try:
            self._raises(Prepared("c", _C), step, extra=[("c", 1)],
                         match=f"^{where}: no register named {re.escape(repr(name))}$")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("bit", [1, -1, 0.0, 0.5, True, ("c", 0)], ids=repr)
    def test_control_bit_outside_its_register(self, bit):
        # a float bit passed the range check and failed in the trace's shift; a control is a
        # bit of the enclosing register, not the (register, bit) pair of an LcuBlock
        self._raises(Prepared("c", _C, (Run("l", bit),)), extra=[("c", 1)],
                     match=f"^step 0 run 0: control {re.escape(repr(bit))} is not a bit of c$")

    @pytest.mark.parametrize("control", [0, ("c", 0)], ids=repr)
    def test_a_run_outside_a_prepared_has_no_control(self, control):
        # no register is open, so no bit can gate the block
        self._raises(Run("l", control), extra=[("c", 1)],
                     match=f"^step 0: control {re.escape(repr(control))} is not a bit of a "
                           "Prepared$")

    @pytest.mark.parametrize("times", [0, -1, 1.5, True, "2", None], ids=repr)
    def test_times_that_is_not_a_positive_int_is_refused(self, times):
        for step, where in ((Run("l", None, times), "step 0"),
                            (Prepared("c", _C, (Run("l", 0, times),)), "step 0 run 0")):
            self._raises(step, extra=[("c", 1)],
                         match=f"^{where}: times {re.escape(repr(times))} is not a positive int$")

    @pytest.mark.parametrize("runs", [(Run("l", 0, 2),), (Run("l", 0), Run("l", None))],
                             ids=["two-blocks", "one-register-twice"])
    def test_a_deferred_run_is_one_block_on_an_l_register_of_its_own(self, runs):
        # every deferred block precedes every measurement, so a second block on one
        # l-register would find the first unmeasured
        self._raises(Prepared("c", _C, runs, deferred=True), extra=[("c", 1)],
                     match="^step 0: a deferred run is one block on an l-register of its own$")
        _one_block(self.H, Prepared("c", _C, runs), extra=[("c", 1)])  # measured at once: runs

    def test_wrong_amplitude_length(self):
        # three terms need a 2-qubit l-register; a 4-entry Prepare does not fit a 1-qubit one
        H = canonicalize(1, [(1.0, "X"), (0.5, "Z"), (0.25, "Y")])
        with pytest.raises(LayoutError, match="^step 0: l is too narrow for the terms$"):
            CircuitPlan({"l": 1}, H, (Run("l"),))
        with pytest.raises(LayoutError, match="^step 0 run 0: l is too narrow for the terms$"):
            CircuitPlan({"l": 1, "c": 1}, H, (Prepared("c", _C, (Run("l"),)),))
        self._raises(Prepared("c", np.full(4, 0.5)), match="^step 0: needs 2\\^1 or 2 amplitudes$",
                     extra=[("c", 1)])

    def test_amplitude_count_neither_binary_nor_unary(self):
        # a 3-qubit register takes 8 (binary) or 4 (unary) amplitudes, not 3
        amps = np.full(3, 1 / np.sqrt(3))
        self._raises(Prepared("c", amps), match="^step 0: needs 2\\^3 or 4", extra=[("c", 3)])

    def test_adjoint_and_deferred_are_keyword_only(self):
        # an old positional style argument cannot read as an adjoint or as deferred
        with pytest.raises(TypeError):
            Prepare("c", np.array([0.6, 0.8]), "dense")
        with pytest.raises(TypeError):
            Prepared("c", _C, (), True)

    def test_prepare_on_an_l_register(self):
        for step in (Prepared("l", _C, (Run("l", 0),)), Prepared("l", _C)):
            self._raises(step, Run("l"), match="^step 0: l is an l-register$")
        self._raises(Prepared("c", _C), Prepared("c", _C, (Run("c", 0),)), extra=[("c", 1)],
                     match="^step 0: c is an l-register$")

    def test_unnormalized_prepare(self):
        with pytest.raises(NormalizationError, match="^step 0: amplitudes are not normalized$"):
            _one_block(self.H, Prepared("c", np.array([0.6, 0.6])), extra=[("c", 1)])

    def test_unary_prepare_on_the_unary_values(self):
        # 3 amplitudes on a 2-qubit register are unary, on |00>, |10> and |11> (values 0, 1
        # and 3): bit 1 is set on value 3 alone, so the block acts on the rows of weight 0.64^2
        amps = np.array([0.6, 0.48, 0.64])
        plan = _one_block(self.H, Prepared("c", amps, (Run("l", 1),)), extra=[("c", 2)])
        trace = assert_same_trace(plan, self.psi)
        h = np.array([[0.5, 1.0], [1.0, -0.5]]) * (-1j / 1.5)  # H~ = (-i / l1)(X + Z / 2)
        p = np.linalg.norm((0.36 + 0.2304) * self.psi + 0.4096 * h @ self.psi) ** 2
        assert trace.success_prob == pytest.approx(p, abs=1e-12)
        assert simulate_compiled(compile_plan(plan), self.psi)[1] == pytest.approx(p, abs=1e-12)

    def test_l_measures_between_the_second_prepare_and_its_measure(self):
        plan = _one_block(self.H, Prepared("c", _C, (Run("l", 0),), deferred=True),
                          extra=[("c", 1)])
        instructions = spell(plan)
        assert instructions[1] == LcuBlock("l", ("c", 0)) and instructions[2].adjoint
        assert instructions[3:] == (Measure("l"), Measure("c"))
        assert_same_trace(plan, self.psi)


_DENSE = np.sqrt([0.4, 0.3, 0.2, 0.1])
_SPARSE = np.array([0.0, 0.6, 0.0, 0.8])  # values 1 and 3 only
_UNARY = np.array([0.6, 0.48, 0.64])  # on |00>, |10> and |11>
_U_PREPARES = [_DENSE, _SPARSE, _UNARY]  # 2-qubit registers: binary and unary amplitudes
_L = st.sampled_from(["l0", "l1"])


def _runs(bits):
    """Runs of 1 .. 3 blocks on l0 or l1, each controlled by one of ``bits``."""
    return st.lists(st.builds(Run, _L, st.sampled_from(bits), st.integers(1, 3)),
                    max_size=3).map(tuple)


def _deferred_runs(bits):
    """Runs of one block each, on distinct l-registers."""
    return st.lists(st.builds(Run, _L, st.sampled_from(bits), st.just(1)), max_size=2,
                    unique_by=lambda run: run.l_register).map(tuple)


def _prepared(register, amps, bits):
    return st.one_of(
        st.builds(lambda a, runs: Prepared(register, a, runs), amps, _runs(bits)),
        st.builds(lambda a, runs: Prepared(register, a, runs, deferred=True), amps,
                  _deferred_runs(bits)),
    )


# top-level runs, and a Taylor-style register c (one qubit) and u (two, binary and unary
# amplitudes) with immediate or deferred runs on any of their bits or none
_STEPS = st.lists(
    st.one_of(
        st.builds(Run, _L, st.none(), st.integers(1, 3)),
        _prepared("c", st.just(_C), [None, 0]),
        _prepared("u", st.sampled_from(_U_PREPARES), [None, 0, 1]),
    ),
    max_size=4,
)
_BAD_NAMES = ["system", "k", 3, ["l0"]]


def _bad_run(run, bad_controls):
    """``run`` with one field out of its range."""
    return st.one_of(
        st.sampled_from(_BAD_NAMES).map(lambda name: run._replace(l_register=name)),
        st.sampled_from(bad_controls).map(lambda bit: run._replace(control=bit)),
        st.sampled_from([0, -1, 1.5, True, None]).map(lambda times: run._replace(times=times)),
    )


def _bad_step(step):
    """``step`` with one field out of its range: a name, a width, a control bit, ``times``,
    an amplitude count, the runs, or the step itself."""
    if isinstance(step, Run):
        return _bad_run(step, [0, 1])
    register, amps, runs, deferred = step.register, step.amps, step.runs, step.deferred
    width = {"c": 1, "u": 2}[register]
    bad = [
        st.sampled_from(_BAD_NAMES + ["l0"]).map(lambda name: Prepared(name, amps, runs)),
        st.sampled_from([np.ones(1), np.full(5, 5**-0.5), np.eye(2) / 2**0.5]).map(
            lambda a: Prepared(register, a, runs, deferred=deferred)),
        st.sampled_from([None, {Run()}, [Run()], 3]).map(lambda r: Prepared(register, amps, r)),
        st.just(Prepared(register, amps, (Run("l0", 0), Run("l0", 0)), deferred=True)),
        st.sampled_from([None, LcuBlock("l0"), Measure("l0"), Prepare(register, amps)]),
    ]
    if runs:  # one run out of range
        bad.append(st.integers(0, len(runs) - 1).flatmap(lambda j: _bad_run(
            runs[j], [width, -1, 0.5, True, (register, 0)]).map(
            lambda run: Prepared(register, amps, runs[:j] + (run,) + runs[j + 1:],
                                 deferred=deferred))))
    return st.one_of(bad)


_UNITS = [0.1, 0.3, 1 / 3, 0.7, 2.0, 1e308]  # 1e308 overflows to inf in a sum


class TestPlanValidity:
    """Every well-formed list of steps is a plan that the trace, the register-level and the
    array references run alike and that ``count`` counts as compiled; every step with one
    field out of range is refused with ``LayoutError``."""

    H = canonicalize(2, [(0.7, "XZ"), (-0.4, "ZI"), (0.3, "YY")])  # 2-qubit l-registers
    WIDTHS = {"l0": 2, "l1": 2, "c": 1, "u": 2}

    @settings(max_examples=300, deadline=None)
    @given(_STEPS, st.integers(0, 2**32 - 1))
    @example([Prepared("u", _UNARY, (Run("l0", 1),)), Prepared("u", _SPARSE, (Run("l1", 0),))], 0)
    @example([Prepared("c", _C, (Run("l0", 0),)), Prepared("u", _UNARY, (Run("l1", 0),))], 1)
    @example([Run("l1", None, 2), Prepared("u", _DENSE, (Run("l0", 1), Run("l1", 0)),
                                           deferred=True), Run("l0")], 2)
    def test_run_alike_by_every_consumer(self, steps, seed):
        plan = CircuitPlan(self.WIDTHS, self.H, steps)
        instructions = spell(plan)
        assert plan.select_count == sum(isinstance(ins, LcuBlock) for ins in instructions)
        assert plan.measure_count == sum(isinstance(ins, Measure) for ins in instructions)
        assert_same_trace(plan, random_state(2, np.random.default_rng(seed)))
        assert count(plan) == compile_plan(plan).counts()

    @settings(max_examples=300, deadline=None)
    @given(_STEPS, st.lists(st.sampled_from(_UNITS), min_size=3, max_size=3))
    @example([Run("l1", None, 2)], [0.3, 0.7, 0.1]).via("0.3 + 0.1 + 0.3 + 0.1 != 2 * 0.4")
    def test_shot_costs_sum_the_spelled_circuit(self, steps, units):
        # each part priced once and carried across its run's repeats: every entry is the
        # float the flat walk sums one instruction at a time, to the bit
        plan, model = CircuitPlan(self.WIDTHS, self.H, steps), CostModel(*units)
        assert shot_costs(plan, model) == flat_shot_costs(plan, model)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), _STEPS.filter(bool), st.integers(0, 2**32 - 1))
    @example(None, [Run("l0", ("system", 0))], 0).via("a top-level control, as in the flat form")
    def test_one_bad_field_is_refused(self, data, steps, seed):
        # the l-registers l0 and l1 are in use, so a Prepared on one is refused too
        if data is not None:
            j = data.draw(st.integers(0, len(steps) - 1))
            steps = steps[:j] + [data.draw(_bad_step(steps[j]))] + steps[j + 1:]
        with pytest.raises(LayoutError):
            CircuitPlan(self.WIDTHS, self.H, steps + [Run("l0"), Run("l1")])

    @settings(max_examples=300, deadline=None)
    @given(_STEPS, st.integers(0, 2**32 - 1))
    @example([Prepared("u", _UNARY, (Run("l0", 1),)), Prepared("u", _DENSE, (Run("l1", 0),))], 2)
    def test_trace_does_not_depend_on_the_completion(self, steps, seed):
        # the reference's Prepares become U diag(1, e^{i theta_1}, ..): column 0, all that a
        # Prepare closed by its own adjoint shows, is kept, and every plan runs alike
        plan = CircuitPlan(self.WIDTHS, self.H, steps)
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
        last = int(np.flatnonzero(plan.steps[0].amps)[-1])
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
