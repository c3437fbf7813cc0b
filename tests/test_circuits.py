import math
import re
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lcusim import circuits, sampler
from lcusim.circuits import (
    CircuitPlan,
    LcuBlock,
    Measure,
    Prepare,
    Prepared,
    Run,
    amplitude_values,
    build_w_hk,
    build_w_tilde,
    build_w_unary,
    kappa_for,
    taylor_prepare_amplitudes,
    taylor_weights,
)
from lcusim.bliss import (BlissParams, FermionicOperator, build_hubbard_chain, jordan_wigner,
                          optimize_bliss)
from lcusim.errors import InvalidModelError, LayoutError, ResourceLimitError
from lcusim.hamiltonian import HamiltonianLCU, build_ising, canonicalize
from lcusim.oracle import chain_probabilities, success_prob_hk, success_prob_wtilde
from lcusim.resources import CostModel, count, runtime_bound
from lcusim.sampler import run_shots
from conftest import basis_state, random_hamiltonian
from reference import flat_w_hk, flat_w_tilde, flat_w_unary


class TestTaylorCoefficients:
    def test_values(self):
        beta = taylor_weights(0.05, 5.0, 3)
        x = 0.25
        assert np.allclose(beta, [1.0, x, x**2 / 2, x**3 / 6])
        assert beta.sum() == pytest.approx(1 + x + x**2 / 2 + x**3 / 6)
        assert taylor_weights(0.05, 5.0, 5).shape == (6,)  # K + 1 weights, any K

    def test_kappa_one_amplitudes(self):
        # tau*l1 = 0.25: amplitudes proportional to sqrt([1, 0.25]) -> sqrt(0.8), sqrt(0.2)
        amps = taylor_prepare_amplitudes(0.05, 5.0, 1)
        assert np.allclose(amps, [math.sqrt(0.8), math.sqrt(0.2)], atol=1e-12)

    def test_amplitudes_normalized(self):
        for K in (1, 2, 3, 7):
            amps = taylor_prepare_amplitudes(0.3, 4.0, K)
            assert amps.shape == (K + 1,)
            assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    def test_tau_zero(self):
        amps = taylor_prepare_amplitudes(0.0, 5.0, 3)
        assert np.allclose(amps, [1.0, 0, 0, 0])

    def test_bad_inputs(self):
        with pytest.raises(InvalidModelError):
            taylor_weights(0.1, 0.0, 3)
        with pytest.raises(InvalidModelError):
            taylor_weights(0.1, 1.0, 0)
        with pytest.raises(InvalidModelError):
            taylor_weights(-0.1, 1.0, 3)
        with pytest.raises(InvalidModelError):
            taylor_weights(math.nan, 1.0, 3)
        with pytest.raises(InvalidModelError):
            taylor_prepare_amplitudes(0.1, 1.0, 0)

    @pytest.mark.parametrize(
        "tau, K",
        [(1e100, 3), (1e300, 1), (1e308, 1), (1e77, 7)],
        ids=["norm-squared", "weight", "tau-l1", "fourth-weight"],
    )
    def test_overflow_rejected(self, tau, K):
        # tau l1 = 5e100: every weight is finite but ||beta||_1^2 is not; tau l1 = 5e77
        # overflows at beta_4 = (5e77)^4 / 4!
        with pytest.raises(InvalidModelError, match="overflow"):
            taylor_weights(tau, 5.0, K)

    @pytest.mark.parametrize("x, K", [(0.075, 2000), (1e-60, 40), (0.0, 5), (300.0, 3000)])
    def test_weights_past_the_first_underflow_are_zero(self, x, K):
        # the loop stops at the first weight that underflows to 0; the full loop's weights
        # past it are 0 too, so the array and its sum are bitwise the same
        full = [1.0]
        for k in range(1, K + 1):
            full.append(full[-1] * x / k)
        beta = taylor_weights(x, 1.0, K)
        assert full[-1] == 0.0  # each case reaches the underflow
        assert beta.tolist() == full and beta.sum() == np.array(full).sum()

    def test_an_order_past_the_register_cap_is_refused_before_allocating(self):
        # K + 1 weights of K = 2^40 would take 8 TiB (MemoryError); the unary plan of
        # K = 2^70 raised numpy's "Maximum allowed dimension exceeded"
        H = build_ising(2, 1.0, 0.5)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="^41 qubits exceeds simulation cap 24$"):
                taylor_weights(0.1, 1.0, 2**40)
            with pytest.raises(ResourceLimitError, match="^71 qubits"):
                build_w_unary(H, 0.1, 2**70)
            with pytest.raises(ResourceLimitError, match="^25 qubits"):
                taylor_weights(0.1, 1.0, 1 << 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_largest_finite_weights_kept(self):
        s = taylor_weights(1e50, 5.0, 3).sum()  # beta_3 ~ 2e151, ||beta||_1^2 ~ 4e302
        assert math.isfinite(s * s)

    def test_only_the_used_weights_are_checked(self):
        # tau l1 = 5e25: beta_5 ~ 3e126 and ||beta||_1^2 ~ 1e253 are finite, though
        # beta_7 ~ 2e176 would square past the largest float
        beta = taylor_weights(1e25, 5.0, 5)
        assert np.isfinite(beta).all() and math.isfinite(beta.sum() * beta.sum())
        with pytest.raises(InvalidModelError, match="overflow"):
            taylor_weights(1e25, 5.0, 7)

    @given(st.floats(0.01, 2.0), st.integers(1, 15))
    def test_beta_norm_below_exponential(self, x, K):
        assert taylor_weights(x, 1.0, K).sum() <= math.exp(x) + 1e-12


def _width(count: int) -> int:
    """The fewest qubits, at least 1, whose values 0 .. 2^w - 1 index ``count`` items."""
    w = 1
    while 1 << w < count:
        w += 1
    return w


@pytest.mark.parametrize("k", range(1, 71))
def test_index_widths_are_exact_past_the_float_mantissa(k):
    # a float log2 rounds 2^53 + 1 down to 2^53, so orders 0 .. 2^53 read as 53 bits
    for N in ((1 << k) - 1, 1 << k, (1 << k) + 1):
        assert kappa_for(N) == _width(N + 1)  # orders 0 .. N
        assert HamiltonianLCU.l_width.fget(SimpleNamespace(num_terms=N)) == _width(N)
    assert kappa_for(1) == kappa_for(0) == 1


_H2, _PSI2 = build_ising(2, 1.0, 0.5), basis_state(2, 0)
_PLAN2, _F2 = build_w_hk(_H2, 1), build_hubbard_chain(1, 1.0, 4.0)
_ORDER_SITES = {  # each public count: (call, the argument's name, values out of range, range)
    "kappa_for": (lambda v: kappa_for(v), "K", [-1], "at least 0"),
    "taylor_weights": (lambda v: taylor_weights(0.1, 1.0, v), "K", [0], "at least 1"),
    "build_w_hk": (lambda v: build_w_hk(_H2, v), "k", [0], "at least 1"),
    "build_w_tilde": (lambda v: build_w_tilde(_H2, 0.1, v), "kappa", [0], "at least 1"),
    "build_w_unary": (lambda v: build_w_unary(_H2, 0.1, v), "K", [0], "at least 1"),
    "build_ising": (lambda v: build_ising(v, 1.0, 0.5), "n_sites", [1], "at least 2"),
    "success_prob_hk": (lambda v: success_prob_hk(_H2, _PSI2, v), "k", [-1], "at least 0"),
    "chain_probabilities": (lambda v: chain_probabilities(_H2, _PSI2, v), "k", [-1], "at least 0"),
    "success_prob_wtilde": (lambda v: success_prob_wtilde(_H2, _PSI2, 0.1, v), "K", [0],
                            "at least 1"),
    "runtime_bound": (lambda v: runtime_bound(0.5, 0.5, 0.1, 1.0, v, 1.0), "K", [0], "at least 1"),
    "HamiltonianLCU": (lambda v: HamiltonianLCU(v, _H2.terms), "n", [0], "at least 1"),
    "canonicalize": (lambda v: canonicalize(v, [(1.0, "ZZ"), (0.5, "XI")]), "n", [0], "at least 1"),
    "FermionicOperator": (lambda v: FermionicOperator(v), "n_orb", [0, 25, 2**70], "in 1..24"),
    "BlissParams": (lambda v: BlissParams(0.0, np.zeros((2, 2)), v), "n_electrons", [-1, 3],
                    "in 0..2"),
    "optimize_bliss": (lambda v: optimize_bliss(_F2, v), "n_electrons", [-1, 3], "in 0..2"),
    "build_hubbard_chain": (lambda v: build_hubbard_chain(v, 1.0, 4.0), "n_sites", [0, 13],
                            "in 1..12"),
    "run_shots N": (lambda v: run_shots(_PLAN2, _PSI2, v, 0), "N", [0, 2**64 + 1],
                    f"in 1..{2**64}"),
    "run_shots seed": (lambda v: run_shots(_PLAN2, _PSI2, 10, v), "seed", [-1, 2**64],
                       f"in 0..{2**64 - 1}"),
}


@pytest.mark.parametrize("value", [2.0, True, np.int64(2), "2"], ids=repr)
@pytest.mark.parametrize("site", _ORDER_SITES)
def test_an_order_that_is_not_an_int_is_refused(site, value):
    # these raised AttributeError or a bare TypeError, took True for 1, or named register 'k';
    # HamiltonianLCU, canonicalize, BlissParams and optimize_bliss took 2.0 and True
    call, name, _, _ = _ORDER_SITES[site]
    message = f"{name} must be an int, got {value!r}"
    with pytest.raises(InvalidModelError, match=f"^{re.escape(message)}$"):
        call(value)
    call(2)


@pytest.mark.parametrize(
    "site, value", [(site, v) for site, (_, _, bad, _) in _ORDER_SITES.items() for v in bad])
def test_an_order_out_of_range_is_refused(site, value):
    # HamiltonianLCU's n < 1 raised InvalidHamiltonianError; FermionicOperator(2**70) numpy's
    # ValueError, and build_hubbard_chain(13) built a 26-orbital tensor
    call, name, _, bound = _ORDER_SITES[site]
    message = f"{name} must be {bound}, got {value!r}"
    with pytest.raises(InvalidModelError, match=f"^{re.escape(message)}$"):
        call(value)


_REAL_SITES = {  # each public real argument: (call, the argument's name, values out of range,
    # range); a call returns what the argument changes, comparable with ==
    "taylor_weights tau": (lambda v: tuple(taylor_weights(v, 1.0, 3)), "tau", [-1.0], "at least 0"),
    "taylor_weights alpha_norm": (lambda v: tuple(taylor_weights(0.1, v, 3)), "alpha_norm", [0.0],
                                  "at least 5e-324"),
    "taylor_prepare_amplitudes": (lambda v: tuple(taylor_prepare_amplitudes(v, 1.0, 3)), "tau",
                                  [-1.0], "at least 0"),
    "build_w_tilde": (lambda v: tuple(build_w_tilde(_H2, v, 2).instructions[0].amps), "tau",
                      [-1.0], "at least 0"),
    "build_w_unary": (lambda v: tuple(build_w_unary(_H2, v, 2).instructions[0].amps), "tau",
                      [-1.0], "at least 0"),
    "success_prob_wtilde": (lambda v: success_prob_wtilde(_H2, _PSI2, v, 3), "tau", [-1.0],
                            "at least 0"),
    "runtime_bound tau": (lambda v: runtime_bound(0.5, 0.5, v, 1.0, 3, 1.0), "tau", [-1.0],
                          "at least 0"),
    "runtime_bound l1": (lambda v: runtime_bound(0.5, 0.5, 0.1, v, 3, 1.0), "alpha_norm", [0.0],
                         "at least 5e-324"),
    "runtime_bound d_ctrl": (lambda v: runtime_bound(0.5, 0.5, 0.1, 1.0, 3, v), "d_ctrl", [-1.0],
                             "at least 0"),
    "CostModel d": (lambda v: CostModel(d=v), "d", [-1.0], "at least 0"),
    "CostModel d_ctrl": (lambda v: CostModel(d_ctrl=v), "d_ctrl", [-1.0], "at least 0"),
    "CostModel m": (lambda v: CostModel(m=v), "m", [-1.0], "at least 0"),
    "build_ising J": (lambda v: build_ising(2, v, 0.5), "J", [], None),
    "build_ising h": (lambda v: build_ising(2, 1.0, v), "h", [], None),
    "FermionicOperator": (lambda v: FermionicOperator(1, constant=v).constant, "constant", [], None),
    "BlissParams": (lambda v: BlissParams(v, np.zeros((2, 2)), 0).xi0, "xi0", [], None),
    "build_hubbard_chain t": (lambda v: jordan_wigner(build_hubbard_chain(2, v, 4.0)), "t", [],
                              None),
    "build_hubbard_chain U": (lambda v: jordan_wigner(build_hubbard_chain(2, 1.0, v)), "U", [],
                              None),
}


@pytest.mark.parametrize("value", [None, "1", True, 1j, math.nan, math.inf, 10**400],
                         ids=["None", "'1'", "True", "1j", "nan", "inf", "10**400"])
@pytest.mark.parametrize("site", _REAL_SITES)
def test_a_real_that_is_not_a_finite_real_number_is_refused(site, value):
    # these raised a bare TypeError or OverflowError, took True for 1 and "1" or 1j as a
    # coefficient, or read "costs must be finite and nonnegative" without naming the unit
    call, name, _, _ = _REAL_SITES[site]
    message = f"{name} must be a finite real number, got {value!r}"
    with pytest.raises(InvalidModelError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize(
    "site, value", [(site, v) for site, (_, _, bad, _) in _REAL_SITES.items() for v in bad])
def test_a_real_out_of_range_is_refused(site, value):
    call, name, _, bound = _REAL_SITES[site]
    message = f"{name} must be {bound}, got {value!r}"
    with pytest.raises(InvalidModelError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("value", [np.int64(2), Fraction(1, 2), np.float32(0.5)], ids=repr)
@pytest.mark.parametrize("site", _REAL_SITES)
def test_numpy_reals_and_fractions_give_the_float_result(site, value):
    # the rule passes them on unchanged; a float32 argument rounds the products it enters
    # to 24 bits, as it did before the rule
    call = _REAL_SITES[site][0]
    got, want = call(value), call(float(value))
    if isinstance(value, np.float32) and type(want) in (float, tuple):  # the Taylor weights
        assert got == pytest.approx(want, rel=1e-6, abs=0)
    else:
        assert got == want


def test_kappa_for_refuses_a_negative_order():
    with pytest.raises(InvalidModelError, match="^K must be at least 0, got -5$"):
        kappa_for(-5)
    assert kappa_for(0) == 1


class TestPlanWidths:
    """A plan names its ancilla registers' widths; the system is the Hamiltonian's n qubits."""

    def test_qubits_are_the_papers_widths(self):
        # n + ceil(log2 L) + kappa qubits for W-tilde, n + K ceil(log2 L) + K for the unary
        # circuit, n + ceil(log2 L) for W_{H^k}; L crosses the powers of two up to 64
        rng = np.random.default_rng(34)
        for L in range(1, 71):
            for n in (n for n in range(1, 5) if L < 4**n):  # L distinct non-identity strings
                H = random_hamiltonian(n, L, rng)
                lw = max(1, math.ceil(math.log2(L)))
                for kappa in (1, 2, 3):
                    assert count(build_w_tilde(H, 0.05, kappa)).qubits == n + lw + kappa
                for K in (1, 2, 5):
                    assert count(build_w_unary(H, 0.05, K)).qubits == n + K * lw + K
                assert count(build_w_hk(H, 2)).qubits == n + lw

    @pytest.mark.parametrize("width", [0, -1, 1.5, True])
    def test_a_width_that_is_not_a_positive_int_is_refused(self, ising4, width):
        message = f"register 'c': width {width!r} is not a positive int"
        with pytest.raises(LayoutError, match=re.escape(message)):
            CircuitPlan({"l": 3, "c": width}, ising4, (Run("l"),))

    def test_a_register_name_that_is_not_a_str_is_refused(self, ising4):
        with pytest.raises(LayoutError, match=re.escape("register ('l',): its name is not a str")):
            CircuitPlan({("l",): 3}, ising4, ())

    def test_the_term_count_is_read_once_per_plan(self, ising4, monkeypatch):
        # not once per block: 2.1M reads at kappa = 20
        plan, reads = build_w_tilde(ising4, 0.05, 5), []
        num_terms = HamiltonianLCU.num_terms
        monkeypatch.setattr(HamiltonianLCU, "num_terms",
                            property(lambda H: reads.append(1) or num_terms.fget(H)))
        CircuitPlan(plan.widths, ising4, plan.steps)
        assert len(reads) == 1
        with pytest.raises(LayoutError, match="^step 0: l is too narrow for the terms$"):
            CircuitPlan({"l": 2}, ising4, (Run("l"),))

    def test_the_plan_keeps_its_own_copy(self, ising4):
        widths = {"l": 3, "k": 2}
        plan = CircuitPlan(widths, ising4, (Run("l"),))
        widths["l"], widths["c"] = 1, 4
        del widths["k"]
        assert plan.widths == {"l": 3, "k": 2} and count(plan).qubits == 9


class TestWtildePlan:
    def test_shape(self, ising4):
        plan = build_w_tilde(ising4, 0.05, 3)
        # kappa + ceil(log L) + n = 3 + 3 + 4
        assert plan.widths == {"l": 3, "k": 3} and count(plan).qubits == 10
        assert plan.select_count == 7

    def test_run_i_is_2_to_the_i_blocks_on_k_bit_i(self, ising4):
        plan = build_w_tilde(ising4, 0.05, 3)
        controls = [ins.control for ins in plan.instructions if isinstance(ins, LcuBlock)]
        assert controls == [("k", 0), ("k", 1), ("k", 1)] + [("k", 2)] * 4
        plan = build_w_tilde(ising4, 0.05, 4)
        bits = [ins.control[1] for ins in plan.instructions if isinstance(ins, LcuBlock)]
        assert bits == [i for i in range(4) for _ in range(1 << i)] and plan.select_count == 15

    @pytest.mark.parametrize("kappa", [0, -1])
    def test_kappa_below_1_is_refused(self, ising4, kappa):
        with pytest.raises(InvalidModelError, match="kappa must be at least 1"):
            build_w_tilde(ising4, 0.05, kappa)

    def test_wide_taylor_register_refused_before_allocating(self, ising4):
        # 2^25 amplitudes would take 256 MiB, and 2^40 8 TiB
        tracemalloc.start()
        try:
            for kappa in (25, 40):
                with pytest.raises(ResourceLimitError, match=f"{kappa} qubits"):
                    build_w_tilde(ising4, 0.05, kappa)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_block_structure(self, ising4):
        plan = build_w_tilde(ising4, 0.05, 2)
        assert plan.instructions[1:-2] == (
            LcuBlock("l", ("k", 0)), Measure("l"), LcuBlock("l", ("k", 1)), Measure("l"),
            LcuBlock("l", ("k", 1)), Measure("l"),
        )
        first, unprepare, last = plan.instructions[0], plan.instructions[-2], plan.instructions[-1]
        assert (first.register, first.adjoint, unprepare.register, unprepare.adjoint) == (
            "k", False, "k", True
        )
        assert np.array_equal(first.amps, unprepare.amps)
        assert last == Measure("k")
        assert plan.measure_count == 4


class TestUnaryPlan:
    def test_shape(self, ising4):
        plan = build_w_unary(ising4, 0.05, 3)
        # n + K ceil(log L) + K = 4 + 9 + 3
        assert plan.widths == {"l0": 3, "l1": 3, "l2": 3, "unary": 3}
        assert count(plan).qubits == 16
        assert plan.select_count == 3
        assert plan.instructions[-1] == Measure("unary")

    def test_unary_amplitudes_one_hot_prefix(self, ising4):
        plan = build_w_unary(ising4, 0.05, 3)
        prep = plan.instructions[0]
        # K + 1 amplitudes on a K-qubit register: the unary encoding, on |1^k 0^(K-k)>
        assert isinstance(prep, Prepare) and prep.amps.shape == (4,)
        assert amplitude_values(prep.amps, 3)[1] == [0, 1, 3, 7]
        beta = taylor_weights(0.05, 5.0, 3)
        assert np.allclose(prep.amps**2, beta / beta.sum(), atol=1e-12)

    def test_measurements_deferred_to_end(self, ising4):
        plan = build_w_unary(ising4, 0.05, 2)
        kinds = [type(ins).__name__ for ins in plan.instructions]
        assert kinds == ["Prepare", "LcuBlock", "LcuBlock", "Prepare"] + ["Measure"] * 3
        assert plan.instructions[3].adjoint
        assert plan.instructions[4:] == (Measure("l0"), Measure("l1"), Measure("unary"))

    def test_K_40000_validates_in_linear_time(self):
        # all K blocks precede their K measurements, so K l-registers are pending at
        # once; a quadratic validation took 22 s here
        start = time.perf_counter()
        plan = build_w_unary(build_ising(2, 1.0, 0.5), 0.5, 40000)
        assert time.perf_counter() - start < 10.0
        assert plan.select_count == 40000 and plan.measure_count == 40001


class TestWhkPlan:
    def test_shape(self, ising4):
        plan = build_w_hk(ising4, 3)
        assert plan.select_count == 3
        assert plan.widths == {"l": 3} and count(plan).qubits == 7  # n + ceil(log L)
        controls = [ins.control for ins in plan.instructions if isinstance(ins, LcuBlock)]
        assert controls == [None, None, None]

    def test_invalid_k(self, ising4):
        with pytest.raises(InvalidModelError):
            build_w_hk(ising4, 0)


def _same_instructions(got, want):
    """LcuBlocks and Measures equal by value, Prepares by amplitudes and adjoint."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        if isinstance(a, Prepare):
            assert (a.register, a.adjoint) == (b.register, b.adjoint)
            assert np.array_equal(a.amps, b.amps)
        else:
            assert a == b


class TestStepsSpellTheCircuit:
    """``plan.instructions`` is the circuit the builders emitted one instruction at a time:
    the flat loops of ``reference`` (``flat_w_hk``, ``flat_w_tilde``, ``flat_w_unary``)."""

    @pytest.mark.parametrize("tau", [0.0, 0.3])
    def test_each_builder_in_the_papers_order(self, ising4, tau):
        for k in range(1, 5):
            _same_instructions(build_w_hk(ising4, k).instructions, flat_w_hk(ising4, k))
        for kappa in range(1, 6):
            _same_instructions(build_w_tilde(ising4, tau, kappa).instructions,
                               flat_w_tilde(ising4, tau, kappa))
        for K in range(1, 7):
            _same_instructions(build_w_unary(ising4, tau, K).instructions,
                               flat_w_unary(ising4, tau, K))

    def test_the_builders_steps(self, ising4):
        assert build_w_hk(ising4, 3).steps == (Run("l", None, 3),)
        (step,) = build_w_tilde(ising4, 0.05, 3).steps
        assert type(step) is Prepared and (step.register, step.runs, step.deferred) == (
            "k", (Run("l", 0, 1), Run("l", 1, 2), Run("l", 2, 4)), False)
        (step,) = build_w_unary(ising4, 0.05, 3).steps
        assert (step.register, step.runs, step.deferred) == (
            "unary", (Run("l0", 0), Run("l1", 1), Run("l2", 2)), True)

    def test_plan_work_grows_with_the_steps(self, monkeypatch):
        # kappa = 20: 2^20 - 1 blocks in 20 runs. The plan checks its one Prepare's norm
        # once and the trace reads one spec per run, not one per instruction
        H, kappa = build_ising(2, 1.0, 0.5), 20
        norms, check = [], circuits.check_norm
        monkeypatch.setattr(circuits, "check_norm", lambda *a: norms.append(1) or check(*a))
        plan = build_w_tilde(H, 0.05, kappa)
        assert len(norms) == 1 and plan.select_count == (1 << kappa) - 1
        (segment,) = sampler._walk(plan)
        specs = segment[0]
        assert len(specs) == kappa
        assert [spec if type(spec) is int else spec[3] for spec in specs] == [
            1 << i for i in range(kappa)]
