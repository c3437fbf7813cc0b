import math
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcusim.circuits import (
    CircuitPlan,
    Measure,
    Prepared,
    Run,
    build_w_hk,
    build_w_tilde,
    build_w_unary,
)
from lcusim.hamiltonian import build_ising, canonicalize, l1_norm
from lcusim.errors import DomainError, LcusimError
from lcusim.resources import (CostModel, _cx_count, count, expected_cost, mean_cost, runtime_bound,
                              shot_costs)
from lcusim.oracle import success_prob_hk
from lcusim.sampler import RunStats, run_shots, trace_plan
from conftest import random_hamiltonian, random_state
from reference import (
    Gate1Q,
    GateCX,
    Register,
    compile_plan,
    diagonal_gates,
    exact_mean_cost,
    fidelity,
    prepare_amplitudes,
    shot_outcomes,
    simulate_compiled,
    uc_ry,
    uc_rz,
    uc_single_qubit,
    zyz_decompose,
    _prep_dense_gates,
    _prep_unary_gates,
    _ry,
    _rz,
)


def _random_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _dense_of_ops(ops, total):
    mat = np.eye(1 << total, dtype=complex)
    for op in ops:
        if isinstance(op, Gate1Q):
            full = np.array([[1]], dtype=complex)
            for q in range(total):
                full = np.kron(op.matrix if q == op.qubit else np.eye(2), full)
            mat = full @ mat
        elif isinstance(op, GateCX):
            dim = 1 << total
            perm = np.arange(dim)
            on = (perm >> op.control) & 1 == 1
            perm[on] ^= 1 << op.target
            cx = np.zeros((dim, dim))
            cx[np.arange(dim), perm] = 1.0
            mat = cx @ mat
        else:
            raise TypeError(op)
    return mat


class TestDecompositions:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_zyz(self, seed):
        rng = np.random.default_rng(seed)
        U = _random_unitary(rng)
        d, a, b, g = zyz_decompose(U)
        rebuilt = np.exp(1j * d) * (_rz(a) @ _ry(b) @ _rz(g))
        assert np.abs(rebuilt - U).max() < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_uc_ry_matches_multiplexor(self, m):
        rng = np.random.default_rng(m)
        angles = rng.uniform(-math.pi, math.pi, size=1 << m)
        ops = uc_ry(list(range(1, m + 1)), 0, angles)
        assert sum(isinstance(op, GateCX) for op in ops) == 1 << m
        dense = _dense_of_ops(ops, m + 1)
        expected = np.zeros_like(dense)
        for v in range(1 << m):
            proj = np.zeros((1 << m, 1 << m))
            proj[v, v] = 1.0
            expected += np.kron(proj, _ry(angles[v]))
        assert np.abs(dense - expected).max() < 1e-12

    def test_uc_rz_matches_multiplexor(self):
        rng = np.random.default_rng(4)
        angles = rng.uniform(-math.pi, math.pi, size=4)
        dense = _dense_of_ops(uc_rz([1, 2], 0, angles), 3)
        expected = np.zeros_like(dense)
        for v in range(4):
            proj = np.zeros((4, 4))
            proj[v, v] = 1.0
            expected += np.kron(proj, _rz(angles[v]))
        assert np.abs(dense - expected).max() < 1e-12

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_diagonal(self, w):
        rng = np.random.default_rng(w + 10)
        phases = rng.uniform(-math.pi, math.pi, size=1 << w)
        dense = _dense_of_ops(diagonal_gates(list(range(w)), phases), w)
        assert np.abs(dense - np.diag(np.exp(1j * phases))).max() < 1e-12

    @pytest.mark.parametrize("m", [1, 2])
    def test_uc_single_qubit(self, m):
        rng = np.random.default_rng(m + 20)
        mats = [_random_unitary(rng) for _ in range(1 << m)]
        dense = _dense_of_ops(uc_single_qubit(list(range(1, m + 1)), 0, mats), m + 1)
        expected = np.zeros_like(dense)
        for v in range(1 << m):
            proj = np.zeros((1 << m, 1 << m))
            proj[v, v] = 1.0
            expected += np.kron(proj, mats[v])
        assert np.abs(dense - expected).max() < 1e-12


class TestPrepareCompilation:
    def test_width_one_no_cx(self, ising4):
        H = canonicalize(1, [(1.0, "X"), (0.5, "Z")])
        plan = build_w_hk(H, 1)
        ops = _prep_dense_gates(Register("l", plan.widths["l"], 1),
                                prepare_amplitudes(H, plan.widths["l"]))
        assert sum(isinstance(op, GateCX) for op in ops) == 0

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_cx_count_and_state(self, w):
        rng = np.random.default_rng(w)
        a = np.abs(rng.normal(size=1 << w))
        a /= np.linalg.norm(a)
        ops = _prep_dense_gates(Register("r", w, 0), a)
        assert sum(isinstance(op, GateCX) for op in ops) == (1 << w) - 2
        dense = _dense_of_ops(ops, w)
        assert np.abs(dense[:, 0] - a).max() < 1e-12

    def test_unary_staircase(self):
        K = 3
        c = np.sqrt(np.array([0.4, 0.3, 0.2, 0.1]))
        amps = np.zeros(1 << K)
        for k in range(K + 1):
            amps[(1 << k) - 1] = c[k]
        ops = _prep_unary_gates(Register("u", K, 0), amps)
        # 2 CX per controlled rotation, K-1 of them
        assert sum(isinstance(op, GateCX) for op in ops) == 2 * (K - 1)
        dense = _dense_of_ops(ops, K)
        assert np.abs(dense[:, 0] - amps).max() < 1e-12


class TestCompiledSoundness:
    @pytest.mark.parametrize("family", ["w_hk", "wtilde", "wunary"])
    def test_compiled_matches_plan(self, family):
        rng = np.random.default_rng(17)
        H = canonicalize(2, [(1.0, "ZX"), (0.5, "XI"), (0.25, "YZ")])
        psi = random_state(2, rng)
        if family == "w_hk":
            plan = build_w_hk(H, 2)
        elif family == "wtilde":
            plan = build_w_tilde(H, 0.08, 2)
        else:
            plan = build_w_unary(H, 0.08, 3)
        trace = trace_plan(plan, psi)
        circ = compile_plan(plan)
        out, prob = simulate_compiled(circ, psi)
        assert prob == pytest.approx(trace.success_prob, abs=1e-12)
        assert fidelity(out, trace.final_system_state) == pytest.approx(1.0, abs=1e-10)


class TestCounts:
    def test_qubit_formulas(self, ising4):
        # binary: kappa + ceil(log L) + n; unary: K + K ceil(log L) + n
        for kappa in (1, 2, 3):
            assert count(build_w_tilde(ising4, 0.05, kappa)).qubits == kappa + 3 + 4
        for K in (1, 2, 3):
            assert count(build_w_unary(ising4, 0.05, K)).qubits == K + 3 * K + 4

    def test_wtilde_counts_depend_only_on_kappa(self, ising4):
        a = count(build_w_tilde(ising4, 0.05, 3))
        b = count(build_w_tilde(ising4, 0.11, 3))
        assert a == b

    def test_unary_counts_affine_in_K(self, ising4):
        twos = [count(build_w_unary(ising4, 0.05, K)).two_qubit for K in (2, 3, 4, 5)]
        diffs = [b - a for a, b in zip(twos, twos[1:])]
        assert diffs[0] == diffs[1] == diffs[2]

    def test_measurement_tally(self, ising4):
        # K mid-circuit l measurements (3 qubits each) + final k measurement
        counts = count(build_w_tilde(ising4, 0.05, 3))
        assert counts.measurements == 7 * 3 + 3

    def test_no_select_plan(self):
        H = canonicalize(1, [(1.0, "X"), (0.5, "Z")])
        plan = build_w_hk(H, 1)
        a = prepare_amplitudes(H)
        only_prep = type(plan)(  # a Prepare is closed by its adjoint, then measured
            plan.widths, plan.hamiltonian, (Prepared("l", a),))
        assert count(only_prep).two_qubit == 0  # width-1 l register: Ry and its adjoint, no CX


class TestShotCosts:
    """``shot_costs`` with a ``CostModel``: the cost of a shot that stops at each measurement."""

    COST = CostModel(d=0.3, d_ctrl=0.7, m=0.1)  # all different, so a swapped unit shows

    def test_whk(self, ising4):
        # k uncontrolled blocks, each followed by its measurement
        costs = shot_costs(build_w_hk(ising4, 3), self.COST)
        assert costs == pytest.approx([0.4, 0.8, 1.2], rel=1e-15)

    def test_wtilde(self, ising4):
        # K = 3 controlled blocks, each followed by its measurement, then the k-register's
        costs = shot_costs(build_w_tilde(ising4, 0.05, 2), self.COST)
        assert costs == pytest.approx([0.8, 1.6, 2.4, 2.5], rel=1e-15)

    def test_wunary(self, ising4):
        # K = 3 controlled blocks, then the K l-registers' measurements and the unary one
        costs = shot_costs(build_w_unary(ising4, 0.05, 3), self.COST)
        assert costs == pytest.approx([2.2, 2.3, 2.4, 2.5], rel=1e-15)

    def test_summed_in_plan_order(self, ising4):
        # each entry is the previous one plus the instructions since, in float arithmetic
        running, want = 0.0, []
        for _ in range(3):
            running += 0.7
            running += 0.1
            want.append(running)
        running += 0.1
        assert shot_costs(build_w_tilde(ising4, 0.05, 2), self.COST) == tuple(want + [running])

    def test_no_measurement_costs_nothing(self, ising4):
        plan = CircuitPlan({}, ising4, ())
        assert shot_costs(plan, self.COST) == ()
        stats = run_shots(plan, np.eye(16)[0], 5, 0)
        assert stats.successes == 5 and mean_cost(stats, ()) == 0.0


_PRICES = {"units": CostModel(d=0.3, d_ctrl=0.7, m=0.11), "cx": _cx_count}


class TestExpectedCost:
    """``expected_cost``, the exact mean price of one shot, against the sampled
    ``mean_cost`` and the reference sum over the outcomes."""

    @pytest.mark.parametrize("price", _PRICES.values(), ids=_PRICES.keys())
    @pytest.mark.parametrize("family", ["whk", "wtilde", "wunary"])
    def test_sampled_mean_within_3_sigma(self, ising4, price, family):
        tau = 0.3  # aborts at every measurement of each family
        plan = {"whk": build_w_hk(ising4, 4), "wtilde": build_w_tilde(ising4, tau, 2),
                "wunary": build_w_unary(ising4, tau, 3)}[family]
        psi = random_state(4, np.random.default_rng(36))
        trace, costs, N = trace_plan(plan, psi), shot_costs(plan, price), 50_000
        exact = expected_cost(trace.cond_probs, costs)
        var = sum(w * (c - exact) ** 2 for w, c in shot_outcomes(trace, costs))  # 0 where every
        bound = 3 * math.sqrt(var / N) + 1e-12 * exact  # outcome costs the same (unary CX)
        assert abs(mean_cost(run_shots(plan, psi, N, 36), costs) - exact) <= bound

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6), st.sampled_from(list(_PRICES)))
    def test_matches_the_reference_sum(self, seed, K, price):
        rng = np.random.default_rng(seed)
        H, psi = random_hamiltonian(2, int(rng.integers(2, 5)), rng), random_state(2, rng)
        for plan in _plans(H, K):
            trace, costs = trace_plan(plan, psi), shot_costs(plan, _PRICES[price])
            assert expected_cost(trace.cond_probs, costs) == pytest.approx(
                exact_mean_cost(trace, costs), rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.floats(0.0, 1e6))
    def test_analytic_costs_are_the_w_hk_shot_costs(self, K, d):
        # analytic prices W_{H^K} by its block cost d alone, without building the plan
        plan = build_w_hk(build_ising(2, 1.0, 0.5), K)
        assert tuple(accumulate(repeat(d, K))) == shot_costs(plan, CostModel(d=d))

    @pytest.mark.parametrize("probs, costs", [([0.5, 0.5], [1.0]), ([0.5], [1.0, 2.0])])
    def test_lengths_must_match(self, probs, costs):
        with pytest.raises(LcusimError, match="differ in length"):
            expected_cost(probs, costs)

    @pytest.mark.parametrize("bad", [None, "0.5", 1j])
    def test_a_probability_that_is_not_a_number_is_refused(self, bad):
        # a None was padding, read as "differ in length"; the others raised TypeError
        for call in (lambda: expected_cost([bad], [1.0]),
                     lambda: expected_cost([0.5, bad], [1.0, 2.0]),
                     lambda: runtime_bound(bad, 0.5, 0.1, 1.0, 3, 1.0),
                     lambda: runtime_bound(0.5, bad, 0.1, 1.0, 3, 1.0)):
            with pytest.raises(DomainError, match=r"^a probability must lie in \[0, 1\]$"):
                call()

    @pytest.mark.parametrize("bad", [None, "1", 1j])
    def test_a_cost_that_is_not_a_number_is_refused(self, bad):
        # each raised TypeError
        for call in (lambda: expected_cost([0.5], [bad]),
                     lambda: expected_cost([0.5, 1.0], [1.0, bad]),
                     lambda: mean_cost(RunStats(1, 1), (bad,)),
                     lambda: mean_cost(RunStats(2, 1, {1: 1}), (bad, 1.0))):
            with pytest.raises(DomainError, match="^a shot cost must be a nonnegative number$"):
                call()

    def test_a_decimal_is_refused(self):
        # a Decimal compares with a float but does no float arithmetic: each raised TypeError
        # from 1.0 - q, w * c or tau * l1; a cost of an outcome of probability 0 is read too
        half, one = Decimal("0.5"), Decimal(1)
        for call, message in ((lambda: expected_cost([half], [1.0]), "probability"),
                              (lambda: runtime_bound(half, 0.5, 0.1, 1.0, 3, 1.0), "probability"),
                              (lambda: runtime_bound(0.5, half, 0.1, 1.0, 3, 1.0), "probability"),
                              (lambda: expected_cost([0.5], [one]), "shot cost"),
                              (lambda: expected_cost([0.0, 1.0], [1.0, one]), "shot cost"),
                              (lambda: mean_cost(RunStats(1, 1), (one,)), "shot cost"),
                              (lambda: mean_cost(RunStats(1, 0, {1: 1}), (1.0, one)), "shot cost")):
            with pytest.raises(DomainError, match=message):
                call()

    def test_other_real_types_give_the_float_result(self):
        # the float fast path changes no value: numpy floats, ints and fractions still pass
        q, c = [0.5, 0.25, 1.0], [1.0, 2.0, 3.0]
        expected = expected_cost(q, c)
        for kind in (np.float64, np.float32, Fraction):
            assert expected_cost([kind(x) for x in q], [kind(x) for x in c]) == expected
        assert expected_cost([1, 0], [1, 2]) == expected_cost([1.0, 0.0], [1.0, 2.0])
        assert mean_cost(RunStats(2, 1, {1: 1}), (Fraction(1), np.float64(3.0))) == 2.0

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_a_negative_or_nan_cost_is_refused(self, bad):
        # also where its outcome has probability 0, and in the sampled twin
        for call in (lambda: expected_cost([0.5, 1.0], [1.0, bad]),
                     lambda: expected_cost([0.0, 1.0], [1.0, bad]),
                     lambda: mean_cost(RunStats(shots=2, successes=2), (1.0, bad))):
            with pytest.raises(LcusimError, match="nonnegative number"):
                call()


class TestRuntimeBound:
    """``runtime_bound`` against the exact mean cost per success of the W-tilde circuit it
    bounds, at the prices ``analytic`` uses: d_ctrl per block, Prepares and Measures free."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), L=st.integers(1, 8), hermitian=st.booleans(),
           x=st.floats(0.0, 3.0), kappa=st.integers(1, 4), d_ctrl=st.floats(0.01, 100.0),
           seed=st.integers(0, 2**32 - 1))
    def test_it_bounds_the_exact_cost_per_success(self, n, L, hermitian, x, kappa, d_ctrl, seed):
        rng = np.random.default_rng(seed)
        H = random_hamiltonian(n, min(L, 4**n - 1), rng, hermitian=hermitian)
        psi, tau = random_state(n, rng), x / l1_norm(H)
        plan = build_w_tilde(H, tau, kappa)
        trace = trace_plan(plan, psi)
        p = trace.success_prob
        exact = expected_cost(trace.cond_probs, shot_costs(plan, CostModel(d_ctrl=d_ctrl))) / p
        bound = runtime_bound(p, success_prob_hk(H, psi, 1), tau, l1_norm(H), plan.select_count,
                              d_ctrl)
        assert bound >= exact * (1 - 1e-12)
        if kappa == 1:  # every shot pays its one block
            assert bound == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("kappa, exact", [(1, 1.5243902439024393), (2, 4.531), (3, 10.212)])
    def test_the_readme_settings(self, ising4, psi0_4, kappa, exact):
        # the K form printed 1.3415, 4.367 and 10.193 here: below the cost it bounds
        plan = build_w_tilde(ising4, 0.05, kappa)
        trace = trace_plan(plan, psi0_4)
        p = trace.success_prob
        cost = expected_cost(trace.cond_probs, shot_costs(plan, CostModel())) / p
        assert cost == pytest.approx(exact, abs=1e-3)
        bound = runtime_bound(p, success_prob_hk(ising4, psi0_4, 1), 0.05, 5.0, plan.select_count,
                              1.0)
        assert bound >= cost * (1 - 1e-12)


def _plans(H, K):
    kappa = max(1, math.ceil(math.log2(K + 1)))
    return [build_w_hk(H, K), build_w_tilde(H, 0.05, kappa), build_w_unary(H, 0.05, K)]


# Same n, L and term weights, different phases: the same counts.
_H_REAL = canonicalize(2, [(1.0, "ZX"), (0.5, "XI"), (0.25, "YZ")])
_H_NEG = canonicalize(2, [(1.0, "ZX"), (-0.5, "XI"), (0.25, "YZ")])
_HAMILTONIANS = {f"ising{n}": build_ising(n, 1.0, 0.5) for n in range(2, 6)}
_HAMILTONIANS.update(real=_H_REAL, neg=_H_NEG)


class TestCountMatchesReference:
    """``count`` against the reference ``compile_plan(plan).counts()``."""

    @pytest.mark.parametrize("K", range(1, 9))
    @pytest.mark.parametrize("H", _HAMILTONIANS.values(), ids=_HAMILTONIANS.keys())
    def test_each_family_matches_reference(self, H, K):
        # and the CX a shot that stops at each measurement pays, the compiled CX up to it
        for plan in _plans(H, K):
            compiled = compile_plan(plan)
            assert count(plan) == compiled.counts()
            cx, want = 0, []
            for op in compiled.ops:
                cx += isinstance(op, GateCX)
                if isinstance(op, Measure):
                    want.append(cx)
            assert shot_costs(plan, _cx_count) == tuple(want)

    def test_hamiltonians_differing_only_in_phases(self):
        plans = [build_w_hk(_H_REAL, 1), build_w_hk(_H_NEG, 1)]
        reference = [compile_plan(p).counts() for p in plans]
        assert [count(p) for p in plans] == reference
        assert reference[0] == reference[1]

    def test_wider_l_register_is_a_distinct_select(self):
        plans = []
        for width in (_H_REAL.l_width, _H_REAL.l_width + 1):
            plans.append(CircuitPlan({"l": width}, _H_REAL, (Run("l"),)))
        reference = [compile_plan(p).counts() for p in plans]
        assert reference[0].two_qubit != reference[1].two_qubit
        assert [count(p) for p in plans] == reference

    def test_each_distinct_prepare_vector_is_validated(self, ising4):
        plan = build_w_tilde(ising4, 0.05, 2)
        (step,) = plan.steps
        for bad_amps in (-step.amps, 1j * step.amps):
            bad = (Prepared("k", bad_amps, step.runs),)
            with pytest.raises(LcusimError, match="nonnegative"):
                count(type(plan)(plan.widths, ising4, bad))
