import math
import re
from itertools import accumulate, repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from lcusim import oracle
from lcusim.circuits import build_w_hk
from lcusim.errors import DomainError, InvalidModelError, LayoutError, NormalizationError
from lcusim.hamiltonian import canonicalize, l1_norm
from lcusim.oracle import chain_probabilities, success_prob_hk, success_prob_wtilde
from lcusim.resources import CostModel, expected_cost, runtime_bound, shot_costs
from lcusim.sampler import trace_plan
from conftest import basis_state, random_hamiltonian, random_state
from reference import (
    fidelity,
    rescaled_matrix,
    spectral_lower_bound,
    to_matrix,
    truncated_taylor_matrix,
)


class TestTruncatedPropagator:
    def test_converges_to_exact(self, ising4):
        exact = expm(-1j * 0.05 * to_matrix(ising4))
        approx = truncated_taylor_matrix(ising4, 0.05, 12)
        assert np.abs(approx - exact).max() < 1e-12

    def test_truncation_error_scales(self, ising4):
        exact = expm(-1j * 0.05 * to_matrix(ising4))
        errs = [
            np.linalg.norm(truncated_taylor_matrix(ising4, 0.05, K) - exact, 2)
            for K in (1, 2, 3)
        ]
        x = 0.25
        for K, err in zip((1, 2, 3), errs):
            assert err <= x ** (K + 1) / math.factorial(K + 1) * math.exp(x) + 1e-14

    def test_k_zero_is_identity(self, ising4):
        assert np.array_equal(truncated_taylor_matrix(ising4, 0.3, 0), np.eye(16))

    def test_rescaled_matrix(self, ising4):
        assert np.abs(
            rescaled_matrix(ising4) - (-1j / 5.0) * to_matrix(ising4)
        ).max() == 0.0


class TestSuccessProbabilities:
    def test_hk_matches_matrix_power(self, ising4, psi0_4):
        ht = rescaled_matrix(ising4)
        for k in (1, 2, 3):
            v = np.linalg.matrix_power(ht, k) @ psi0_4
            assert success_prob_hk(ising4, psi0_4, k) == pytest.approx(
                float(np.vdot(v, v).real), abs=1e-14
            )

    def test_chain_product_equals_hk(self, ising4, psi0_4):
        # multiplicative chain property: prod p_i == <psi| (H~^k)^dag H~^k |psi>
        probs = chain_probabilities(ising4, psi0_4, 4)
        assert math.prod(probs) == pytest.approx(
            success_prob_hk(ising4, psi0_4, 4), rel=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_chain_property_random(self, seed):
        rng = np.random.default_rng(seed)
        H = random_hamiltonian(3, 5, rng)
        psi = random_state(3, rng)
        k = int(rng.integers(1, 5))
        probs = chain_probabilities(H, psi, k)
        assert math.prod(probs) == pytest.approx(
            success_prob_hk(H, psi, k), rel=1e-10, abs=1e-12
        )

    def test_spectral_lower_bound_holds(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            H = random_hamiltonian(3, 4, rng)
            bound = spectral_lower_bound(H, 2)
            psi = random_state(3, rng)
            assert success_prob_hk(H, psi, 2) >= bound - 1e-12

    def test_spectral_bound_requires_hermitian(self):
        rng = np.random.default_rng(1)
        H = random_hamiltonian(2, 3, rng, hermitian=False)
        with pytest.raises(DomainError):
            spectral_lower_bound(H, 1)

    def test_wtilde_prob_formula(self, ising4, psi0_4):
        # p = ||U psi||^2 / ||beta||^2 against directly computed pieces
        K = 7
        U = truncated_taylor_matrix(ising4, 0.05, K)
        x = 0.25
        beta_norm = sum(x**k / math.factorial(k) for k in range(K + 1))
        v = U @ psi0_4
        expected = float(np.vdot(v, v).real) / beta_norm**2
        assert success_prob_wtilde(ising4, psi0_4, 0.05, K) == pytest.approx(
            expected, rel=1e-13
        )

    def test_wtilde_plateau(self, ising4, psi0_4):
        # large K: ||U psi|| -> 1, ||beta|| -> exp(tau l1), so p -> exp(-2 tau l1)
        p = success_prob_wtilde(ising4, psi0_4, 0.05, 7)
        assert p == pytest.approx(math.exp(-0.5), abs=1e-3)

    def test_horner_pass_starts_at_the_last_nonzero_weight(self, monkeypatch):
        # at tau l1 = 0.1, beta_k underflows to 0 past k = 121: a larger K adds no matvec
        # and no bit of p
        H = canonicalize(2, [(1.0, "ZZ"), (0.5, "XI"), (0.5, "IX")])
        psi = random_state(2, np.random.default_rng(7))
        p = success_prob_wtilde(H, psi, 0.05, 121)
        calls = []
        apply = oracle.apply_rescaled
        monkeypatch.setattr(oracle, "apply_rescaled", lambda *a: calls.append(1) or apply(*a))
        assert success_prob_wtilde(H, psi, 0.05, 2**17 - 1) == p
        assert len(calls) == 121

    def test_unnormalized_state_rejected(self, ising4):
        with pytest.raises(NormalizationError):
            success_prob_hk(ising4, np.ones(16), 1)
        with pytest.raises(NormalizationError):
            success_prob_hk(ising4, np.full(16, np.nan), 1)

    @pytest.mark.parametrize("order", [success_prob_hk, chain_probabilities])
    def test_a_negative_order_is_refused(self, order):
        # range(-2) is empty: unchecked, k = -2 read as k = 0 (p = 1.0, no chain)
        H, psi = canonicalize(2, [(1.0, "ZZ"), (0.5, "XI")]), basis_state(2)
        with pytest.raises(InvalidModelError, match="^k must be at least 0, got -2$"):
            order(H, psi, -2)
        assert order(H, psi, 0) == {success_prob_hk: 1.0, chain_probabilities: []}[order]

    @pytest.mark.parametrize("shape", [(8,), (32,), (16, 1), (4, 4)])
    def test_wrong_length_state_rejected(self, ising4, shape):
        # one state check: the trace refuses what the oracle refuses
        psi = np.zeros(shape, dtype=complex)
        psi.flat[0] = 1.0
        for call in (
            lambda: success_prob_hk(ising4, psi, 2),
            lambda: chain_probabilities(ising4, psi, 2),
            lambda: success_prob_wtilde(ising4, psi, 0.05, 3),
            lambda: trace_plan(build_w_hk(ising4, 1), psi),
        ):
            with pytest.raises(LayoutError, match="4-qubit state needs shape \\(16,\\)"):
                call()


def _bound(H, psi, tau, K, d_ctrl):
    """The paper's first-order runtime bound for H and psi, as ``analytic`` prints it."""
    p_w = success_prob_wtilde(H, psi, tau, K)
    return runtime_bound(p_w, success_prob_hk(H, psi, 1), tau, l1_norm(H), K, d_ctrl)


def _runtimes(p, d):
    """(expected_runtime_hk, total_runtime_hk) of the chain ``p`` at block cost ``d``, as
    ``analytic`` prints them: the W_{H^k} shot costs j d, and the restart identity."""
    mean = expected_cost(p, accumulate(repeat(d, len(p))))
    p_all = math.prod(p)
    return mean, mean / p_all if p_all else math.inf


class TestRuntimes:
    def test_midmeasure_closed_form_examples(self):
        # single block: always costs d
        assert expected_cost([0.5], [2.0]) == pytest.approx(2.0)
        # two blocks: (1-p1)*1*d + p1*2*d
        assert expected_cost([0.25, 0.9], [1.0, 2.0]) == pytest.approx(0.75 * 1 + 0.25 * 2)
        # an outcome of probability 0 adds nothing, not 0 * inf
        assert expected_cost([0.0, 0.5], [1.0, math.inf]) == 1.0
        assert expected_cost([], []) == 0.0  # no measurement: the one outcome is free

    def test_midmeasure_matches_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            p = rng.uniform(0.05, 0.95, size=k)
            d = float(rng.uniform(0.5, 3.0))
            # enumerate abort depths explicitly
            expected = 0.0
            surv = 1.0
            for j in range(1, k):
                expected += surv * (1 - p[j - 1]) * j * d
                surv *= p[j - 1]
            expected += surv * k * d
            assert _runtimes(p, d)[0] == pytest.approx(expected)

    def test_total_runtime_success(self):
        p = [0.5, 0.8]
        # d (1 + p1) / (p1 p2)
        assert _runtimes(p, 3.0)[1] == pytest.approx(3.0 * 1.5 / 0.4)
        assert _runtimes([0.5, 0.0], 1.0)[1] == math.inf

    def test_overflowing_runtimes_are_refused(self, ising4, psi0_4):
        # finite cost units, infinite products: refused, where a zero branch is inf
        with pytest.raises(DomainError, match="overflow"):
            _runtimes([0.5, 0.8], 1e308)
        with pytest.raises(DomainError, match="overflow"):
            _runtimes([1.0, 1.0], 1e308)
        with pytest.raises(DomainError, match="overflow"):
            _bound(ising4, psi0_4, 0.05, 8, 1e308)
        # a success probability that underflows to 0 is a zero branch, not a ZeroDivisionError
        assert _runtimes([1e-200, 1e-200], 1.0)[1] == math.inf

    @pytest.mark.parametrize("unit", [math.nan, -1.0, math.inf, 10**400, "1"],
                             ids=["nan", "-1.0", "inf", "10**400", "'1'"])
    @pytest.mark.parametrize("site", ["CostModel", "d", "d_ctrl", "runtime_bound"])
    def test_a_cost_unit_that_is_not_finite_and_nonnegative_is_refused(self, site, unit):
        # one check, of every unit analytic reads: a NaN unit gave a NaN runtime, -1.0 a
        # negative one, and 10**400 and "1" raised OverflowError and TypeError
        # each refusal names its unit
        name, call = {"CostModel": ("m", lambda: CostModel(m=unit)),
                      "d": ("d", lambda: CostModel(d=unit)),
                      "d_ctrl": ("d_ctrl", lambda: CostModel(d_ctrl=unit)),
                      "runtime_bound": ("d_ctrl",
                                        lambda: runtime_bound(0.5, 0.5, 0.1, 1.0, 3, unit))}[site]
        kind = "at least 0" if unit == -1.0 else "a finite real number"
        message = f"{name} must be {kind}, got {unit!r}"
        with pytest.raises(InvalidModelError, match=f"^{re.escape(message)}$"):
            call()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), max_size=4),
        st.one_of(st.floats(max_value=-5e-324), st.floats(min_value=1.0 + 1e-8), st.just(math.nan)),
        st.integers(0, 4),
    )
    def test_a_probability_outside_0_1_is_refused(self, good, bad, at):
        chain = good[:at] + [bad] + good[at:]
        for call in (
            lambda: expected_cost(chain, range(1, len(chain) + 1)),
            lambda: _runtimes(chain, 1.0),
            lambda: runtime_bound(bad, 0.5, 0.1, 1.0, 3, 1.0),
            lambda: runtime_bound(0.5, bad, 0.1, 1.0, 3, 1.0),
        ):
            with pytest.raises(DomainError, match="probability"):
                call()

    def test_probabilities_at_the_ends_of_0_1(self):
        # p_w = 0 costs inf, as a zero branch does; a squared norm rounded past 1 is kept
        assert runtime_bound(0.0, 0.5, 0.1, 1.0, 3, 1.0) == math.inf
        over = 1.0000000000000004  # ||H~ v||^2 of a unit v under a single Pauli string
        assert runtime_bound(over, over, 0.0, 1.0, 3, 2.0) == pytest.approx(6.0)
        assert expected_cost([over, 0.0], [1.0, 2.0]) == pytest.approx(2.0)
        assert _runtimes([1.0, over], 1.0)[1] == pytest.approx(2.0)

    def test_geometric_restart_identity(self):
        # expected total cost to success = E[shot cost] / P(success) when every shot is
        # independent: d (1 + p1 + p1 p2 + ...) / prod(p) when a shot pays its blocks
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            p = rng.uniform(0.1, 0.95, size=k)
            per_shot, total = _runtimes(p, 1.0)
            p_all = math.prod(p)
            assert math.isfinite(total) and total * p_all / per_shot != 0
            closed_form = sum(math.prod(p[:j]) for j in range(k)) / p_all
            assert total == pytest.approx(closed_form, rel=1e-12)

    def test_upper_bound_exceeds_exact_mean(self, ising4, psi0_4):
        # the bound covers the shorter-width circuit's mean cost per success;
        # it is a first-order-in-tau statement, so check it where the linear
        # correction is dominant rather than at vanishing tau
        from lcusim.circuits import build_w_tilde

        for tau in (0.1, 0.2, 0.5):
            plan = build_w_tilde(ising4, tau, 3)
            trace = trace_plan(plan, psi0_4)
            costs = shot_costs(plan, CostModel(d=0.0, d_ctrl=1.0))
            exact = expected_cost(trace.cond_probs, costs) / trace.success_prob
            bound = _bound(ising4, psi0_4, tau, 7, 1.0)
            assert exact <= bound <= 7.0 / trace.success_prob

    def test_upper_bound_trivial_cases(self, ising4, psi0_4):
        # tau = 0: p = 1 and no correction, so the bound is exactly K*d
        assert _bound(ising4, psi0_4, 0.0, 7, 2.0) == pytest.approx(14.0)
        # single-Pauli Hamiltonian: Htilde is unitary, p1 = 1, bound = K*d/p
        H1 = canonicalize(1, [(1.0, "X")])
        psi = basis_state(1, 0)
        p = success_prob_wtilde(H1, psi, 0.3, 3)
        assert _bound(H1, psi, 0.3, 3, 1.0) == pytest.approx(3.0 / p)


class TestFidelity:  # the reference overlap that the trace tests compare states with
    def test_self_fidelity(self, psi0_4):
        assert fidelity(psi0_4, psi0_4) == pytest.approx(1.0)

    def test_phase_invariance(self):
        rng = np.random.default_rng(5)
        a = random_state(2, rng)
        assert fidelity(a, np.exp(0.7j) * a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(basis_state(1, 0), basis_state(1, 1)) == 0.0
