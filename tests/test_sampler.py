import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcusim.circuits import build_w_hk, build_w_tilde, build_w_unary
from lcusim.hamiltonian import build_ising, canonicalize
from lcusim.oracle import (
    chain_probabilities,
    expected_runtime_midmeasure,
    fidelity,
    success_prob_hk,
    success_prob_wtilde,
    truncated_taylor_matrix,
)
from lcusim.sampler import (
    CostModel,
    RunStats,
    estimate,
    mean_cost_per_shot,
    run_shots,
    shot_rng,
    trace_plan,
)
from conftest import random_hamiltonian, random_state


class TestTracePlan:
    def test_wtilde_success_prob_matches_analytic(self, ising4, psi0_4):
        for kappa in (1, 2, 3):
            plan = build_w_tilde(ising4, 0.05, kappa)
            trace = trace_plan(plan, psi0_4)
            expected = success_prob_wtilde(ising4, psi0_4, 0.05, (1 << kappa) - 1)
            assert trace.success_prob == pytest.approx(expected, rel=1e-12)

    def test_wtilde_output_state_matches_dense(self, ising4, psi0_4):
        plan = build_w_tilde(ising4, 0.05, 2)
        trace = trace_plan(plan, psi0_4)
        U = truncated_taylor_matrix(ising4, 0.05, 3)
        ref = U @ psi0_4
        ref /= np.linalg.norm(ref)
        assert fidelity(trace.final_system_state, ref) == pytest.approx(1.0, abs=1e-12)

    def test_unary_matches_wtilde(self, ising4, psi0_4):
        # deferred-measurement unary circuit and the binary mid-measure
        # circuit realize the same channel on the success branch
        t1 = trace_plan(build_w_tilde(ising4, 0.05, 2), psi0_4)
        t2 = trace_plan(build_w_unary(ising4, 0.05, 3), psi0_4)
        assert t2.success_prob == pytest.approx(t1.success_prob, rel=1e-12)
        assert fidelity(t1.final_system_state, t2.final_system_state) == pytest.approx(
            1.0, abs=1e-12
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_circuit_equivalence_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        L = int(rng.integers(1, min(5, 4**n)))
        kappa = int(rng.integers(1, 3))
        H = random_hamiltonian(n, L, rng)
        psi = random_state(n, rng)
        tau = float(rng.uniform(0.01, 0.3)) / (1.0 + sum(t.weight for t in H.terms))
        K = (1 << kappa) - 1
        t1 = trace_plan(build_w_tilde(H, tau, kappa), psi)
        t2 = trace_plan(build_w_unary(H, tau, K), psi)
        p_exact = success_prob_wtilde(H, psi, tau, K)
        assert t1.success_prob == pytest.approx(p_exact, rel=1e-10)
        assert t2.success_prob == pytest.approx(p_exact, rel=1e-10)
        U = truncated_taylor_matrix(H, tau, K)
        ref = U @ psi
        ref /= np.linalg.norm(ref)
        assert fidelity(t1.final_system_state, ref) > 1 - 1e-10
        assert fidelity(t2.final_system_state, ref) > 1 - 1e-10

    def test_whk_cond_probs_match_chain(self, ising4, psi0_4):
        plan = build_w_hk(ising4, 3)
        trace = trace_plan(plan, psi0_4)
        expected = chain_probabilities(ising4, psi0_4, 3)
        assert np.allclose(trace.cond_probs, expected, atol=1e-12)
        assert trace.success_prob == pytest.approx(
            success_prob_hk(ising4, psi0_4, 3), rel=1e-12
        )

    def test_tau_zero_all_blocks_pass(self):
        H = canonicalize(1, [(1.0, "X"), (1.0, "Z")])
        plan = build_w_tilde(H, 0.0, 1)
        trace = trace_plan(plan, np.array([1.0, 0.0]))
        assert trace.success_prob == pytest.approx(1.0)
        assert all(p == pytest.approx(1.0) for p in trace.cond_probs)

    def test_dead_branch(self, psi0_4):
        # H = (I - Z)/2 annihilates |0>, so the first block can never succeed
        H = canonicalize(1, [(0.5, "I"), (-0.5, "Z")])
        plan = build_w_hk(H, 2)
        trace = trace_plan(plan, np.array([1.0, 0.0]))
        assert trace.success_prob == 0.0
        assert trace.cond_probs == (0.0, 0.0)
        assert trace.final_system_state is None

    def test_cost_accounting(self, ising4, psi0_4):
        cost = CostModel(d=1.0, d_ctrl=2.0, m=0.25, prep=0.5)
        plan = build_w_tilde(ising4, 0.05, 2)
        trace = trace_plan(plan, psi0_4, cost)
        # first abort point: prepare(k) + [prep, select, adj-prep, measure]
        assert trace.abort_costs[0] == pytest.approx(0.5 + 0.5 + 2.0 + 0.5 + 0.25)
        # success cost: 1 k-prep + 3 blocks + k-unprep + final measure
        expected = 0.5 + 3 * (0.5 + 2.0 + 0.5 + 0.25) + 0.5 + 0.25
        assert trace.success_cost == pytest.approx(expected)

    def test_expected_shot_cost_matches_runtime_formula(self, ising4, psi0_4):
        plan = build_w_hk(ising4, 3)
        trace = trace_plan(plan, psi0_4, CostModel(d=1.0))
        probs = chain_probabilities(ising4, psi0_4, 3)
        assert trace.expected_shot_cost() == pytest.approx(
            expected_runtime_midmeasure(probs, 1.0), rel=1e-12
        )


class TestRunShots:
    def test_p_hat_within_3_sigma(self, ising4, psi0_4):
        plan = build_w_tilde(ising4, 0.05, 2)
        stats = run_shots(plan, psi0_4, 20000, seed=11)
        p, se = estimate(stats)
        p_true = success_prob_wtilde(ising4, psi0_4, 0.05, 3)
        assert abs(p - p_true) < 3 * se

    def test_deterministic_given_seed(self, ising4, psi0_4):
        plan = build_w_tilde(ising4, 0.05, 1)
        a = run_shots(plan, psi0_4, 500, seed=3)
        b = run_shots(plan, psi0_4, 500, seed=3)
        assert a == b

    def test_shot_ranges_merge(self, ising4, psi0_4):
        plan = build_w_tilde(ising4, 0.05, 2)
        whole = run_shots(plan, psi0_4, 1000, seed=5)
        first = run_shots(plan, psi0_4, 600, seed=5)
        second = run_shots(plan, psi0_4, 400, seed=5, shot_offset=600)
        assert first.merge(second) == whole

    def test_abort_histogram_totals(self, ising4, psi0_4):
        plan = build_w_tilde(ising4, 0.05, 2)
        stats = run_shots(plan, psi0_4, 2000, seed=9)
        assert stats.successes + sum(stats.abort_histogram.values()) == stats.shots

    def test_mean_cost_within_3_sigma_of_formula(self, psi0_4):
        rng = np.random.default_rng(123)
        H = random_hamiltonian(2, 3, rng)
        psi = random_state(2, rng)
        plan = build_w_hk(H, 3)
        N = 20000
        stats = run_shots(plan, psi, N, seed=21, cost=CostModel(d=1.0))
        probs = chain_probabilities(H, psi, 3)
        expected = expected_runtime_midmeasure(probs, 1.0)
        # crude variance bound: per-shot cost lies in [d, 3d]
        assert abs(mean_cost_per_shot(stats) - expected) < 3 * 2.0 / math.sqrt(N)

    def test_fidelity_reporting(self, ising4, psi0_4):
        plan = build_w_tilde(ising4, 0.05, 2)
        U = truncated_taylor_matrix(ising4, 0.05, 3)
        ref = U @ psi0_4
        ref /= np.linalg.norm(ref)
        stats = run_shots(plan, psi0_4, 200, seed=2, reference=ref)
        assert stats.mean_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_tau_zero_always_succeeds(self, ising4, psi0_4):
        plan = build_w_tilde(ising4, 0.0, 2)
        stats = run_shots(plan, psi0_4, 50, seed=1)
        assert stats.successes == 50
        assert stats.abort_histogram == {}

    def test_shot_rng_is_counter_based(self):
        a = shot_rng(7, 3).random(4)
        b = shot_rng(7, 3).random(4)
        c = shot_rng(7, 4).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_needs_shots(self, ising4, psi0_4):
        plan = build_w_tilde(ising4, 0.05, 1)
        with pytest.raises(ValueError):
            run_shots(plan, psi0_4, 0, seed=0)


class TestStatsHelpers:
    def test_estimate(self):
        stats = RunStats(shots=100, successes=25)
        p, se = estimate(stats)
        assert p == 0.25
        assert se == pytest.approx(math.sqrt(0.25 * 0.75 / 100))

    def test_empty_stats_rejected(self):
        with pytest.raises(ValueError):
            estimate(RunStats())
        with pytest.raises(ValueError):
            mean_cost_per_shot(RunStats())

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostModel(d=-1.0)
        with pytest.raises(ValueError):
            CostModel(m=math.nan)
