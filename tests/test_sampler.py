import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcusim.circuits import build_w_hk, build_w_tilde, build_w_unary
from lcusim.errors import DomainError
from lcusim.hamiltonian import build_ising, canonicalize
from lcusim.oracle import (
    chain_probabilities,
    expected_runtime_midmeasure,
    fidelity,
    success_prob_hk,
    success_prob_wtilde,
)
from lcusim.sampler import (
    CostModel,
    RunStats,
    estimate,
    mean_cost_per_shot,
    PlanTrace,
    run_shots,
    run_shots_many,
    _shot_uniforms,
    trace_plan,
)
import lcusim.sampler as sampler
from lcusim.cli import main
from conftest import random_hamiltonian, random_state
from reference import shot_rng, truncated_taylor_matrix


def per_shot_run_shots(plan, psi, N, seed, cost=CostModel()):
    """The per-shot loop that the block sampler replaced: one shot_rng per shot."""
    return per_shot_stats(trace_plan(plan, psi, cost), N, seed)


def per_shot_stats(trace, N, seed):
    q = np.array(trace.cond_probs)
    stats = RunStats(shots=N)
    hist = {}
    for i in range(N):
        fails = np.flatnonzero(shot_rng(seed, i).random(q.shape[0]) >= q)
        if fails.size == 0:
            stats.successes += 1
            stats.total_cost += trace.success_cost
        else:
            step = int(fails[0]) + 1
            hist[step] = hist.get(step, 0) + 1
            stats.total_cost += trace.abort_costs[step - 1]
    stats.abort_histogram = dict(sorted(hist.items()))
    return stats


def assert_bitwise_equal(new, old):
    assert new == old
    assert new.total_cost.hex() == old.total_cost.hex()


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
        cost = CostModel(d=1.0, d_ctrl=2.0, m=0.25)
        plan = build_w_tilde(ising4, 0.05, 2)
        trace = trace_plan(plan, psi0_4, cost)
        # first abort point: the first controlled block and its measurement
        assert trace.abort_costs[0] == pytest.approx(2.0 + 0.25)
        # success cost: 3 controlled blocks and their measurements, then the final measure
        expected = 3 * (2.0 + 0.25) + 0.25
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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"seed": 2**64},
            {"seed": 1.5},
            {"N": 2**64 + 1},
            {"N": None},
            {"seed": "0"},
            {"N": 3.0},
            {"N": -2},
        ],
    )
    def test_bad_arguments_rejected(self, ising4, psi0_4, kwargs):
        plan = build_w_tilde(ising4, 0.05, 1)
        with pytest.raises(ValueError):
            run_shots(plan, psi0_4, **{"N": 3, "seed": 0, **kwargs})

class TestBlockSampler:
    """The block Philox stream and shot loop against the per-shot reference."""

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("first", [0, 1, 4095, 4096, 2**63, 2**64 - 1])
    def test_stream_matches_shot_rng(self, seed, first):
        count = min(3, 2**64 - first)
        for M in range(1, 10):
            u = _shot_uniforms(seed, first, count, np.arange(1, -(-M // 4) + 1))[:, :M]
            assert u.shape == (count, M)
            for j in range(count):
                assert np.array_equal(u[j], shot_rng(seed, first + j).random(M))
        # any subset of counters, in any order: block c holds draws 4(c - 1) .. 4c - 1
        counters = [5, 2, 9]
        u = _shot_uniforms(seed, first, count, np.array(counters))
        assert u.shape == (count, 12)
        for j in range(count):
            stream = shot_rng(seed, first + j).random(36)
            for p, c in enumerate(counters):
                assert np.array_equal(u[j, 4 * p:4 * p + 4], stream[4 * (c - 1):4 * c])

    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_run_shots_matches_per_shot_loop(self, ising4, kappa):
        rng = np.random.default_rng(kappa)
        psi = random_state(4, rng)
        plan = build_w_tilde(ising4, 0.05, kappa)
        cost = CostModel(d=0.3, d_ctrl=0.7, m=0.1)
        args = (plan, psi, 2 * 4096 + 123, 2**40 + kappa, cost)
        new = run_shots(*args)
        assert new.abort_histogram and 0 < new.successes < new.shots
        assert_bitwise_equal(new, per_shot_run_shots(*args))

    def test_dead_branch_matches_per_shot_loop(self):
        # H = (I - Z)/2 annihilates |0>: every q is 0.0, every shot aborts at step 1
        H = canonicalize(1, [(0.5, "I"), (-0.5, "Z")])
        psi = np.array([1.0, 0.0], dtype=complex)
        args = (build_w_hk(H, 2), psi, 4096 + 5, 3, CostModel(d=0.3, m=0.1))
        new = run_shots(*args)
        assert new.abort_histogram == {1: 4096 + 5}
        assert_bitwise_equal(new, per_shot_run_shots(*args))

    def test_tau_zero_matches_per_shot_loop(self, ising4, psi0_4):
        # at tau = 0 every q is 1.0, every shot succeeds
        args = (build_w_tilde(ising4, 0.0, 2), psi0_4, 4096 + 5, 3, CostModel(d=0.3, m=0.1))
        new = run_shots(*args)
        assert new.successes == 4096 + 5
        assert_bitwise_equal(new, per_shot_run_shots(*args))


class TestSharedStream:
    """run_shots_many: one Philox stream for many plans, and only the live blocks."""

    @staticmethod
    def record_kernel(monkeypatch):
        calls = []  # (first, count, counters) per kernel call

        def recorder(seed, first, count, counters):
            calls.append((first, count, [int(c) for c in counters]))
            return kernel(seed, first, count, counters)

        kernel = sampler._shot_uniforms
        monkeypatch.setattr(sampler, "_shot_uniforms", recorder)
        return calls

    @pytest.mark.parametrize("entries", [None, 64])
    def test_each_plan_matches_per_shot_loop(self, ising4, psi0_4, monkeypatch, entries):
        if entries:  # a chunk of 7 shots: many chunk boundaries at a small N
            monkeypatch.setattr(sampler, "_CHUNK_ENTRIES", entries)
        dead = canonicalize(4, [(0.5, "IIII"), (-0.5, "ZIII")])  # annihilates |0000>
        plans = [build_w_tilde(ising4, 0.3, kappa) for kappa in (1, 2, 3)] + [
            build_w_unary(ising4, 0.3, 3),
            build_w_hk(ising4, 3),
            build_w_hk(dead, 2),
            build_w_tilde(ising4, 0.0, 2),
        ]
        cost = CostModel(d=0.3, d_ctrl=0.7, m=0.1)
        chunk = sampler._CHUNK_ENTRIES // 9  # 2 blocks of draws, at most 8 + 1 outcomes
        N = 2 * chunk + 123 if entries is None else 100
        args = (psi0_4, N, 2**40 + 1, cost)
        calls = self.record_kernel(monkeypatch)
        many = run_shots_many(plans, *args)
        assert [c[0] for c in calls] == list(range(0, N, chunk))
        assert all(c[2] == [1, 2] for c in calls)
        for plan, new in zip(plans, many):
            assert_bitwise_equal(new, per_shot_run_shots(plan, *args))
        assert all(s.abort_histogram for s in many[:6])
        assert many[5].abort_histogram == {1: N} and many[6].successes == N
        assert run_shots_many([], *args) == []

    def test_readme_sweep_computes_each_block_once(self, monkeypatch):
        calls = self.record_kernel(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "--model", "ising", "--n", "4", "--tau", "0.05",
                         "--kappa-max", "3", "--shots", "20000", "--seed", "7"]) == 0
        pairs = [(first + j, c) for first, count, cs in calls for j in range(count) for c in cs]
        assert len(pairs) == len(set(pairs)) == 2 * 20000  # kappa = 3 reads 8 draws
        assert sorted({p[0] for p in pairs}) == list(range(20000))

    def test_only_live_blocks_are_computed(self, monkeypatch):
        # draws 0-3 meet q = 1 (never fail), draw 4 is live, draw 5 has q = 0 and
        # fails every shot that reaches it, so draws 6-19 are never read: only
        # counter 2 (draws 4-7) is computed
        q = (1.0,) * 4 + (0.5, 0.0) + (1.0,) * 2 + (0.25,) * 12
        trace = PlanTrace(q, 0.0, None, tuple(0.5 + j for j in range(20)), 21.0)
        monkeypatch.setattr(sampler, "trace_plan", lambda plan, psi, cost: trace)
        calls = self.record_kernel(monkeypatch)
        new = run_shots(None, None, 1000, 9)
        assert {tuple(c[2]) for c in calls} == {(2,)}
        assert new.abort_histogram.keys() == {5, 6}
        assert_bitwise_equal(new, per_shot_stats(trace, 1000, 9))

    def test_ising_high_order_reads_few_blocks(self, monkeypatch):
        # kappa = 10: 1024 measurements, most with q exactly 1.0
        H = build_ising(2, 1.0, 0.5)
        psi = np.array([1, 0, 0, 0], dtype=complex)
        plan = build_w_tilde(H, 0.05, 10)
        q = np.array(trace_plan(plan, psi).cond_probs)
        live_blocks = sorted({j // 4 + 1 for j in np.flatnonzero((q > 0) & (q < 1))})
        calls = self.record_kernel(monkeypatch)
        new = run_shots(plan, psi, 300, 1)
        assert len(live_blocks) == 5 and {tuple(c[2]) for c in calls} == {tuple(live_blocks)}
        assert_bitwise_equal(new, per_shot_run_shots(plan, psi, 300, 1))


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

    def test_overflowing_cost_sum_rejected_without_a_warning(self, ising4, psi0_4):
        # each shot costs at most 3e305, but 10000 of them sum past the largest float
        plan = build_w_tilde(ising4, 0.05, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                run_shots(plan, psi0_4, 10_000, 0, CostModel(d_ctrl=1e305))
            stats = run_shots(plan, psi0_4, 10, 0, CostModel(d_ctrl=1e305))
        assert math.isfinite(mean_cost_per_shot(stats))
