import contextlib
import io
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcusim.circuits import build_w_hk, build_w_tilde, build_w_unary
from lcusim.errors import DomainError, LcusimError
from lcusim.hamiltonian import build_ising, canonicalize
from lcusim.oracle import chain_probabilities, success_prob_hk, success_prob_wtilde
from lcusim.resources import CostModel, expected_cost, mean_cost, shot_costs
from lcusim.sampler import (
    RunStats,
    estimate,
    PlanTrace,
    run_shots,
    run_shots_many,
    _binomial,
    trace_plan,
)
import lcusim.sampler as sampler
from lcusim.cli import main
from conftest import random_hamiltonian, random_state
from reference import exact_mean_cost, fidelity, shot_rng, truncated_taylor_matrix


def per_shot_run_shots(plan, psi, N, seed):
    """The per-shot reference for run_shots: one Bernoulli draw per measurement from
    one shot_rng per shot."""
    return per_shot_stats(trace_plan(plan, psi), N, seed)


def per_shot_stats(trace, N, seed):
    q = np.array(trace.cond_probs)
    stats = RunStats(shots=N)
    hist = {}
    for i in range(N):
        fails = np.flatnonzero(shot_rng(seed, i).random(q.shape[0]) >= q)
        if fails.size == 0:
            stats.successes += 1
        else:
            step = int(fails[0]) + 1
            hist[step] = hist.get(step, 0) + 1
    stats.abort_histogram = dict(sorted(hist.items()))
    return stats


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

    def test_cost_accounting(self, ising4):
        costs = shot_costs(build_w_tilde(ising4, 0.05, 2), CostModel(d=1.0, d_ctrl=2.0, m=0.25))
        # first abort point: the first controlled block and its measurement
        assert costs[0] == pytest.approx(2.0 + 0.25)
        # success cost: 3 controlled blocks and their measurements, then the final measure
        assert costs[-1] == pytest.approx(3 * (2.0 + 0.25) + 0.25)

    def test_expected_shot_cost_matches_runtime_formula(self, ising4, psi0_4):
        plan = build_w_hk(ising4, 3)
        trace = trace_plan(plan, psi0_4)
        probs = chain_probabilities(ising4, psi0_4, 3)
        costs = shot_costs(plan, CostModel(d=1.0))
        assert exact_mean_cost(trace, costs) == pytest.approx(expected_cost(probs, costs), rel=1e-12)


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
        stats = run_shots(plan, psi, N, seed=21)
        costs = shot_costs(plan, CostModel(d=1.0))
        expected = expected_cost(chain_probabilities(H, psi, 3), costs)
        # crude variance bound: per-shot cost lies in [d, 3d]
        mean = mean_cost(stats, costs)
        assert abs(mean - expected) < 3 * 2.0 / math.sqrt(N)

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
            {"N": True},
        ],
    )
    def test_bad_arguments_rejected(self, ising4, psi0_4, kwargs):
        plan = build_w_tilde(ising4, 0.05, 1)
        with pytest.raises(ValueError):
            run_shots(plan, psi0_4, **{"N": 3, "seed": 0, **kwargs})


def chain_outcomes(trace):
    """Exact probability of each outcome of a shot: abort at measurement j (1-based) or
    success (0), from the traced chain q_1 .. q_M."""
    probs, surviving = {}, 1.0
    for j, q in enumerate(trace.cond_probs, 1):
        q = min(max(q, 0.0), 1.0)
        probs[j] = surviving * (1.0 - q)
        surviving *= q
    probs[0] = surviving
    return probs


def assert_mean_cost(stats, costs):
    """``mean_cost`` is the cost summed over the outcomes, per shot: a success pays the
    last cost."""
    expected = sum(c * costs[j - 1] for j, c in stats.abort_histogram.items())
    expected += stats.successes * costs[-1]
    assert mean_cost(stats, costs) == pytest.approx(expected / stats.shots)


def assert_matches_chain(stats, trace, costs):
    """Each outcome's count within 3 sigma of N times its exact probability (exactly 0 or
    N where that probability is 0 or 1), and ``mean_cost`` summed over the outcomes."""
    N = stats.shots
    counts = {**stats.abort_histogram, 0: stats.successes}
    assert 0 not in stats.abort_histogram.values() and sum(counts.values()) == N
    for outcome, pi in chain_outcomes(trace).items():
        count = counts.get(outcome, 0)
        assert abs(count - N * pi) <= 3 * math.sqrt(N * pi * (1.0 - pi)), (outcome, count, N * pi)
    assert_mean_cost(stats, costs)


def assert_in_binomial_tails(stats, trace, costs):
    """For few shots: each outcome's count, Binomial(N, pi), has both exact tails of at
    least the 3 sigma one-sided normal tail, 0.00135 (exactly 0 or N where pi is 0 or 1)."""
    N = stats.shots
    counts = {**stats.abort_histogram, 0: stats.successes}
    assert 0 not in stats.abort_histogram.values() and sum(counts.values()) == N
    for outcome, pi in chain_outcomes(trace).items():
        count = counts.get(outcome, 0)
        if pi in (0.0, 1.0):
            assert count == N * pi, (outcome, count)
            continue
        pmf = [binomial_pmf(N, pi, k) for k in range(N + 1)]
        assert min(sum(pmf[:count + 1]), sum(pmf[count:])) >= 0.00135, (outcome, count, N * pi)
    assert_mean_cost(stats, costs)


def exact_counts(stats):
    return stats.shots, stats.successes, stats.abort_histogram


class TestBlockSampler:
    """run_shots draws all N shots at once, one binomial per measurement; the per-shot
    loop is its reference, both compared with the exact chain in distribution."""

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("first", [0, 1, 4095, 4096, 2**63, 2**64 - 1])
    def test_stream_matches_shot_rng(self, ising4, psi0_4, seed, first):
        # shots 0 .. first, so N = first + 1 spans 1 .. 2^64, at the extreme seeds: the
        # counts sum to N, repeat for the seed, and follow the exact chain, as the per-shot
        # loop over shot_rng(seed, 0) .. shot_rng(seed, first) does where it can run
        N = first + 1
        plan = build_w_tilde(ising4, 0.3, 2)
        trace, costs = trace_plan(plan, psi0_4), shot_costs(plan, CostModel())
        stats = run_shots(plan, psi0_4, N, seed)
        assert stats == run_shots(plan, psi0_4, N, seed) and stats.shots == N
        runs = [stats] + ([per_shot_stats(trace, N, seed)] if N <= 4097 else [])
        for s in runs:
            assert s.successes + sum(s.abort_histogram.values()) == N
            assert 0 not in s.abort_histogram.values()
            if N >= 4096:  # counts large enough for the 3 sigma gate
                assert_matches_chain(s, trace, costs)

    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_run_shots_matches_per_shot_loop(self, ising4, kappa):
        rng = np.random.default_rng(kappa)
        psi = random_state(4, rng)
        plan = build_w_tilde(ising4, 0.05, kappa)
        args = (plan, psi, 2 * 4096 + 123, 2**40 + kappa)
        trace, costs = trace_plan(plan, psi), shot_costs(plan, CostModel(d=0.3, d_ctrl=0.7, m=0.1))
        new = run_shots(*args)
        assert new.abort_histogram and 0 < new.successes < new.shots
        assert_matches_chain(new, trace, costs)
        assert_matches_chain(per_shot_run_shots(*args), trace, costs)

    def test_dead_branch_matches_per_shot_loop(self):
        # H = (I - Z)/2 annihilates |0>: every q is 0.0, every shot aborts at step 1
        H = canonicalize(1, [(0.5, "I"), (-0.5, "Z")])
        psi = np.array([1.0, 0.0], dtype=complex)
        args = (build_w_hk(H, 2), psi, 4096 + 5, 3)
        new, ref = run_shots(*args), per_shot_run_shots(*args)
        assert new.abort_histogram == {1: 4096 + 5}
        assert exact_counts(new) == exact_counts(ref)
        # every shot pays the first block and its measurement
        assert mean_cost(new, shot_costs(args[0], CostModel(d=0.3, m=0.1))) == pytest.approx(0.4)

    def test_tau_zero_matches_per_shot_loop(self, ising4, psi0_4):
        # at tau = 0 every q is 1.0, every shot succeeds
        args = (build_w_tilde(ising4, 0.0, 2), psi0_4, 4096 + 5, 3)
        new, ref = run_shots(*args), per_shot_run_shots(*args)
        assert new.successes == 4096 + 5
        assert exact_counts(new) == exact_counts(ref)
        # every shot pays the whole plan: three controlled blocks and four measurements
        assert mean_cost(new, shot_costs(args[0], CostModel(d=0.3, m=0.1))) == pytest.approx(3.4)

    def test_unreached_infinite_cost_adds_no_nan(self):
        # every shot aborts at step 1, which costs 1e308; step 2 and success cost inf
        H = canonicalize(1, [(0.5, "I"), (-0.5, "Z")])
        psi = np.array([1.0, 0.0], dtype=complex)
        plan = build_w_hk(H, 2)
        costs = shot_costs(plan, CostModel(d=1e308))
        assert costs == (1e308, math.inf)  # success pays inf
        stats = run_shots(plan, psi, 1, 5)
        assert stats.abort_histogram == {1: 1}
        assert mean_cost(stats, costs) == 1e308
        with pytest.raises(DomainError, match="overflow"):
            mean_cost(run_shots(plan, psi, 2, 5), costs)

    def test_trillion_shots_within_3_sigma(self, ising4, psi0_4):
        plan = build_w_tilde(ising4, 0.05, 3)
        trace = trace_plan(plan, psi0_4)
        stats = run_shots(plan, psi0_4, 10**12, 0)
        assert_matches_chain(stats, trace, shot_costs(plan, CostModel()))
        p, se = estimate(stats)
        assert abs(p - success_prob_wtilde(ising4, psi0_4, 0.05, 7)) < 3 * se


class TestSharedStream:
    """run_shots_many: each plan draws from its own random.Random(seed)."""

    @staticmethod
    def record_draws(monkeypatch):
        calls = []  # (n, p) of each binomial draw

        def recorder(rng, n, p):
            calls.append((n, p))
            return draw(rng, n, p)

        draw = sampler._binomial
        monkeypatch.setattr(sampler, "_binomial", recorder)
        return calls

    @pytest.mark.parametrize("shots", [None, 64])
    def test_each_plan_matches_per_shot_loop(self, ising4, psi0_4, shots):
        dead = canonicalize(4, [(0.5, "IIII"), (-0.5, "ZIII")])  # annihilates |0000>
        plans = [build_w_tilde(ising4, 0.3, kappa) for kappa in (1, 2, 3)] + [
            build_w_unary(ising4, 0.3, 3),
            build_w_hk(ising4, 3),
            build_w_hk(dead, 2),
            build_w_tilde(ising4, 0.0, 2),
        ]
        cost = CostModel(d=0.3, d_ctrl=0.7, m=0.1)
        N = shots or 2 * (65536 // 9) + 123  # 64 shots: outcomes of count 0, early stops
        args = (psi0_4, N, 2**40 + 1)
        traces, many = zip(*run_shots_many(plans, *args))
        assert list(many) == [run_shots(plan, *args) for plan in plans]
        assert [t.cond_probs for t in traces] == [trace_plan(p, psi0_4).cond_probs for p in plans]
        check = assert_matches_chain if shots is None else assert_in_binomial_tails
        for plan, new in zip(plans, many):
            trace, costs = trace_plan(plan, psi0_4), shot_costs(plan, cost)
            check(new, trace, costs)
            check(per_shot_run_shots(plan, *args), trace, costs)
        assert all(s.abort_histogram for s in many[:6])
        assert many[5].abort_histogram == {1: N} and many[6].successes == N
        assert run_shots_many([], *args) == []

    def test_readme_sweep_computes_each_block_once(self, monkeypatch):
        runs = []  # (trace, [(rng, n, p, aborted) per draw]) per plan

        def sampling(t, N, seed):  # each plan's trace, as its shots are drawn
            runs.append((t, []))
            return sample(t, N, seed)

        def recorder(rng, n, p):
            t, draws = runs[-1]
            k = draw(rng, n, p)
            draws.append((rng, n, p, k if t.cond_probs[len(draws)] >= 0.5 else n - k))
            return k

        sample, draw = sampler._sample, sampler._binomial
        monkeypatch.setattr(sampler, "_sample", sampling)
        monkeypatch.setattr(sampler, "_binomial", recorder)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "--model", "ising", "--n", "4", "--tau", "0.05",
                         "--kappa-max", "3", "--shots", "20000", "--seed", "7"]) == 0
        assert [len(t.cond_probs) for t, _ in runs] == [2, 4, 8]
        assert len({id(d[0]) for _, draws in runs for d in draws}) == 3  # a generator per plan
        for t, draws in runs:
            # one draw per measurement reached, in order, of the shots left there
            assert len({id(d[0]) for d in draws}) == 1 and 1 <= len(draws) <= len(t.cond_probs)
            left = 20000
            for (_, n, p, aborted), q in zip(draws, t.cond_probs):
                assert 0 < n == left and p == (1.0 - q if q >= 0.5 else q) and 0 <= aborted <= n
                left -= aborted
            assert len(draws) == len(t.cond_probs) or left == 0  # stops only when none is left

    def test_only_live_blocks_are_computed(self, monkeypatch):
        # measurements 1-4 have q = 1 (no shot aborts), 5 is live, 6 has q = 0 and ends
        # every shot that reaches it, so measurements 7-20 are never reached
        q = (1.0,) * 4 + (0.5, 0.0) + (1.0,) * 2 + (0.25,) * 12
        trace, costs = PlanTrace(q, 0.0, None), tuple(0.5 + j for j in range(20))
        monkeypatch.setattr(sampler, "trace_plan", lambda plan, psi: trace)
        calls = self.record_draws(monkeypatch)
        new = run_shots(None, None, 1000, 9)
        assert [p for _, p in calls if 0.0 < p < 1.0] == [0.5]
        assert len(calls) == 6 and new.abort_histogram.keys() == {5, 6}
        assert_matches_chain(new, trace, costs)
        assert_matches_chain(per_shot_stats(trace, 1000, 9), trace, costs)

    def test_ising_high_order_reads_few_blocks(self, monkeypatch):
        # kappa = 10: 1024 measurements, most with q exactly 1.0
        H = build_ising(2, 1.0, 0.5)
        psi = np.array([1, 0, 0, 0], dtype=complex)
        plan = build_w_tilde(H, 0.05, 10)
        trace = trace_plan(plan, psi)
        live = np.count_nonzero((np.array(trace.cond_probs) > 0) & (np.array(trace.cond_probs) < 1))
        calls = self.record_draws(monkeypatch)
        new = run_shots(plan, psi, 300, 1)
        assert 0 < live <= 20 and len([c for c in calls if 0.0 < c[1] < 1.0]) == live
        costs = shot_costs(plan, CostModel())
        assert_matches_chain(new, trace, costs)
        assert_matches_chain(per_shot_run_shots(plan, psi, 300, 1), trace, costs)


def binomial_pmf(n, p, k):
    """C(n, k) p^k (1 - p)^(n - k), through the log of the exact integer C(n, k)."""
    return math.exp(math.log(math.comb(n, k)) + k * math.log(p) + (n - k) * math.log1p(-p))


def chi2_within_3_sigma(observed, expected):
    """Pearson's chi^2 over bins of expected count >= 20 (adjacent bins merged, the
    remainder into the last), below dof + 3 sqrt(2 dof)."""
    bins, e_acc, o_acc = [], 0.0, 0
    for o, e in zip(observed, expected):
        e_acc, o_acc = e_acc + e, o_acc + o
        if e_acc >= 20:
            bins.append((o_acc, e_acc))
            e_acc, o_acc = 0.0, 0
    o_last, e_last = bins.pop()
    bins.append((o_last + o_acc, e_last + e_acc))
    chi2 = sum((o - e) ** 2 / e for o, e in bins)
    dof = len(bins) - 1
    assert dof >= 1 and chi2 < dof + 3 * math.sqrt(2 * dof), (chi2, dof)


class TestBinomial:
    """``_binomial`` against the exact pmf, at fixed seeds."""

    DRAWS = 20_000

    @pytest.mark.parametrize(
        "n, p",
        [
            (1, 0.3),  # geometric method, n p < 10
            (7, 0.5),
            (60, 0.1),
            (40, 0.93),  # p > 1/2: n minus a draw at 1 - p
            (100, 0.3),  # BTRS, n p >= 10
            (1000, 0.5),
            (5000, 0.011),
            (300, 0.8),
        ],
    )
    def test_matches_the_exact_pmf(self, n, p):
        rng = random.Random(n)
        observed = [0] * (n + 1)
        for _ in range(self.DRAWS):
            observed[_binomial(rng, n, p)] += 1
        chi2_within_3_sigma(observed, [self.DRAWS * binomial_pmf(n, p, k) for k in range(n + 1)])

    def test_n_2_to_the_64_with_n_p_below_10(self):
        # p = 2^-62 rounds 1 - p to 1.0, so the geometric step needs log1p(-p)
        n, p = 2**64, 2.0**-62
        rng = random.Random(64)
        observed = [0] * 40
        for _ in range(self.DRAWS):
            observed[_binomial(rng, n, p)] += 1
        chi2_within_3_sigma(observed, [self.DRAWS * binomial_pmf(n, p, k) for k in range(40)])

    @pytest.mark.parametrize("p", [0.3, 1.0 - 2.0**-40])
    def test_n_2_to_the_64_with_btrs(self, p):
        # at this n the binomial cdf is the normal one to about 1e-9 (Berry-Esseen), so
        # the draws' z-scores fall in 20 equiprobable normal bins
        n = 2**64
        mean = n * Fraction(p)
        sd = math.sqrt(n * p * (1.0 - p))
        rng = random.Random(65)
        observed = [0] * 20
        for _ in range(self.DRAWS):
            z = float(_binomial(rng, n, p) - mean) / sd
            observed[min(int(20 * 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))), 19)] += 1
        chi2_within_3_sigma(observed, [self.DRAWS / 20] * 20)

    def test_edges_draw_nothing(self):
        rng = random.Random(0)
        state = rng.getstate()
        assert [_binomial(rng, 0, 0.3), _binomial(rng, 0, 0.0), _binomial(rng, 0, 1.0)] == [0, 0, 0]
        assert [_binomial(rng, 2**64, 0.0), _binomial(rng, 2**64, -0.0)] == [0, 0]
        assert [_binomial(rng, 2**64, 1.0), _binomial(rng, 5, 1.0 + 2**-52)] == [2**64, 5]
        assert rng.getstate() == state


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
            mean_cost(RunStats(), ())

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostModel(d=-1.0)
        with pytest.raises(ValueError):
            CostModel(m=math.nan)

    @pytest.mark.parametrize(
        "site", ["CostModel", "run_shots", "run_shots_many", "estimate", "mean_cost"])
    def test_refusal_is_a_library_error(self, ising4, psi0_4, site):
        # each refusal is an LcusimError, and each of those is also a ValueError
        plan = build_w_tilde(ising4, 0.05, 1)
        refused = {
            "CostModel": lambda: CostModel(d_ctrl=math.inf),
            "run_shots": lambda: run_shots(plan, psi0_4, 0, seed=0),
            "run_shots_many": lambda: run_shots_many([plan], psi0_4, 3, seed=-1),
            "estimate": lambda: estimate(RunStats()),
            "mean_cost": lambda: mean_cost(RunStats(), ()),
        }[site]
        with pytest.raises(LcusimError):
            refused()

    @pytest.mark.parametrize("flag", ["--d-ctrl", "--m"])
    def test_cli_prints_a_refused_cost_on_one_line(self, capsys, flag):
        code = main(["simulate", "--model", "ising", flag, "-1"])
        name = flag[2:].replace("-", "_")
        assert (code, capsys.readouterr().err) == (2, f"error: {name} must be at least 0, got -1.0\n")

    def test_overflowing_cost_sum_rejected_without_a_warning(self, ising4, psi0_4):
        # each shot costs at most 3e305, but 10000 of them sum past the largest float
        plan = build_w_tilde(ising4, 0.05, 2)
        costs = shot_costs(plan, CostModel(d_ctrl=1e305))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                mean_cost(run_shots(plan, psi0_4, 10_000, 0), costs)
            assert math.isfinite(mean_cost(run_shots(plan, psi0_4, 10, 0), costs))
