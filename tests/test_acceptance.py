"""End-to-end acceptance gate.

Each test covers one headline claim of the package and prints a single
pass/fail line (visible with ``pytest -s`` or in the captured output).
"""
import math
from itertools import accumulate, repeat

import numpy as np
import pytest

from lcusim.bliss import (
    BlissParams,
    apply_bliss,
    build_hubbard_chain,
    jordan_wigner,
    optimize_bliss,
)
from lcusim.circuits import build_w_hk, build_w_tilde, build_w_unary
from lcusim.cli import main as cli_main
from lcusim.hamiltonian import build_ising, l1_norm
from lcusim.oracle import chain_probabilities, success_prob_hk, success_prob_wtilde
from lcusim.resources import CostModel, count, expected_cost, mean_cost, runtime_bound, shot_costs
from lcusim.sampler import estimate, run_shots, trace_plan
from conftest import ladder_matrix, random_hamiltonian, random_state
from reference import (fidelity, sector_spectrum, shot_outcomes, spectral_lower_bound,
                       truncated_taylor_matrix)


def _report(name: str) -> None:
    # reached only when every assertion above it held
    print(f"ACCEPTANCE {name}: PASS")


def test_1_success_probability_statistics(ising4, psi0_4):
    """Sampled success rates match the analytic curve; large-K plateau."""
    shots = 100_000
    for kappa in (1, 2, 3):
        plan = build_w_tilde(ising4, 0.05, kappa)
        stats = run_shots(plan, psi0_4, shots, seed=7)
        p_hat, se = estimate(stats)
        p_true = success_prob_wtilde(ising4, psi0_4, 0.05, (1 << kappa) - 1)
        assert abs(p_hat - p_true) < 3 * se, (kappa, p_hat, p_true, se)
    plateau = success_prob_wtilde(ising4, psi0_4, 0.05, 7)
    assert abs(plateau - math.exp(-0.5)) < 1e-3
    _report("1 success-probability statistics and plateau")


def test_2_circuit_equivalence():
    """Binary mid-measure and unary deferred circuits agree with the dense oracle."""
    rng = np.random.default_rng(2024)
    cases = 0
    for n in (1, 2, 3):
        for L in (1, 2, 3, 4):
            if L > 4**n - 1:
                continue
            for kappa in (1, 2):
                H = random_hamiltonian(n, L, rng)
                psi = random_state(n, rng)
                tau = 0.2 / l1_norm(H)
                K = (1 << kappa) - 1
                t_bin = trace_plan(build_w_tilde(H, tau, kappa), psi)
                t_un = trace_plan(build_w_unary(H, tau, K), psi)
                U = truncated_taylor_matrix(H, tau, K)
                ref = U @ psi
                ref /= np.linalg.norm(ref)
                assert 1 - fidelity(t_bin.final_system_state, t_un.final_system_state) <= 1e-9
                assert 1 - fidelity(t_bin.final_system_state, ref) <= 1e-9
                assert 1 - fidelity(t_un.final_system_state, ref) <= 1e-9
                p = success_prob_wtilde(H, psi, tau, K)
                assert t_bin.success_prob == pytest.approx(p, rel=1e-9)
                assert t_un.success_prob == pytest.approx(p, rel=1e-9)
                cases += 1
    assert cases >= 20
    _report("2 circuit equivalence (binary / unary / dense)")


def test_2_circuit_equivalence_at_K7():
    """At the paper's K = 7 the unary circuit (up to a 31-qubit layout) equals
    binary kappa = 3 and the dense truncated propagator."""
    rng = np.random.default_rng(2027)
    for n, L in ((1, 3), (2, 5), (2, 8), (3, 6), (3, 8)):
        H = random_hamiltonian(n, L, rng)
        psi = random_state(n, rng)
        tau = 0.3 / l1_norm(H)
        t_bin = trace_plan(build_w_tilde(H, tau, 3), psi)
        plan_un = build_w_unary(H, tau, 7)
        t_un = trace_plan(plan_un, psi)
        ref = truncated_taylor_matrix(H, tau, 7) @ psi
        p = float(np.vdot(ref, ref).real) / sum((tau * l1_norm(H)) ** k / math.factorial(k)
                                                for k in range(8)) ** 2
        ref /= np.linalg.norm(ref)
        assert count(plan_un).qubits == n + 7 * H.l_width + 7
        assert 1 - fidelity(t_un.final_system_state, ref) <= 1e-9
        assert 1 - fidelity(t_bin.final_system_state, ref) <= 1e-9
        assert t_un.success_prob == pytest.approx(p, rel=1e-9)
        assert t_bin.success_prob == pytest.approx(p, rel=1e-9)
    _report("2 circuit equivalence at K = 7 (binary / unary / dense)")


def test_3_binary_power_identity():
    """sum_k |k><k| (x) U^k equals the product of singly-controlled U^{2^i}."""
    rng = np.random.default_rng(3)
    for kappa in (2, 3):
        size = 1 << kappa
        for _ in range(20):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(z)
            U = q * (np.diag(r) / np.abs(np.diag(r)))
            direct = np.zeros((2 * size, 2 * size), dtype=complex)
            for k in range(size):
                proj = np.zeros((size, size))
                proj[k, k] = 1.0
                direct += np.kron(proj, np.linalg.matrix_power(U, k))
            product = np.eye(2 * size, dtype=complex)
            for i in range(kappa):  # run i: U^(2^i) controlled by k-qubit i
                ctrl = np.zeros((2 * size, 2 * size), dtype=complex)
                u_pow = np.linalg.matrix_power(U, 1 << i)
                for k in range(size):
                    proj = np.zeros((size, size))
                    proj[k, k] = 1.0
                    block = u_pow if (k >> i) & 1 else np.eye(2)
                    ctrl += np.kron(proj, block)
                product = ctrl @ product
            assert np.abs(direct - product).max() <= 1e-10
    _report("3 binary-encoded power identity")


def test_4_chain_property_and_lower_bound():
    """Sequential conditional probabilities multiply to the block-power success
    probability, which never drops below the spectral bound."""
    rng = np.random.default_rng(4)
    for _ in range(50):
        H = random_hamiltonian(2, int(rng.integers(2, 6)), rng)
        psi = random_state(2, rng)
        k = int(rng.integers(1, 5))
        probs = chain_probabilities(H, psi, k)
        p_direct = success_prob_hk(H, psi, k)
        assert abs(math.prod(probs) - p_direct) <= 1e-12
        assert p_direct >= spectral_lower_bound(H, k) - 1e-12
    _report("4 chain property and spectral lower bound")


def test_5_runtime_accounting(ising4, psi0_4):
    """Sampled costs match the closed-form runtime expressions and bounds."""
    rng = np.random.default_rng(55)
    H = random_hamiltonian(2, 4, rng)
    psi = random_state(2, rng)
    plan = build_w_hk(H, 3)
    shots = 100_000
    stats = run_shots(plan, psi, shots, seed=5)
    costs = shot_costs(plan, CostModel(d=1.0))
    expected = expected_cost(chain_probabilities(H, psi, 3), costs)
    # exact per-shot cost variance from the trace distribution
    outcomes = shot_outcomes(trace_plan(plan, psi), costs)
    var = sum(w * (c - expected) ** 2 for w, c in outcomes)
    assert abs(mean_cost(stats, costs) - expected) < 3 * math.sqrt(var / shots)

    # early-abort runtime (the mean shot cost over the success probability, as analytic
    # prints it) never exceeds the deferred-measurement runtime, with equality exactly when
    # every intermediate probability is 1
    def total_runtime(p, d):
        return expected_cost(p, accumulate(repeat(d, len(p)))) / math.prod(p)

    rng2 = np.random.default_rng(56)
    for _ in range(1000):
        k = int(rng2.integers(1, 7))
        p = rng2.uniform(0.05, 1.0, size=k)
        lhs = total_runtime(p, 1.0)
        rhs = k * 1.0 / math.prod(p)
        assert lhs <= rhs + 1e-12
        if np.any(p[:-1] < 1.0 - 1e-12):
            assert lhs < rhs - 1e-15 * rhs
    ones = np.ones(5)
    assert total_runtime(ones, 2.0) == pytest.approx(5 * 2.0)

    # first-order upper bound on the shorter-width circuit's cost per success;
    # checked where the linear-in-tau correction dominates
    tau = 0.2
    plan_wt = build_w_tilde(ising4, tau, 3)
    stats_wt = run_shots(plan_wt, psi0_4, shots, seed=6)
    costs_wt = shot_costs(plan_wt, CostModel(d=1.0, d_ctrl=1.0))
    empirical = mean_cost(stats_wt, costs_wt) * stats_wt.shots / stats_wt.successes
    p_w, p1 = success_prob_wtilde(ising4, psi0_4, tau, 7), success_prob_hk(ising4, psi0_4, 1)
    bound = runtime_bound(p_w, p1, tau, l1_norm(ising4), 7, 1.0)
    assert bound > empirical
    _report("5 runtime accounting (mean cost, inequality, upper bound)")


def test_6_qubit_totals_and_count_structure(ising4):
    """Register totals follow the closed-form space formulas; compiled
    two-qubit counts are flat in K at fixed kappa for the binary circuit and
    affine in K for the unary circuit."""
    rng = np.random.default_rng(6)
    for L in (2, 7, 16):
        for n in (2, 3, 4, 5, 6):
            if L > 4**n - 1:
                continue
            H = random_hamiltonian(n, L, rng)
            lw = max(1, math.ceil(math.log2(L)))
            for K in range(1, 8):
                kappa = max(1, math.ceil(math.log2(K + 1)))
                assert count(build_w_tilde(H, 0.05, kappa)).qubits == kappa + lw + n
                assert count(build_w_unary(H, 0.05, K)).qubits == K + K * lw + n
    # fixed register width: K in {4..7} all compile at kappa = 3
    wt = [count(build_w_tilde(ising4, 0.05, max(1, math.ceil(math.log2(K + 1)))))
          for K in (4, 5, 6, 7)]
    assert len({c.two_qubit for c in wt}) == 1
    assert len({c.qubits for c in wt}) == 1
    # unary circuit grows by a constant amount per additional block
    twos = [count(build_w_unary(ising4, 0.05, K)).two_qubit for K in range(2, 8)]
    diffs = {b - a for a, b in zip(twos, twos[1:])}
    assert len(diffs) == 1
    _report("6 qubit-total formulas and count structure")


def test_7_bliss():
    """Shift optimization beats the grid-search oracle, preserves the
    particle-number sector, and the ladder-operator encoding anticommutes."""
    F = build_hubbard_chain(4, 1.0, 4.0)
    ne = 4
    before = jordan_wigner(F)
    result = optimize_bliss(F, ne)
    after = result.hamiltonian
    assert l1_norm(after) < l1_norm(before)

    # grid-search oracle over (xi0, uniform diagonal xi); the half-filled
    # chain is site-symmetric, so a uniform diagonal spans the optimum
    best = math.inf
    for xi0 in np.linspace(0.0, 3.0, 31):
        for d in np.linspace(-1.0, 1.0, 21):
            params = BlissParams(float(xi0), np.eye(8) * d, ne)
            best = min(best, l1_norm(jordan_wigner(apply_bliss(F, params))))
    assert l1_norm(after) <= best + 1e-3

    shifted = apply_bliss(F, result.params)
    spec_before = sector_spectrum(F, ne)
    spec_after = sector_spectrum(shifted, ne)
    assert np.abs(spec_before - spec_after).max() <= 1e-8

    n = 4
    ladders = [ladder_matrix(j, n) for j in range(n)]
    eye = np.eye(1 << n)
    for i in range(n):
        for j in range(n):
            anti = ladders[i] @ ladders[j].conj().T + ladders[j].conj().T @ ladders[i]
            assert np.abs(anti - eye * (i == j)).max() <= 1e-12
            assert np.abs(ladders[i] @ ladders[j] + ladders[j] @ ladders[i]).max() <= 1e-12
    _report("7 shift optimization, sector invariance, anticommutation")


def test_8_cli_determinism(tmp_path):
    """Identical configuration and seed give byte-identical output files."""
    jobs = [
        ["simulate", "--model", "ising", "--tau", "0.05", "--kappa", "2",
         "--shots", "2000", "--seed", "13"],
        ["sweep", "--model", "ising", "--tau", "0.05", "--kappa-max", "3",
         "--shots", "1000", "--seed", "7", "--format", "json"],
        ["analytic", "--model", "ising", "--tau", "0.05", "--K", "7"],
        ["resources", "--model", "ising", "--n", "3", "--K-max", "3"],
    ]
    for idx, job in enumerate(jobs):
        a = tmp_path / f"{idx}a.out"
        b = tmp_path / f"{idx}b.out"
        assert cli_main(job + ["--out", str(a)]) == 0
        assert cli_main(job + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    _report("8 CLI determinism")
