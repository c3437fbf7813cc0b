"""Closed-form references: success probabilities, expected runtimes and bounds.

The success probabilities are squared norms of H~^k psi or
sum_k beta_k H~^k psi, H~ = (-i / l1) H, so they take Pauli-sum matvecs and
no 2^n x 2^n matrix; the runtimes and the bound are functions of them, and their
cost units pass the check ``resources.CostModel`` makes.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .circuits import taylor_weights
from .errors import DomainError, InvalidModelError
from .hamiltonian import HamiltonianLCU, _check_int, apply_rescaled, check_state, l1_norm
from .resources import _check_costs


def success_prob_hk(H: HamiltonianLCU, psi: np.ndarray, k: int) -> float:
    """<psi| (Htilde^k)^dag Htilde^k |psi>, k >= 0."""
    if _check_int(k, "k") < 0:
        raise InvalidModelError("k must be nonnegative")
    v = check_state(psi, H.n)
    for _ in range(k):
        v = apply_rescaled(H, v)
    return float(np.vdot(v, v).real)


def chain_probabilities(H: HamiltonianLCU, psi: np.ndarray, k: int) -> list[float]:
    """Conditional block success probabilities p_1..p_k of the sequential protocol.

    p_i = <psi_{i-1}| Htilde^dag Htilde |psi_{i-1}> with psi_i the normalized
    post-block state, k >= 0. A dead branch yields zeros for the remaining steps.
    """
    if _check_int(k, "k") < 0:
        raise InvalidModelError("k must be nonnegative")
    v = check_state(psi, H.n)
    probs = []
    for _ in range(k):
        v = apply_rescaled(H, v)
        p = float(np.vdot(v, v).real)
        probs.append(p)
        if p < 1e-300:
            probs += [0.0] * (k - len(probs))
            break
        v = v / math.sqrt(p)
    return probs


def success_prob_wtilde(H: HamiltonianLCU, psi: np.ndarray, tau: float, K: int) -> float:
    """<psi| U^dag U |psi> / ||beta||_1^2 for the truncated propagator U.

    U psi in Horner form: v <- psi + (x / k) Htilde v for k = top..1, x = tau l1, where
    beta_top is the last beta_k that has not underflowed to 0.
    """
    psi = check_state(psi, H.n)
    x, beta = tau * l1_norm(H), taylor_weights(tau, l1_norm(H), K)
    v = psi
    for k in range(np.count_nonzero(beta) - 1, 0, -1):  # an underflowed beta_k stays 0 after
        v = psi + (x / k) * apply_rescaled(H, v)
    return float(np.vdot(v, v).real) / float(beta.sum()) ** 2


def _probabilities(ps: Sequence[float]) -> list[float]:
    """``ps`` as a list of values in [0, 1], with 1e-9 of rounding above 1, or ``DomainError``."""
    ps = list(ps)
    if not all(0.0 <= p <= 1.0 + 1e-9 for p in ps):
        raise DomainError("a probability must lie in [0, 1]")
    return ps


def _finite_cost(cost: float) -> float:
    """``cost``, or ``DomainError`` where a sum or product of finite costs overflowed."""
    if math.isinf(cost):
        raise DomainError("a runtime overflows: the cost units are too large")
    return cost


def expected_runtime_midmeasure(p_chain: Sequence[float], d: float) -> float:
    """Average per-shot cost of the abort-and-restart protocol.

    sum_j (1-p_j) (prod_{i<j} p_i) j d  +  (prod_{i<k} p_i) k d.
    """
    _check_costs(d)
    p = _probabilities(p_chain)
    total, running = 0.0, 1.0  # running = prod_{i<j} p_i
    for j, pj in enumerate(p[:-1], start=1):
        total += (1.0 - pj) * running * j * d
        running *= pj
    return _finite_cost(total + running * len(p) * d)


def total_runtime_success(p_chain: Sequence[float], d: float) -> float:
    """d (1 + p1 + p1 p2 + ... + p1..p_{k-1}) / (p1..p_k); inf on a zero branch."""
    _check_costs(d)
    numerator, running = 0.0, 1.0
    for pi in _probabilities(p_chain):
        numerator += running
        running *= pi
    return math.inf if running == 0.0 else _finite_cost(d * numerator / running)


def runtime_bound(p_w: float, p1: float, tau: float, l1: float, K: int, d_ctrl: float) -> float:
    """First-order upper bound on the average successful-run cost of the shorter-width
    circuit, (K d_ctrl / p_w) [1 - (tau l1 / ||beta||_1) (1 - p1)], from p_w = p_wtilde and
    p1 = <psi| Htilde^dag Htilde |psi>; inf at p_w = 0."""
    _check_costs(d_ctrl)
    _probabilities((p_w, p1))
    correction = (tau * l1 / float(taylor_weights(tau, l1, K).sum())) * (1.0 - p1)
    return math.inf if p_w == 0.0 else _finite_cost((K * d_ctrl / p_w) * (1.0 - correction))
