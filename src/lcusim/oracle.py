"""Closed-form references: success probabilities, for the tests and the bench.

They are squared norms of H~^k psi or sum_k beta_k H~^k psi, H~ = (-i / l1) H, so they take
Pauli-sum matvecs and no 2^n x 2^n matrix. No command calls them: every printed probability
comes from the moment pass (``sampler._krylov``), and these passes, Horner's and the
normalized chain, are its independent matrix-free reference.
"""
from __future__ import annotations

import math

import numpy as np

from .circuits import taylor_weights
from .hamiltonian import HamiltonianLCU, _check_int, apply_rescaled, check_state, l1_norm


def success_prob_hk(H: HamiltonianLCU, psi: np.ndarray, k: int) -> float:
    """<psi| (Htilde^k)^dag Htilde^k |psi>, k >= 0."""
    _check_int(k, "k", 0)
    v = check_state(psi, H.n)
    for _ in range(k):
        v = apply_rescaled(H, v)
    return float(np.vdot(v, v).real)


def chain_probabilities(H: HamiltonianLCU, psi: np.ndarray, k: int) -> list[float]:
    """Conditional block success probabilities p_1..p_k of the sequential protocol.

    p_i = <psi_{i-1}| Htilde^dag Htilde |psi_{i-1}> with psi_i the normalized
    post-block state, k >= 0. A dead branch yields zeros for the remaining steps.
    """
    _check_int(k, "k", 0)
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
    beta, x = taylor_weights(tau, l1_norm(H), K), tau * l1_norm(H)  # checks tau before x
    v = psi
    for k in range(np.count_nonzero(beta) - 1, 0, -1):  # an underflowed beta_k stays 0 after
        v = psi + (x / k) * apply_rescaled(H, v)
    return float(np.vdot(v, v).real) / float(beta.sum()) ** 2
