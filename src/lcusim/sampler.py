"""Shot loop with mid-circuit post-selection and early abort-and-restart.

A plan's success path is deterministic: the state after j consecutive zero outcomes does
not depend on the shot, so each measurement's conditional zero-probability is traced once.
On that path an LCU block whose l-register is measured |0> acts as (singly controlled)
H~ = (-i / l1) H, because PREPARE is zero-padded (Berry et al., PRL 114, 090502, 2015). So
each row of the one register open at a time is a multiple of a power H~^m of a base state
phi, and every q is a ratio of weighted sums of nu_m = ||H~^m phi||^2. The register closes
with the adjoint of its Prepare's column a, so its Measure collapses the rows onto
sum_v |a_v|^2 H~^{m_v} phi, whatever unitary completes a: one Krylov pass per collapse,
not a state per row. Every shot runs the same chain q_1 .. q_M, so of the r_j shots that
reach measurement j, Binomial(r_j, 1 - q_j) abort there: the chain-rule form of the
multinomial over the M + 1 outcomes, with exactly the law of one Bernoulli draw per shot
and measurement. ``run_shots`` makes one binomial draw per measurement, so its cost does
not grow with the number of shots. What a shot costs depends on the plan and on where it
stopped, not on psi: the sampler draws outcomes only, and ``resources`` prices them.
The same pass gives ``analytic`` its p_wtilde and W_{H^k} chain (``_chain``).
"""
from __future__ import annotations

import itertools
import math
import random
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .circuits import CircuitPlan, Run, amplitude_values
from .errors import DomainError
from .hamiltonian import _check_int, apply_rescaled, check_state, check_width


class PlanTrace(NamedTuple):
    """Exact success-path data for one plan and input state."""

    cond_probs: tuple[float, ...]  # conditional zero-probability per measurement
    success_prob: float
    final_system_state: np.ndarray | None  # None when the success path is dead


class RunStats(SimpleNamespace):
    """Mutable shot counts, equal to another whose three fields are equal; each instance
    holds its own ``abort_histogram`` dict, {measurement: shots that stopped there}."""

    def __init__(self, shots: int = 0, successes: int = 0,
                 abort_histogram: dict[int, int] | None = None):
        super().__init__(shots=shots, successes=successes,
                         abort_histogram={} if abort_histogram is None else abort_histogram)


def _sums(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """c_d = the sum of x over the rows of degree m = d, for d = 0 .. max(m)."""
    return np.bincount(m, x.real) + 1j * np.bincount(m, x.imag)


_ONE_ROW = (np.zeros(1, np.int64), np.ones(1))  # m and w while no register is open


def _walk(plan: CircuitPlan):
    """The plan's success path as segments, each from a base state phi to its collapse.

    The rows of a ``Prepared``, over the values v of its nonzero amplitudes a (one row v = 0
    outside one), are a_v H~^{m_v} phi and stay orthogonal: each q is a ratio of sums
    N = sum_v w_v nu_{m_v}, w = |a|^2 and nu_m = ||H~^m phi||^2. A ``Run`` of L blocks, read
    alike where deferred, adds 1 .. L to the m_v of the rows its control selects; its spec is
    (m, w, hit, L) at its start, hit 1 on those rows, or the int L for L q's of 1 where no
    row has the bit. A segment is (specs, m, w, c, collapses), m and w at its end and
    c = ``_sums(m, w)``: the adjoint takes row v to |0> with amplitude conj(a_v), so the
    Measure keeps sum_v w_v H~^{m_v} phi."""
    segments, specs, (m, w) = [], [], _ONE_ROW
    for step in plan.steps:
        if isinstance(step, Run):
            specs.append((m, w, True, step.times))
            m = m + step.times
            continue
        width = plan.widths[step.register]
        amps, at = amplitude_values(step.amps, width)
        check_width(plan.hamiltonian.n + (len(at) - 1).bit_length())  # circuit width
        vals = np.array(at, dtype=object if width > 62 else np.int64)
        m, w, top = np.full(len(at), m[0]), (amps * amps.conj()).real, at[-1].bit_length()
        for _, bit, times in step.runs:  # hit: True, False past the top bit, or 1 where set
            hit = bit is None or bit < top and (vals >> bit & 1).astype(np.int64, copy=False)
            specs.append((m, w, hit, times) if hit is not False else times)
            m = m + times * hit
        segments.append((specs, m, w, _sums(m, w), True))
        specs, (m, w) = [], _ONE_ROW
    if specs or m[0] or not segments:  # not where the state at the end is the last collapse's
        segments.append((specs, m, w, _sums(m, w), False))
    return segments


_TINY = 2.0**-900  # a nu below this is rescaled; a pass whose nu stay above it is unscaled


def _krylov(H, phi: np.ndarray, coeffs: list[np.ndarray]):
    """(nu, e, sums, refs): nu_d 4^-e_d = ||H~^d phi||^2 up to the longest c's degree, and
    2^ref sum_d c_d H~^d phi for each c of ``coeffs``, ref = e at c's lowest degree: one
    matvec per degree for all of them. The int e_d is 0 until nu_d falls below ``_TINY``; then
    H~^d phi is held times a power of 2, so nu stays in the float range past 2^-1074. The
    sums stop at the last nonzero coefficient of any c (``top``), the nu run on."""
    top = 1 + max(np.flatnonzero(ci).max(initial=0) for ci in coeffs)
    c = np.zeros((len(coeffs), top), complex)
    for i, ci in enumerate(coeffs):
        c[i, : min(ci.shape[0], top)] = ci[:top]
    degrees = max(ci.shape[0] for ci in coeffs)
    nu, e, lo = np.empty(degrees), np.zeros(degrees, np.int64), (c != 0).argmax(axis=1)
    sums, v, spare = c[:, :1] * phi, phi, None  # spare: a dead vector, reused as a buffer
    nu[0] = np.vdot(v, v).real
    for d in range(1, degrees):
        w = apply_rescaled(H, v, spare)
        nu[d] = n = np.vdot(w, w).real
        if 0 < n < _TINY:  # scale w by 2^k, exactly: nu_d 4^k is near 1
            e[d] = k = -math.frexp(n)[1] // 2
            w *= 2.0**k
            nu[d] = np.vdot(w, w).real
            c[lo < d, d:] *= 2.0**-k  # a sum begun below d stays at the scale of its start
        spare = None if v is phi else v
        if d < top:
            one = c.shape[0] == 1 and spare is not None  # one sum: its new term goes into spare
            sums += np.multiply(c[:, d : d + 1], w, out=spare[None] if one else None)
        v = w
    e = np.cumsum(e)  # each degree's scale: the rescales at or below it
    return nu, e, sums, e[lo]


def _weighted(nu: np.ndarray, e: np.ndarray, m: np.ndarray, w: np.ndarray, ref: int) -> float:
    """N = sum_v w_v nu_{m_v} times 4^ref, each nu brought from its own scale e to ref."""
    return float(w @ np.ldexp(nu[m], 2 * (ref - e[m])))


def _probs(specs: list, nu: np.ndarray, e: np.ndarray) -> list[float]:
    """A segment's q's. A run of L blocks has N_j = sum_other w nu_m + sum_selected w nu_{m+j}
    for j = 0 .. L, and q_j = N_j / N_{j-1}; an N of 0 gives q = 0. Where the pass was not
    rescaled, the second sum is one correlation of nu with the selected w binned by m; else
    N_{j-1} and N_j are formed at the scale of the lowest degree they read."""
    # a run reads nu past its top degree: 0 there, at the top degree's scale
    out, rescaled = [], e[-1]
    nu, e = np.concatenate([nu, np.zeros_like(nu)]), np.concatenate([e, np.full_like(e, e[-1])])
    for spec in specs:
        if type(spec) is int:
            out += [1.0] * spec
            continue
        m, w, hit, run = spec
        if not rescaled:
            selected = w * hit
            binned = np.bincount(m, selected)
            n = (w - selected) @ nu[m] + np.correlate(nu[: binned.shape[0] + run], binned, "valid")
            out += np.divide(n[1:], n[:-1], out=np.zeros(run), where=n[:-1] > 0).tolist()
            continue
        for j in range(run):
            d = m + j * hit
            ref = e[d.min()]
            prev, n = _weighted(nu, e, d, w, ref), _weighted(nu, e, d + hit, w, ref)
            out.append(n / prev if prev > 0 else 0.0)
    return out


def _chain(H, psi: np.ndarray, beta: np.ndarray) -> tuple[float, np.ndarray]:
    """(p_wtilde, p) from one ``_krylov`` pass of K = len(beta) - 1 matvecs: p_wtilde =
    ||sum_k beta_k H~^k psi||^2 / ||beta||_1^2, and p the W_{H^K} chain's conditional
    probabilities p_d = nu_d / nu_{d-1} 4^(e_{d-1} - e_d), d = 1 .. K, 0 where nu_{d-1} = 0.
    p is an array: as K Python floats it would take 32 bytes a degree."""
    nu, e, (s,), _ = _krylov(H, psi, [beta])
    prev = nu[:-1]
    p = np.divide(nu[1:], prev, out=np.zeros(prev.shape[0]), where=prev > 0)
    p = np.ldexp(p, 2 * (e[:-1] - e[1:]), out=p)
    return float(np.vdot(s, s).real) / float(beta.sum()) ** 2, p


def _traces(plans: list[CircuitPlan], psi: np.ndarray) -> list[PlanTrace]:
    """``trace_plan`` of each plan; consecutive plans on one Hamiltonian share the pass of psi
    for their first segments. The first q below 1e-14 (a dead branch) and every later q read 0."""
    walks, out = [(plan, _walk(plan)) for plan in plans], []
    for H, group in itertools.groupby(walks, key=lambda pair: pair[0].hamiltonian):
        group = list(group)
        check_width(H.n)
        start = check_state(psi, H.n)
        nu0, e0, sums, refs = _krylov(H, start, [segments[0][3] for _, segments in group])
        for (plan, segments), sum0, ref0 in zip(group, sums, refs):
            cond, phi, final = [], start, None
            for i, (specs, m, w, c, collapses) in enumerate(segments):
                nu, e, (collapsed,), (ref,) = (_krylov(H, phi, [c]) if i
                                               else (nu0, e0, [sum0], [ref0]))
                cond += _probs(specs, nu, e)
                p, n_end = float(np.vdot(collapsed, collapsed).real), _weighted(nu, e, m, w, ref)
                cond += [p / n_end if n_end > 0 else 0.0] if collapses else []
                if not (p > 0 and min(cond, default=1.0) >= 1e-14):
                    break
                phi = collapsed / math.sqrt(p)
            else:
                final = phi
            alive = next((j for j, q in enumerate(cond) if not q >= 1e-14), len(cond))
            cond = tuple(cond[:alive] + [0.0] * (plan.measure_count - alive))
            out.append(PlanTrace(cond, math.prod(cond, start=1.0), final))
    return out


def trace_plan(plan: CircuitPlan, psi: np.ndarray) -> PlanTrace:
    """Execute the success path once, recording each measurement's conditional probability,
    by the moment trace: ``_walk``, then one ``_krylov`` pass and ``_probs`` per segment."""
    return _traces([plan], psi)[0]


def _lgamma_tail(z: int) -> float:
    """lgamma(z) - (z - 1/2) log z + z for an integer z >= 1, from Stirling's series past 100."""
    if z < 100:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z
    return 0.5 * math.log(2.0 * math.pi) + (1.0 / 12.0 - 1.0 / (360.0 * z * z)) / z


def _log_pmf_ratio(n: int, num: int, den: int, m: int, k: int) -> float:
    """log f(k) / f(m) for the Binomial(n, p = num / den) pmf f, within a few ulps of |k - m|.

    That is lgamma(m + 1) - lgamma(k + 1) + lgamma(n - m + 1) - lgamma(n - k + 1)
    + (k - m) log(p / q), in Stirling's form: each log of a ratio near 1 is log1p of an
    exact fraction, so no terms of size n log n cancel."""
    d = k - m
    s = (m + 0.5) * math.log1p(d / (m + 1)) + (n - m + 0.5) * math.log1p(-d / (n - m + 1))
    s += d * math.log1p(((k + 1) * den - (n + 2) * num) / ((n - k + 1) * num))
    tails = _lgamma_tail(m + 1) - _lgamma_tail(k + 1)
    return tails + _lgamma_tail(n - m + 1) - _lgamma_tail(n - k + 1) - s


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw for an integer n >= 0; p <= 0 gives 0 and p >= 1 gives n.

    CPython 3.12's ``Random.binomialvariate``: Devroye's geometric method while n p < 10,
    else BTRS, the transformed rejection with squeeze of Hoermann (1993). Three changes keep
    the law in double precision up to n = 2^64: the geometric step reads log1p(-p) and
    log(1 - u), so a p below 2^-53 or a u of 0 stays finite; BTRS centres k on its exact
    integer mode m, so the proposal's float part is small; and its acceptance test reads
    ``_log_pmf_ratio``, where lgamma of n-sized arguments would cancel in the last digits.
    """
    if p <= 0.0 or n == 0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    if n * p < 10.0:
        x = y = 0
        c = math.log1p(-p)
        while True:
            y += math.floor(math.log(1.0 - rng.random()) / c) + 1
            if y > n:
                return x
            x += 1
    num, den = p.as_integer_ratio()
    m = (n + 1) * num // den
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = (2 * n * num + den - 2 * m * den) / (2 * den)  # n p + 1/2 - m
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:  # u = -1/2 proposes k = -infinity
            continue
        k = m + math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = 1.0 - rng.random()
        if us >= 0.07 and v <= vr:
            return k
        if math.log(v * alpha / (a / (us * us) + b)) <= _log_pmf_ratio(n, num, den, m, k):
            return k


def _sample(trace: PlanTrace, N: int, seed: int) -> RunStats:
    """N shots of a trace: one ``_binomial`` draw per measurement reached."""
    _check_int(N, "N", 1, 2**64)
    rng = random.Random(_check_int(seed, "seed", 0, 2**64 - 1))
    left, aborts = N, {}
    for j, q in enumerate(trace.cond_probs, 1):
        if not left:
            break
        k = _binomial(rng, left, 1.0 - q) if q >= 0.5 else left - _binomial(rng, left, q)
        if k:
            aborts[j], left = k, left - k
    return RunStats(N, left, aborts)


def run_shots(plan: CircuitPlan, psi: np.ndarray, N: int, seed: int) -> RunStats:
    """N shots of the abort-and-restart protocol, each ending at its first nonzero outcome:
    one ``_binomial`` draw per measurement, from ``random.Random(seed)``, of the shots left
    there, until none is. ``resources.shot_costs`` prices each outcome."""
    return _sample(trace_plan(plan, psi), N, seed)


def run_shots_many(plans: list[CircuitPlan], psi: np.ndarray, N: int,
                   seed: int) -> list[tuple[PlanTrace, RunStats]]:
    """``(trace_plan(plan, psi), run_shots(plan, psi, N, seed))`` per plan: each plan draws
    from its own ``random.Random(seed)``, so a plan's stats do not depend on the others. The
    plans on one Hamiltonian share one Krylov pass of psi (``_traces``)."""
    return [(t, _sample(t, N, seed)) for t in _traces(plans, psi)]


def estimate(stats: RunStats) -> tuple[float, float]:
    """(p_hat, binomial standard error)."""
    if stats.shots < 1:
        raise DomainError("no shots recorded")
    p = stats.successes / stats.shots
    return p, math.sqrt(p * (1.0 - p) / stats.shots)
