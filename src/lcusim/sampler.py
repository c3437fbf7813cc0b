"""Shot loop with mid-circuit post-selection and early abort-and-restart.

A plan's success path is deterministic: the quantum state after j
consecutive zero outcomes does not depend on the shot, so the conditional
zero-probability of every measurement can be traced once. On that path an
LCU block (PREPARE, SELECT, PREPARE^dag) whose l-register is measured |0> acts as
(singly controlled) H~ = (-i / l1) H (Berry et al., PRL 114, 090502, 2015),
because PREPARE is zero-padded. So the trace omits the l-registers and holds
each other register as an axis over the values it can hold: 2^kappa rows for
W-tilde (fewer where a Taylor amplitude underflows to 0) and the K + 1 values of
the unary Prepare's K + 1 amplitudes, times 2^n system amplitudes. Every shot then
runs the same chain of conditional probabilities q_1 .. q_M, so the number of shots
that abort at measurement j, given the r_j that reach it, is Binomial(r_j, 1 - q_j):
the chain-rule form of the multinomial over the M + 1 outcomes, which has exactly the
law of one Bernoulli draw per shot and measurement. ``run_shots`` samples it with one
binomial draw per measurement, so its cost does not grow with the number of shots.
"""
from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .circuits import CircuitPlan, LcuBlock, Measure, Prepare, amplitude_values
from .errors import DomainError
from .hamiltonian import apply_rescaled
from .statevector import check_state, check_width, householder


@dataclass(frozen=True)
class CostModel:
    """Cost units per instruction kind; a ``Prepare`` costs nothing."""

    d: float = 1.0  # uncontrolled LCU block
    d_ctrl: float = 1.0  # controlled LCU block
    m: float = 0.0  # one register measurement

    def __post_init__(self):
        if not all(math.isfinite(c) and c >= 0 for c in (self.d, self.d_ctrl, self.m)):
            raise ValueError("costs must be finite and nonnegative")


@dataclass(frozen=True)
class PlanTrace:
    """Exact success-path data for one plan and input state."""

    cond_probs: tuple[float, ...]  # conditional zero-probability per measurement
    success_prob: float
    final_system_state: np.ndarray | None  # None when the success path is dead
    abort_costs: tuple[float, ...]  # cost of a shot aborting at measurement j (1-based)
    success_cost: float

    def expected_shot_cost(self) -> float:
        """Exact mean cost of one shot under abort-and-restart."""
        total = 0.0
        surviving = 1.0
        for p, c in zip(self.cond_probs, self.abort_costs):
            total += surviving * (1.0 - p) * c
            surviving *= p
        return total + surviving * self.success_cost


@dataclass
class RunStats:
    shots: int = 0
    successes: int = 0
    abort_histogram: dict[int, int] = field(default_factory=dict)
    total_cost: float = 0.0


def _rows(state: np.ndarray, axes: dict, control: tuple[str, int] | None):
    """(array, index) of the rows a block's control selects: all of them, a strided view
    where the control register holds all its 2^width values, else a gather of its values."""
    if control is None:
        return state, ...
    axis, values, width = axes[control[0]]
    if values.shape[0] == 1 << width:
        inner = math.prod(state.shape[axis + 1 : -1]) << control[1]
        return state.reshape(-1, 2, inner, state.shape[-1]), (slice(None), 1)
    return state, (slice(None),) * axis + (np.flatnonzero(values >> control[1] & 1),)


def _renormalize(state: np.ndarray) -> float:
    """The squared norm p of ``state``, which is then renormalized; below 1e-14, 0.0 and
    the state left as it is (a dead branch)."""
    p = float(np.vdot(state, state).real)
    if p < 1e-14:
        return 0.0
    state /= math.sqrt(p)
    return p


def trace_plan(plan: CircuitPlan, psi: np.ndarray, cost: CostModel = CostModel()) -> PlanTrace:
    """Execute the success path once, recording conditional probabilities and costs.

    The state is one array: an axis per register that is neither the system nor an
    l-register, over the sorted values it can hold (0 and those of its Prepares' nonzero
    amplitudes), then the system axis. ``CircuitPlan`` measures each block's l-register
    before the next block there and before any other register, so a block is H~ on the rows
    its control selects, a Prepare one reflection along its register's axis, a Measure keeps
    row 0 of that axis, and the final system state is row 0 of them all.
    """
    H, l_regs = plan.hamiltonian, plan.l_registers
    psi = check_state(psi, H.n)
    regs = [r for r in plan.layout.registers if r.name != "system" and r.name not in l_regs]
    support = {r.name: {0} for r in regs}
    for ins in plan.instructions:
        if isinstance(ins, Prepare):
            width = plan.layout.register(ins.register).width
            support[ins.register].update(amplitude_values(ins.amps, width)[1])
    axes = {}
    for i, r in enumerate(regs):  # a unary value 2^k - 1 past 63 bits stays a Python int
        values = np.array(sorted(support[r.name]), dtype=object if r.width > 62 else np.int64)
        axes[r.name] = (i, values, r.width)
    shape = [len(support[r.name]) for r in regs]
    check_width(H.n + (math.prod(shape) - 1).bit_length())
    state = np.zeros(shape + [1 << H.n], dtype=complex)
    state[(0,) * len(regs)] = psi
    pending: deque[float] = deque()  # block probabilities awaiting their measurement
    cond: list[float] = []
    abort_costs: list[float] = []
    running_cost = 0.0
    dead = False
    for ins in plan.instructions:
        if isinstance(ins, LcuBlock):
            running_cost += cost.d if ins.control is None else cost.d_ctrl
            if not dead:
                target, index = _rows(state, axes, ins.control)
                target[index] = apply_rescaled(H, target[index])
            pending.append(0.0 if dead else _renormalize(state))
            dead = pending[-1] == 0.0
        elif isinstance(ins, Measure):
            running_cost += cost.m
            abort_costs.append(running_cost)
            if ins.register in l_regs:
                cond.append(pending.popleft())
                continue
            if not dead:
                a = axes[ins.register][0]
                state.reshape(-1, shape[a], math.prod(state.shape[a + 1 :]))[:, 1:] = 0
            cond.append(0.0 if dead else _renormalize(state))
            dead = cond[-1] == 0.0
        elif not dead:
            a, values, width = axes[ins.register]
            amps, at = amplitude_values(ins.amps, width)
            full = np.zeros(values.shape[0], dtype=complex)
            full[np.searchsorted(values, at)] = amps  # nonzero only: a zero may sit off the rows
            v, d = householder(full)
            block = state.reshape(-1, shape[a], math.prod(state.shape[a + 1 :]))
            if not ins.adjoint:
                block *= d[:, np.newaxis]
            overlap = np.tensordot(v.conj(), block, axes=(0, 1))  # v^dag along the axis
            block -= 2.0 * v[:, np.newaxis] * overlap[:, np.newaxis, :]
            if ins.adjoint:
                block *= d.conj()[:, np.newaxis]
    return PlanTrace(
        cond_probs=tuple(cond),
        success_prob=float(np.prod(cond)) if cond else 1.0,
        final_system_state=None if dead else state[(0,) * len(regs)].copy(),
        abort_costs=tuple(abort_costs),
        success_cost=running_cost,
    )


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


def run_shots(
    plan: CircuitPlan, psi: np.ndarray, N: int, seed: int, cost: CostModel = CostModel()
) -> RunStats:
    """Run N shots of the abort-and-restart protocol.

    A shot aborts at the first nonzero outcome and pays only for the instructions executed
    up to and including the failing measurement. Every shot runs the same traced chain
    q_1 .. q_M, so of the r_j shots that reach measurement j, Binomial(r_j, 1 - q_j) abort
    there and the rest go on: one ``_binomial`` draw per measurement, from
    ``random.Random(seed)``, until no shot is left. The total cost is the sum over the
    outcomes reached of their count times their cost.
    """
    ints = all(isinstance(v, int) for v in (N, seed))
    if not (ints and 1 <= N <= 2**64 and 0 <= seed < 2**64):
        raise ValueError(
            f"need integers 1 <= N <= 2^64 and 0 <= seed < 2^64; got N={N!r}, seed={seed!r}"
        )
    trace = trace_plan(plan, psi, cost)
    rng = random.Random(seed)
    left, aborts, total_cost = N, {}, 0.0
    for j, (q, c) in enumerate(zip(trace.cond_probs, trace.abort_costs), 1):
        if not left:
            break
        k = _binomial(rng, left, 1.0 - q) if q >= 0.5 else left - _binomial(rng, left, q)
        if k:  # an outcome never reached adds no 0 * inf
            aborts[j], left, total_cost = k, left - k, total_cost + k * c
    if left:
        total_cost += left * trace.success_cost
    if not math.isfinite(total_cost):
        raise DomainError("the summed shot costs overflow: the cost units are too large")
    return RunStats(N, left, aborts, total_cost)


def run_shots_many(
    plans: list[CircuitPlan], psi: np.ndarray, N: int, seed: int, cost: CostModel = CostModel()
) -> list[RunStats]:
    """``[run_shots(plan, psi, N, seed, cost) for plan in plans]``: each plan draws from
    its own ``random.Random(seed)``, so a plan's stats do not depend on the others."""
    return [run_shots(plan, psi, N, seed, cost) for plan in plans]


def estimate(stats: RunStats) -> tuple[float, float]:
    """(p_hat, binomial standard error)."""
    if stats.shots < 1:
        raise ValueError("no shots recorded")
    p = stats.successes / stats.shots
    return p, math.sqrt(p * (1.0 - p) / stats.shots)


def mean_cost_per_shot(stats: RunStats) -> float:
    if stats.shots < 1:
        raise ValueError("no shots recorded")
    return stats.total_cost / stats.shots
