"""Shot loop with mid-circuit post-selection and early abort-and-restart.

A plan's success path is deterministic: the quantum state after j
consecutive zero outcomes does not depend on the shot, so the conditional
zero-probability of every measurement can be traced once. On that path an
LCU block (PREPARE, SELECT, PREPARE^dag) whose l-register is measured |0> acts as
(singly controlled) H~ = (-i / l1) H (Berry et al., PRL 114, 090502, 2015),
because PREPARE is zero-padded. So the trace omits the l-registers and holds
each other register as an axis over the values it can hold: 2^kappa rows for
W-tilde (fewer where a Taylor amplitude underflows to 0) and the K + 1 values of
the unary Prepare's K + 1 amplitudes, times 2^n system amplitudes. Each shot
then reduces to a sequence of Bernoulli draws against those cached
probabilities, which is statistically identical to re-simulating the state per
shot. Shot i's draws
are the first doubles of numpy's Philox-4x64-10 keyed by (seed, i) (``shot_rng``
in ``tests/reference.py``), so shots are order-independent. Philox is
counter-based (Salmon et al., SC'11): the shot loop computes that stream for a
chunk of shot indices at once in uint64 numpy arithmetic, only the counter
blocks whose draws can change an outcome, and each block once for all the
plans of ``run_shots_many``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import CircuitPlan, LcuBlock, Measure, Prepare, amplitude_values
from .errors import DomainError
from .hamiltonian import apply_pauli_groups, l1_norm
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
    factors = -1j * np.array([t.weight for t in H.terms]) / l1_norm(H)
    pending: list[float] = []  # block probabilities awaiting their measurement
    cond: list[float] = []
    abort_costs: list[float] = []
    running_cost = 0.0
    dead = False
    for ins in plan.instructions:
        if isinstance(ins, LcuBlock):
            running_cost += cost.d if ins.control is None else cost.d_ctrl
            if not dead:
                target, index = _rows(state, axes, ins.control)
                target[index] = apply_pauli_groups(H, target[index], factors)
            pending.append(0.0 if dead else _renormalize(state))
            dead = pending[-1] == 0.0
        elif isinstance(ins, Measure):
            running_cost += cost.m
            abort_costs.append(running_cost)
            if ins.register in l_regs:
                cond.append(pending.pop(0))
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


_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
# Entries per chunk: shots x max(drawn columns, outcome columns), so every per-chunk
# array (draws, fail matrix, Philox words) stays within about 0.5 MB whatever M is.
_CHUNK_ENTRIES = 1 << 16


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of a * b, from 32-bit partial products."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & 0xFFFFFFFF, b >> 32
    lh = a_lo * b_hi
    mid = a_hi * b_lo + ((a_lo * b_lo) >> 32) + (lh & 0xFFFFFFFF)  # at most 2^64 - 1
    return a_hi * b_hi + (lh >> 32) + (mid >> 32), np.uint64(a) * b


def _shot_uniforms(seed: int, first: int, count: int, counters: np.ndarray) -> np.ndarray:
    """Columns 4p .. 4p + 3 of row j are the doubles of Philox block ``counters[p]``
    of shot ``first + j``'s stream. Block c = 1, 2, ... is counter (c, 0, 0, 0)
    under key (seed, i), four uint64 per block, and a double is ``(x >> 11) * 2^-53``;
    so counters 1 .. ceil(M / 4) give ``.random(M)`` in the first M columns."""
    k0 = np.full(1, seed, dtype=np.uint64)
    k1 = (np.uint64(first) + np.arange(count, dtype=np.uint64))[:, None]
    c0, c1 = np.asarray(counters, dtype=np.uint64), np.zeros(1, dtype=np.uint64)
    c2 = c3 = c1
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
    x = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1).reshape(count, -1)
    return (x >> 11) * 2.0**-53


class _Tally:
    """One trace's outcome rule and running sums over the shot loop.

    A draw u lies in [0, 1 - 2^-53], so ``u >= q`` is never true for q >= 1 and
    always true for q <= 0. The first measurement with q <= 0 (``stop``) therefore
    ends every shot that reaches it, and only the draws of ``live``, the measurements
    before it with q < 1, can change an outcome. Column k of the fail matrix is
    outcome ``ends[k]``: abort at measurement ends[k] + 1, or success when it is M.
    """

    def __init__(self, trace: PlanTrace):
        q = np.array(trace.cond_probs)
        self.M = q.shape[0]
        certain = np.flatnonzero(q <= 0.0)
        stop = int(certain[0]) if certain.size else self.M
        self.live = np.flatnonzero(~(q[:stop] >= 1.0))
        self.q = q[self.live]
        self.ends = np.append(self.live, stop)
        self.cost = np.array(trace.abort_costs + (trace.success_cost,))[self.ends]
        self.tally = np.zeros(self.ends.shape[0], dtype=np.int64)
        self.total_cost = 0.0

    def add(self, draws: np.ndarray) -> None:
        """Tally one chunk of shots, given their draws for the live measurements."""
        fail = np.ones((draws.shape[0], self.ends.shape[0]), dtype=bool)
        fail[:, :-1] = draws >= self.q
        outcome = fail.argmax(1)
        self.tally += np.bincount(outcome, minlength=self.ends.shape[0])
        with np.errstate(over="ignore"):  # an overflow is inf and refused in ``stats``
            self.total_cost = np.add.accumulate(np.r_[self.total_cost, self.cost[outcome]])[-1]

    def stats(self, N: int) -> RunStats:
        if math.isinf(self.total_cost):
            raise DomainError("the summed shot costs overflow: the cost units are too large")
        aborts = {int(e) + 1: int(c) for e, c in zip(self.ends, self.tally) if c and e < self.M}
        successes = N - sum(aborts.values())
        return RunStats(N, successes, aborts, float(self.total_cost))


def _run_plans(plans, psi, N, seed, cost) -> list[RunStats]:
    """The shot loop of ``run_shots_many``: each chunk of shot indices computes each
    Philox block that some plan's live measurement reads once, for all plans."""
    ints = all(isinstance(v, int) for v in (N, seed))
    if not (ints and 1 <= N <= 2**64 and 0 <= seed < 2**64):
        raise ValueError(
            f"need integers 1 <= N <= 2^64 and 0 <= seed < 2^64; got N={N!r}, seed={seed!r}"
        )
    tallies = [_Tally(trace_plan(plan, psi, cost)) for plan in plans]
    blocks = np.array(sorted({int(j) // 4 for t in tallies for j in t.live}), dtype=np.int64)
    columns = [4 * np.searchsorted(blocks, t.live // 4) + t.live % 4 for t in tallies]
    width = max([1, 4 * blocks.shape[0]] + [t.ends.shape[0] for t in tallies])
    chunk = max(1, _CHUNK_ENTRIES // width)
    for first in range(0, N, chunk):
        u = _shot_uniforms(seed, first, min(chunk, N - first), blocks + 1)
        for t, cols in zip(tallies, columns):
            t.add(u[:, cols])
    return [t.stats(N) for t in tallies]


def run_shots(
    plan: CircuitPlan, psi: np.ndarray, N: int, seed: int, cost: CostModel = CostModel()
) -> RunStats:
    """Run shots 0 .. N - 1 of the abort-and-restart protocol.

    One uniform draw is consumed per executed measurement; a shot aborts at
    the first nonzero outcome and pays only for the instructions executed up
    to and including the failing measurement. Costs are summed shot by shot,
    in index order.
    """
    return _run_plans([plan], psi, N, seed, cost)[0]


def run_shots_many(
    plans: list[CircuitPlan], psi: np.ndarray, N: int, seed: int, cost: CostModel = CostModel()
) -> list[RunStats]:
    """``[run_shots(plan, psi, N, seed, cost) for plan in plans]``, bit for bit.

    Shot i of every plan reads the same Philox stream, so each chunk of shots
    computes the Philox blocks the plans read once for all of them.
    """
    return _run_plans(list(plans), psi, N, seed, cost)


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
