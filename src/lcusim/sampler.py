"""Shot loop with mid-circuit post-selection and early abort-and-restart.

A plan's success path is deterministic: the quantum state after j
consecutive zero outcomes does not depend on the shot, so the conditional
zero-probability of every measurement can be traced once. Each shot then
reduces to a sequence of Bernoulli draws against those cached
probabilities, which is statistically identical to re-simulating the state
per shot. Per-shot randomness comes from a counter-based Philox stream
keyed by (seed, shot index), so shots are order-independent and stats from
disjoint shot ranges merge additively.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import (
    AdjointPrepare,
    CircuitPlan,
    FinalMeasure,
    MeasureExpectZero,
    Prepare,
    Select,
)
from .statevector import StateVector, apply_prepare, apply_select, init_state, project_zero


@dataclass(frozen=True)
class CostModel:
    """Cost units per instruction kind."""

    d: float = 1.0  # uncontrolled block-encoding application
    d_ctrl: float = 1.0  # controlled application
    m: float = 0.0  # one register measurement
    prep: float = 0.0  # one prepare / adjoint-prepare

    def __post_init__(self):
        if not all(math.isfinite(c) and c >= 0 for c in (self.d, self.d_ctrl, self.m, self.prep)):
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
    fidelity_sum: float = 0.0

    def merge(self, other: "RunStats") -> "RunStats":
        hist = dict(self.abort_histogram)
        for step, count in other.abort_histogram.items():
            hist[step] = hist.get(step, 0) + count
        return RunStats(
            shots=self.shots + other.shots,
            successes=self.successes + other.successes,
            abort_histogram=hist,
            total_cost=self.total_cost + other.total_cost,
            fidelity_sum=self.fidelity_sum + other.fidelity_sum,
        )

    @property
    def mean_fidelity(self) -> float:
        return self.fidelity_sum / self.successes if self.successes else 0.0


def _instruction_cost(ins, cost: CostModel) -> float:
    if isinstance(ins, Select):
        return cost.d_ctrl if ins.control is not None else cost.d
    if isinstance(ins, (MeasureExpectZero, FinalMeasure)):
        return cost.m
    if isinstance(ins, (Prepare, AdjointPrepare)):
        return cost.prep
    raise TypeError(f"unknown instruction {ins!r}")


def apply_unitary_instruction(state: StateVector, ins, plan: CircuitPlan) -> StateVector:
    if isinstance(ins, Prepare):
        return apply_prepare(state, ins.register, ins.amps)
    if isinstance(ins, AdjointPrepare):
        return apply_prepare(state, ins.register, ins.amps, adjoint=True)
    if isinstance(ins, Select):
        return apply_select(state, plan.hamiltonian, ins.l_register, ins.control)
    raise TypeError(f"not a unitary instruction: {ins!r}")


def trace_plan(plan: CircuitPlan, psi: np.ndarray, cost: CostModel = CostModel()) -> PlanTrace:
    """Execute the success path once, recording conditional probabilities and costs."""
    state = init_state(plan.layout, psi)
    cond: list[float] = []
    abort_costs: list[float] = []
    running_cost = 0.0
    dead = False
    for ins in plan.instructions:
        running_cost += _instruction_cost(ins, cost)
        if isinstance(ins, (MeasureExpectZero, FinalMeasure)):
            abort_costs.append(running_cost)
            if dead:
                cond.append(0.0)
                continue
            p0 = project_zero(state, ins.register)
            cond.append(p0)
            if p0 == 0.0:
                dead = True
        elif not dead:
            apply_unitary_instruction(state, ins, plan)
    success_prob = float(np.prod(cond)) if cond else 1.0
    final = None if dead else state.system_state()
    return PlanTrace(
        cond_probs=tuple(cond),
        success_prob=success_prob,
        final_system_state=final,
        abort_costs=tuple(abort_costs),
        success_cost=running_cost,
    )


def shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    """Counter-based per-shot stream: Philox keyed by (seed, shot index)."""
    key = np.array([seed, shot_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def run_shots(
    plan: CircuitPlan,
    psi: np.ndarray,
    N: int,
    seed: int,
    cost: CostModel = CostModel(),
    *,
    shot_offset: int = 0,
    reference: np.ndarray | None = None,
) -> RunStats:
    """Run N shots of the abort-and-restart protocol.

    One uniform draw is consumed per executed measurement; a shot aborts at
    the first nonzero outcome and pays only for the instructions executed up
    to and including the failing measurement. ``shot_offset`` selects the
    range of shot indices so disjoint ranges merge into the same totals.
    """
    if N < 1:
        raise ValueError("need at least one shot")
    trace = trace_plan(plan, psi, cost)
    q = np.array(trace.cond_probs)
    M = q.shape[0]
    fid = 0.0
    if reference is not None and trace.final_system_state is not None:
        ref = np.asarray(reference, dtype=complex).reshape(-1)
        fid = float(abs(np.vdot(ref, trace.final_system_state)) ** 2)

    stats = RunStats()
    hist: dict[int, int] = {}
    for i in range(shot_offset, shot_offset + N):
        rng = shot_rng(seed, i)
        us = rng.random(M)
        fails = np.flatnonzero(us >= q)
        if fails.size == 0:
            stats.successes += 1
            stats.total_cost += trace.success_cost
            stats.fidelity_sum += fid
        else:
            step = int(fails[0]) + 1
            hist[step] = hist.get(step, 0) + 1
            stats.total_cost += trace.abort_costs[step - 1]
    stats.shots = N
    stats.abort_histogram = dict(sorted(hist.items()))
    return stats


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
