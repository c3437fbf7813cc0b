"""Instruction prices, and the qubit, CX and measurement counts of circuit plans.

The counts are those of a compilation to a {single-qubit unitary, CX} basis, and
depend only on register widths. A uniformly controlled rotation with m controls
costs 2^m CX (Möttönen et al., PRL 93, 130502, 2004). Hence, per instruction:

* a binary ``Prepare`` (2^w amplitudes) on w qubits, the multiplexed-Ry
  recursion (real, nonnegative amplitudes), costs 2^w - 2;
* a unary ``Prepare`` (K + 1 amplitudes) on K qubits, a staircase of K - 1
  controlled Ry rotations, costs 2(K - 1);
* an ``LcuBlock`` on a w-qubit term register costs its PREPARE and PREPARE^dag,
  2(2^w - 2), and a SELECT of n multiplexed single-qubit gates with
  m = w + [controlled] controls: three uniformly controlled rotations (ZYZ) and
  a diagonal on the controls (2^m - 2) each, so n(2^{m+2} - 2);
* a ``Measure`` costs no CX and measures its register's width.

So W-tilde costs 2(2^kappa - 2) + (2^kappa - 1) x block CX and the unary
circuit 4(K - 1) + K x block. ``compile_plan`` in ``tests/reference.py``
compiles each instruction gate by gate and is the check on these formulas.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .circuits import CircuitPlan, Instruction, LcuBlock, Measure
from .errors import DomainError, InvalidModelError
from .sampler import RunStats


def _check_costs(*costs: float) -> None:
    """Refuse any cost unit that is not a finite, nonnegative real number, a NaN too."""
    try:
        if all(math.isfinite(c) and c >= 0 for c in costs):
            return
    except (TypeError, OverflowError):  # not a number, or an int past the float range
        pass
    raise InvalidModelError("costs must be finite and nonnegative")


@dataclass(frozen=True)
class CostModel:
    """Cost units, a price as ``_cx_count`` is: an uncontrolled block costs ``d``, a
    controlled one ``d_ctrl``, a ``Measure`` ``m`` and a ``Prepare`` nothing."""

    d: float = 1.0  # uncontrolled LCU block
    d_ctrl: float = 1.0  # controlled LCU block
    m: float = 0.0  # one register measurement

    def __post_init__(self):
        _check_costs(self.d, self.d_ctrl, self.m)

    def __call__(self, plan: CircuitPlan, i: int, ins: Instruction) -> float:
        if isinstance(ins, LcuBlock):
            return self.d if ins.control is None else self.d_ctrl
        return self.m if isinstance(ins, Measure) else 0.0


@dataclass(frozen=True)
class GateCounts:
    qubits: int
    two_qubit: int
    measurements: int


def _cx_count(plan: CircuitPlan, i: int, ins: Instruction) -> int:
    """CX gates of instruction ``i`` of ``plan``."""
    if isinstance(ins, Measure):
        return 0
    if isinstance(ins, LcuBlock):
        w = plan.widths[ins.l_register]
        m = w + (ins.control is not None)
        return 2 * ((1 << w) - 2) + plan.hamiltonian.n * ((1 << (m + 2)) - 2)
    w = plan.widths[ins.register]
    amps = np.asarray(ins.amps)
    if amps.shape[0] != 1 << w:  # unary: the staircase
        return 2 * (w - 1)
    if np.abs(amps.imag).max() > 1e-12 or amps.real.min() < -1e-12:
        raise DomainError(f"instruction {i}: dense Prepare needs real, nonnegative amplitudes")
    return (1 << w) - 2


def shot_costs(plan: CircuitPlan, price: Callable[..., float]) -> tuple[float, ...]:
    """The price of a shot that stops at each measurement: ``price(plan, i, ins)`` of the
    instructions up to and including it, summed in plan order. A success pays the last."""
    running = accumulate(price(plan, i, ins) for i, ins in enumerate(plan.instructions))
    return tuple(c for c, ins in zip(running, plan.instructions) if isinstance(ins, Measure))


def mean_cost(stats: RunStats, costs: tuple[float, ...]) -> float:
    """The mean price of the shots of ``stats``, each priced by ``costs`` (``shot_costs``):
    the aborts summed in measurement order, then the successes at the last entry."""
    if stats.shots < 1:
        raise DomainError("no shots recorded")
    total = 0.0
    for j, k in sorted(stats.abort_histogram.items()):
        total += k * costs[j - 1]
    if stats.successes:  # an outcome never reached adds no 0 * inf
        total += stats.successes * (costs[-1] if costs else 0.0)
    if not math.isfinite(total):
        raise DomainError("the summed shot costs overflow: the cost units are too large")
    return total / stats.shots


def count(plan: CircuitPlan) -> GateCounts:
    """Qubits (the system's and the ancillas'), a successful shot's CX and measured qubits."""
    cx = shot_costs(plan, _cx_count)
    return GateCounts(
        qubits=plan.hamiltonian.n + sum(plan.widths.values()),
        two_qubit=cx[-1] if cx else 0,
        measurements=sum(plan.widths[ins.register]
                         for ins in plan.instructions if isinstance(ins, Measure)),
    )
