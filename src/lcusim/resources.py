"""Qubit, CX and measurement counts of circuit plans, in closed form per instruction.

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

from dataclasses import dataclass

import numpy as np

from .circuits import CircuitPlan, Instruction, LcuBlock, Measure
from .errors import DomainError


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


def count(plan: CircuitPlan) -> GateCounts:
    """Qubits (the system's and the ancillas'), CX gates and measured qubits of a plan."""
    return GateCounts(
        qubits=plan.hamiltonian.n + sum(plan.widths.values()),
        two_qubit=sum(_cx_count(plan, i, ins) for i, ins in enumerate(plan.instructions)),
        measurements=sum(plan.widths[ins.register]
                         for ins in plan.instructions if isinstance(ins, Measure)),
    )
