"""Compilation to a {single-qubit unitary, CX} basis and resource counting.

Prepare instructions compile to the multiplexed-Ry state-preparation
recursion (PREPARE amplitudes are always real and nonnegative here), and
the unary Taylor register to a staircase of controlled Ry rotations. An LCU
block compiles to its l-register Prepare, then the SELECT as one multiplexed
single-qubit gate per system qubit via ZYZ-split uniformly controlled
rotations plus a diagonal phase correction, then the adjoint Prepare.

Absolute gate counts are decomposition-dependent; what is stable across
decompositions - qubit totals, piecewise-linear growth in K, count equality
across K values sharing a register width - is what the tests pin down.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .circuits import CircuitPlan, LcuBlock, Measure, Prepare
from .hamiltonian import PAULI_MATRICES, prepare_amplitudes
from .statevector import Register


@dataclass(frozen=True, eq=False)
class Gate1Q:
    qubit: int
    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class GateCX:
    control: int
    target: int


CompiledOp = Gate1Q | GateCX | Measure  # a measurement compiles to itself


@dataclass(frozen=True)
class GateCounts:
    qubits: int
    one_qubit: int
    two_qubit: int
    measurements: int
    select_blocks: int


def _tally(plan: CircuitPlan, ops) -> tuple[int, int, int]:
    """(single-qubit gates, CX gates, measured qubits) of a list of compiled ops."""
    one = sum(1 for op in ops if isinstance(op, Gate1Q))
    two = sum(1 for op in ops if isinstance(op, GateCX))
    meas = sum(plan.layout.register(op.register).width for op in ops if isinstance(op, Measure))
    return one, two, meas


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]], dtype=complex
    )


def _phase_gate(phi: float) -> np.ndarray:
    return cmath.exp(1j * phi) * np.eye(2, dtype=complex)


def zyz_decompose(U: np.ndarray) -> tuple[float, float, float, float]:
    """(delta, alpha, beta, gamma) with U = e^{i delta} Rz(alpha) Ry(beta) Rz(gamma)."""
    det = U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0]
    delta = cmath.phase(det) / 2.0
    V = U * cmath.exp(-1j * delta)
    beta = 2.0 * math.atan2(abs(V[1, 0]), abs(V[0, 0]))
    if abs(V[1, 0]) < 1e-12:
        alpha = 2.0 * cmath.phase(V[1, 1])
        gamma = 0.0
    elif abs(V[0, 0]) < 1e-12:
        alpha = 2.0 * cmath.phase(V[1, 0])
        gamma = 0.0
    else:
        s = cmath.phase(V[1, 1])  # (alpha + gamma) / 2
        t = cmath.phase(V[1, 0])  # (alpha - gamma) / 2
        alpha = s + t
        gamma = s - t
    return delta, alpha, beta, gamma


def _gray(k: int) -> int:
    return k ^ (k >> 1)


def _uc_rotation(
    controls: list[int], target: int, angles: np.ndarray, make_gate
) -> list[CompiledOp]:
    """Gray-code uniformly controlled rotation: 2^m rotations and 2^m CX gates.

    ``angles[v]`` is applied when the controls (bit i of v = controls[i])
    read value v. Works for any rotation family with X R(t) X = R(-t).
    """
    m = len(controls)
    if m == 0:
        return [Gate1Q(target, make_gate(float(angles[0])))]
    size = 1 << m
    # sign matrix A[v, k] = (-1)^{popcount(v & gray(k))}; A A^T = size * I
    v_idx = np.arange(size)[:, None]
    g_idx = np.array([_gray(k) for k in range(size)])[None, :]
    signs = 1 - 2 * (np.bitwise_count(v_idx & g_idx) & 1).astype(np.int64)
    transformed = signs.T @ np.asarray(angles, dtype=float) / size
    ops: list[CompiledOp] = []
    for k in range(size):
        ops.append(Gate1Q(target, make_gate(float(transformed[k]))))
        ctz = (k + 1 & -(k + 1)).bit_length() - 1 if k + 1 < size else m - 1
        ops.append(GateCX(controls[min(ctz, m - 1)], target))
    return ops


def uc_ry(controls: list[int], target: int, angles: np.ndarray) -> list[CompiledOp]:
    return _uc_rotation(controls, target, angles, _ry)


def uc_rz(controls: list[int], target: int, angles: np.ndarray) -> list[CompiledOp]:
    return _uc_rotation(controls, target, angles, _rz)


def diagonal_gates(qubits: list[int], phases: np.ndarray) -> list[CompiledOp]:
    """Diagonal phase gate diag(e^{i phases[v]}) over the given qubits.

    Recursion: uc-Rz on the lowest qubit absorbs pair differences, the pair
    averages form a smaller diagonal; the residual global phase is emitted
    on qubits[0].
    """
    phases = np.asarray(phases, dtype=float)
    if len(qubits) == 1:
        ops: list[CompiledOp] = [Gate1Q(qubits[0], _rz(float(phases[1] - phases[0])))]
        mean = float(phases[0] + phases[1]) / 2.0
        if abs(mean) > 0:
            ops.append(Gate1Q(qubits[0], _phase_gate(mean)))
        return ops
    low = phases.reshape(-1, 2)  # row = value of qubits[1:], col = bit on qubits[0]
    diff = low[:, 1] - low[:, 0]
    mean = (low[:, 1] + low[:, 0]) / 2.0
    ops = uc_rz(qubits[1:], qubits[0], diff)
    ops += diagonal_gates(qubits[1:], mean)
    return ops


def uc_single_qubit(
    controls: list[int], target: int, mats: list[np.ndarray]
) -> list[CompiledOp]:
    """Multiplexed single-qubit unitary: apply mats[v] when controls read v."""
    m = len(controls)
    if m == 0:
        return [Gate1Q(target, mats[0])]
    deltas, alphas, betas, gammas = zip(*(zyz_decompose(U) for U in mats))
    ops = uc_rz(controls, target, np.array(gammas))
    ops += uc_ry(controls, target, np.array(betas))
    ops += uc_rz(controls, target, np.array(alphas))
    ops += diagonal_gates(controls, np.array(deltas))
    return ops


def _prep_dense_gates(reg: Register, amps: np.ndarray) -> list[CompiledOp]:
    """Multiplexed-Ry state preparation for real, nonnegative amplitudes.

    Exactly 2^w - 2 CX gates for a width-w register.
    """
    raw = np.asarray(amps)
    if np.iscomplexobj(raw) and np.max(np.abs(raw.imag)) > 1e-12:
        raise ValueError("dense prepare compilation expects real amplitudes")
    a = raw.real.astype(float)
    if np.any(a < -1e-12):
        raise ValueError("dense prepare compilation expects nonnegative amplitudes")
    w = reg.width
    ops: list[CompiledOp] = []
    for level in range(w):
        b = w - 1 - level  # register bit being rotated, MSB first
        controls = [reg.offset + b + 1 + i for i in range(w - 1 - b)]
        n_ctrl_vals = 1 << len(controls)
        angles = np.zeros(n_ctrl_vals)
        block = a.reshape(n_ctrl_vals, 2, 1 << b)  # (high bits, bit b, low bits)
        for v in range(n_ctrl_vals):
            s0 = math.sqrt(float((block[v, 0] ** 2).sum()))
            s1 = math.sqrt(float((block[v, 1] ** 2).sum()))
            angles[v] = 2.0 * math.atan2(s1, s0)
        ops += _uc_rotation(controls, reg.offset + b, angles, _ry)
    return ops


def _prep_unary_gates(reg: Register, amps: np.ndarray) -> list[CompiledOp]:
    """Staircase of controlled Ry rotations preparing sum_k c_k |1^k 0^{K-k}>."""
    a = np.asarray(amps, dtype=float)
    K = reg.width
    c = np.array([a[(1 << k) - 1] for k in range(K + 1)])
    tail = np.sqrt(np.maximum(np.cumsum((c**2)[::-1])[::-1], 0.0))  # tail[k] = ||c_{>=k}||
    ops: list[CompiledOp] = []
    for k in range(K):
        s_next = tail[k + 1]
        theta = 2.0 * math.atan2(s_next, c[k]) if tail[k] > 1e-300 else 0.0
        q = reg.offset + k
        if k == 0:
            ops.append(Gate1Q(q, _ry(theta)))
        else:  # controlled Ry = Ry(t/2) CX Ry(-t/2) CX
            ctrl = reg.offset + k - 1
            ops.append(Gate1Q(q, _ry(theta / 2)))
            ops.append(GateCX(ctrl, q))
            ops.append(Gate1Q(q, _ry(-theta / 2)))
            ops.append(GateCX(ctrl, q))
    return ops


def _dagger(ops: list[CompiledOp]) -> list[CompiledOp]:
    out: list[CompiledOp] = []
    for op in reversed(ops):
        if isinstance(op, Gate1Q):
            out.append(Gate1Q(op.qubit, op.matrix.conj().T))
        else:
            out.append(op)
    return out


def _select_gates(plan: CircuitPlan, ins: LcuBlock) -> list[CompiledOp]:
    """One multiplexed single-qubit gate per system qubit.

    The multiplex controls are the l-register qubits plus, when present, the
    single control qubit as the most significant bit; branches with control
    0 or l >= L act as the identity. The scalar (-i) e^{i phase} is folded
    into the system-qubit-0 gate.
    """
    H = plan.hamiltonian
    layout = plan.layout
    reg = layout.register(ins.l_register)
    controls = [reg.offset + i for i in range(reg.width)]
    if ins.control is not None:
        controls.append(layout.qubit(*ins.control))
    size = 1 << len(controls)
    identity = np.eye(2, dtype=complex)
    ops: list[CompiledOp] = []
    for j in range(layout.n):
        mats = []
        for v in range(size):
            if ins.control is not None and not (v >> reg.width) & 1:
                mats.append(identity)
                continue
            li = v & ((1 << reg.width) - 1)
            if li >= H.num_terms:
                mats.append(identity)
                continue
            term = H.terms[li]
            mat = PAULI_MATRICES[term.letters[j]].copy()
            if j == 0:
                mat = (-1j) * cmath.exp(1j * term.phase) * mat
            mats.append(mat)
        ops += uc_single_qubit(controls, j, mats)
    return ops


def _compile_instruction(plan: CircuitPlan, ins) -> list[CompiledOp]:
    """{1q unitary, CX} gates or the measurement event of one instruction."""
    if isinstance(ins, Measure):
        return [ins]
    if isinstance(ins, LcuBlock):
        reg = plan.layout.register(ins.l_register)
        prep = _prep_dense_gates(reg, prepare_amplitudes(plan.hamiltonian, reg.width))
        return prep + _select_gates(plan, ins) + _dagger(prep)
    reg = plan.layout.register(ins.register)
    gates = (_prep_unary_gates if ins.style == "unary" else _prep_dense_gates)(reg, ins.amps)
    return _dagger(gates) if ins.adjoint else gates


def _gate_key(plan: CircuitPlan, ins) -> tuple | None:
    """All that the gate list of ``ins`` depends on apart from qubit labels, or None for
    an instruction compiled every time: a measurement, or a unary staircase (O(K) gates,
    while its amplitude vector has 2^K entries)."""
    if isinstance(ins, LcuBlock):
        width = plan.layout.register(ins.l_register).width
        return (plan.hamiltonian, plan.layout.n, width, ins.control is not None)
    if isinstance(ins, Prepare) and ins.style != "unary":
        amps = np.asarray(ins.amps)
        width = plan.layout.register(ins.register).width
        return (ins.adjoint, width, amps.dtype.str, amps.shape, amps.tobytes())
    return None


def count(plans: Iterable[CircuitPlan]) -> list[GateCounts]:
    """Gate, qubit and measurement counts of each plan, compiling each distinct block once.

    Counts do not change when qubits are relabelled, so instructions with equal
    ``_gate_key`` share one compile, within a plan and across plans.
    """
    memo: dict[tuple, tuple[int, int, int]] = {}
    out = []
    for plan in plans:
        one = two = meas = 0
        for ins in plan.instructions:
            key = _gate_key(plan, ins)
            tally = memo.get(key)
            if tally is None:
                tally = _tally(plan, _compile_instruction(plan, ins))
                if key is not None:
                    memo[key] = tally
            one, two, meas = one + tally[0], two + tally[1], meas + tally[2]
        out.append(GateCounts(plan.layout.total, one, two, meas, plan.select_count))
    return out
