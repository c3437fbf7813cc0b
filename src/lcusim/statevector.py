"""Exact complex-amplitude simulation over named qubit registers.

The global state is a flat array of 2^total amplitudes. A layout stacks its
registers from qubit 0 in the order given; qubit ``offset + i`` of a
register is bit ``i`` of that register's value, and qubit 0 is the
least-significant bit of the global basis index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import LayoutError, NormalizationError, ResourceLimitError
from .hamiltonian import HamiltonianLCU, apply_pauli_groups

TOTAL_QUBIT_CAP = 24
_NORM_TOL = 1e-10


@dataclass(frozen=True)
class Register:
    name: str
    width: int
    offset: int  # global index of the register's least-significant qubit


class RegisterLayout:
    """Named registers stacked from qubit 0 in the order of the ``(name, width)`` pairs given."""

    def __init__(self, widths: Iterable[tuple[str, int]]):
        self._by_name: dict[str, Register] = {}
        self.total = 0
        for name, width in widths:
            if width < 1 or name in self._by_name:
                raise LayoutError(f"register {name!r}: widths must be positive, names unique")
            self._by_name[name] = Register(name, width, self.total)
            self.total += width
        self.registers = tuple(self._by_name.values())

    def register(self, name: str) -> Register:
        if name not in self._by_name:
            raise LayoutError(f"no register named {name!r}")
        return self._by_name[name]

    def qubit(self, name: str, bit: int) -> int:
        """Global index of bit ``bit`` of a register."""
        return self.register(name).offset + bit

    @property
    def n(self) -> int:
        return self.register("system").width


@dataclass
class StateVector:
    layout: RegisterLayout
    amplitudes: np.ndarray = field(repr=False)

    def system_state(self) -> np.ndarray:
        """System-register amplitudes, assuming all ancillas are in |0..0>."""
        n = self.layout.n
        sys_part = self.amplitudes[: 1 << n].copy()
        rest = np.linalg.norm(self.amplitudes[1 << n :])
        if rest > 1e-9:
            raise LayoutError("ancilla registers are not in the all-zero state")
        return sys_part


def check_width(qubits: int) -> None:
    """Refuse a state wider than the simulation cap, before anything is allocated."""
    if qubits > TOTAL_QUBIT_CAP:
        raise ResourceLimitError(f"{qubits} qubits exceeds simulation cap {TOTAL_QUBIT_CAP}")


def check_norm(norm: float, message: str) -> None:
    """Raise ``NormalizationError(message)`` unless ``norm`` is within ``_NORM_TOL`` of 1;
    a NaN fails too."""
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise NormalizationError(message)


def init_state(layout: RegisterLayout, psi: np.ndarray) -> StateVector:
    """All-zero ancillas with the system register carrying psi."""
    check_width(layout.total)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    n = layout.n
    if psi.shape[0] != (1 << n):
        raise LayoutError(f"system state needs {1 << n} amplitudes")
    with np.errstate(over="ignore"):  # an overflowing norm is inf and fails below
        norm = np.linalg.norm(psi)
    check_norm(norm, "system state is not normalized")
    amps = np.zeros(1 << layout.total, dtype=complex)
    amps[: 1 << n] = psi
    return StateVector(layout, amps)


def _householder(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v, d) with completion unitary (I - 2 v v^dag) diag(d): for theta = arg a0,
    v ~ a + e^{i theta} e0 reflects a to -e^{i theta} e0 and d = (-e^{i theta}, 1, ..)."""
    a = np.asarray(amps, dtype=complex).reshape(-1)
    check_norm(np.linalg.norm(a), "prepare amplitudes are not normalized")
    theta = math.atan2(a[0].imag, a[0].real)
    v = a.copy()
    v[0] += np.exp(1j * theta)
    d = np.ones(a.shape[0], dtype=complex)
    d[0] = -np.exp(1j * theta)
    return v / np.linalg.norm(v), d


def apply_prepare(
    state: StateVector, register: str, amps: np.ndarray, adjoint: bool = False
) -> StateVector:
    """Apply the PREPARE completion unitary (or its inverse) to a register, in place, as
    diag(d) and the reflection I - 2 v v^dag: O(2^total) time, no 2^w x 2^w matrix."""
    reg = state.layout.register(register)
    v, d = _householder(amps)
    if v.shape[0] != 1 << reg.width:
        raise LayoutError("prepare amplitudes do not match register width")
    block = state.amplitudes.reshape(-1, v.shape[0], 1 << reg.offset)
    if not adjoint:
        block *= d[:, np.newaxis]
    overlap = np.tensordot(v.conj(), block, axes=(0, 1))  # v^dag along the register axis
    block -= 2.0 * v[:, np.newaxis] * overlap[:, np.newaxis, :]
    if adjoint:
        block *= d.conj()[:, np.newaxis]
    return state


def apply_lcu_block(
    state: StateVector, H: HamiltonianLCU, amps: np.ndarray, control: int | None = None
) -> float:
    """PREPARE(amps), SELECT and PREPARE^dag with the l-register post-selected on |0>, without
    the l-register: F = sum_{l<L} |a_l|^2 (-i u_l) P_l + (sum_{l>=L} |a_l|^2) I on the system
    (H~ = (-i / l1) H for ``prepare_amplitudes(H)``), on the control's |1> branch if given.
    Renormalizes and returns the branch probability; 0.0 below 1e-14, like ``project_zero``."""
    n = state.layout.n
    w = np.abs(np.asarray(amps)) ** 2
    check_norm(w.sum(), "prepare amplitudes are not normalized")
    if w.shape[0] < H.num_terms or (control is not None and control < n):
        raise LayoutError("amplitudes miss a term, or the control is a system qubit")
    if control is None:
        view = state.amplitudes.reshape(-1, 1 << n)
    else:
        view = state.amplitudes.reshape(-1, 2, 1 << (control - n), 1 << n)[:, 1]
    view[...] = apply_pauli_groups(H, view, -1j * w[: H.num_terms], w[H.num_terms :].sum())
    p = float(np.vdot(state.amplitudes, state.amplitudes).real)
    if p < 1e-14:
        return 0.0
    state.amplitudes /= math.sqrt(p)
    return p


def register_probabilities(state: StateVector, register: str) -> np.ndarray:
    """Marginal Born probabilities over one register's basis values."""
    reg = state.layout.register(register)
    block = state.amplitudes.reshape(-1, 1 << reg.width, 1 << reg.offset)
    return (np.abs(block) ** 2).sum(axis=(0, 2))


def project_zero(state: StateVector, register: str) -> float:
    """Project a register onto all-zero, renormalize, return the branch probability.

    A vanishing branch leaves the state untouched and returns 0.0.
    """
    probs = register_probabilities(state, register)
    p0 = float(probs[0])
    if p0 < 1e-14:
        return 0.0
    offset = state.layout.register(register).offset
    state.amplitudes.reshape(-1, probs.shape[0], 1 << offset)[:, 1:, :] = 0
    state.amplitudes /= math.sqrt(p0)
    return p0
