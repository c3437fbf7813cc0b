"""Named qubit registers, the simulation cap, and the checks the trace uses.

A layout stacks its registers from qubit 0 in the order given; qubit
``offset + i`` of a register is bit ``i`` of that register's value, and qubit 0
is the least-significant bit of the global basis index. The register-level
statevector over a whole layout is a test reference (``tests/reference.py``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import LayoutError, NormalizationError, ResourceLimitError

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

    @property
    def n(self) -> int:
        return self.register("system").width


def check_width(qubits: int) -> None:
    """Refuse a state wider than the simulation cap, before anything is allocated."""
    if qubits > TOTAL_QUBIT_CAP:
        raise ResourceLimitError(f"{qubits} qubits exceeds simulation cap {TOTAL_QUBIT_CAP}")


def check_norm(norm: float, message: str) -> None:
    """Raise ``NormalizationError(message)`` unless ``norm`` is within ``_NORM_TOL`` of 1;
    a NaN fails too."""
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise NormalizationError(message)


def check_state(psi: np.ndarray, n: int | None) -> np.ndarray:
    """psi as a flat complex vector of unit norm; with ``n`` its shape must be exactly
    (2^n,). A norm that overflows is inf and fails."""
    if n is not None and np.shape(psi) != (1 << n,):
        raise LayoutError(f"{n}-qubit state needs shape ({1 << n},), got {np.shape(psi)}")
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(psi)
    check_norm(norm, "state is not normalized")
    return psi

