"""Hamiltonians as weighted, phased Pauli strings.

A Hamiltonian is stored as a list of terms ``weight * exp(i*phase) * P``
where ``weight >= 0`` and ``P`` is a tensor product of single-qubit Paulis.
Signs and complex factors of raw coefficients always live in the phase, so
the weights can feed directly into a PREPARE amplitude vector.

Qubit convention: letter ``j`` of a term acts on qubit ``j``, and qubit 0 is
the least-significant bit of computational-basis indices.

Only this module knows the Pauli format. Besides letters, a string has the
bit-mask form ``P = i^{#Y} X^x Z^z`` (bit j of x / z set where letter j is X
or Y / Z or Y), in which products and matvecs are XORs and popcount signs
(Aaronson & Gottesman, PRA 70, 052328, 2004). A weighted sum of strings is
applied one X mask at a time: X^x Z^z v(b) = (-1)^popcount((b ^ x) & z) v(b ^ x), so
the terms sharing x form one diagonal D_x and their sum maps v(b) to D_x(b) v(b ^ x). A small
H (G groups, G 2^n <= ``_MAX_STACK_ENTRIES``) applies all G at once from stacked index and
diagonal arrays; a larger one applies one strided view of v per group (``pauli_sum_apply``).

It also holds the 24-qubit simulation cap, the state-vector checks and the two argument rules.
"""
from __future__ import annotations

import cmath
import json
import math
import numbers
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (InvalidHamiltonianError, InvalidModelError, LayoutError, NormalizationError,
                     ResourceLimitError)

TOTAL_QUBIT_CAP = 24
_NORM_TOL = 1e-10
_MAX_DIAGONAL_BYTES = 1 << 30  # 64 diagonals at n = 20, the largest file run in BENCH_25.json
_MAX_STACK_ENTRIES = 3 << 15  # G 2^n of a stacked H: past 86016, under 114688 (BENCH_40.json)


def check_width(qubits: int) -> None:
    """Refuse a state wider than the simulation cap, before anything is allocated."""
    if qubits > TOTAL_QUBIT_CAP:
        raise ResourceLimitError(f"{qubits} qubits exceeds simulation cap {TOTAL_QUBIT_CAP}")


def _check_range(value: float, name: str, lo: float, hi: float) -> float:
    """``value``, or ``InvalidModelError`` naming it unless it is in ``lo``..``hi`` inclusive."""
    if not lo <= value <= hi:
        bound = f"at least {lo}" if hi == math.inf else f"in {lo}..{hi}"
        raise InvalidModelError(f"{name} must be {bound}, got {value!r}")
    return value


def _check_int(value: int, name: str, lo: int, hi: float = math.inf) -> int:
    """``value``, or ``InvalidModelError`` naming it unless it is an int, not a bool, in
    ``lo``..``hi``: the one check on a public count (``errors``)."""
    if type(value) is not int:
        raise InvalidModelError(f"{name} must be an int, got {value!r}")
    return _check_range(value, name, lo, hi)


def _check_real(value: float, name: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """``value``, or ``InvalidModelError`` naming it unless it is a finite real number, not a
    bool, whose float is in ``lo``..``hi``: the one check on a public real (``errors``)."""
    if type(value) is float:  # most calls: no numbers.Real ABC test
        x = value
    else:
        try:
            x = float(value) if isinstance(value, numbers.Real) and type(value) is not bool else None
        except OverflowError:  # an int past the float range
            x = None
    if x is None or not math.isfinite(x):
        raise InvalidModelError(f"{name} must be a finite real number, got {value!r}")
    _check_range(x, name, lo, hi)
    return value


def check_norm(norm: float, message: str) -> None:
    """Raise ``NormalizationError(message)`` unless ``norm`` is within ``_NORM_TOL`` of 1;
    a NaN fails too."""
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise NormalizationError(message)


def check_state(psi: np.ndarray, n: int) -> np.ndarray:
    """psi as a complex vector of shape exactly (2^n,) and unit norm. A norm that
    overflows is inf and fails."""
    if np.shape(psi) != (1 << n,):
        raise LayoutError(f"{n}-qubit state needs shape ({1 << n},), got {np.shape(psi)}")
    psi = np.asarray(psi, dtype=complex)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(psi)
    check_norm(norm, "state is not normalized")
    return psi


class _PauliTermFields(NamedTuple):
    weight: float
    phase: float
    letters: str


class _Validated:  # base of a record that validates in __new__: _make, so _replace, does too
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # NamedTuple's skips __new__


class PauliTerm(_Validated, _PauliTermFields):
    """One weighted, phased Pauli string."""

    __slots__ = ()

    def __new__(cls, weight: float, phase: float, letters: str):
        try:
            valid = (bool not in (type(weight), type(phase)) and 0 <= weight
                     and math.isfinite(weight) and math.isfinite(phase))
        except (TypeError, OverflowError):  # not a number, or an int past the float range
            valid = False
        if not valid:
            raise InvalidHamiltonianError(f"term {letters!r}: bad weight or phase")
        if not isinstance(letters, str) or letters.strip("IXYZ"):
            raise InvalidHamiltonianError(f"bad Pauli letters {letters!r}")
        return super().__new__(cls, weight, phase, letters)

    @property
    def coefficient(self) -> complex:
        return self.weight * cmath.exp(1j * self.phase)


_X_DIGITS, _Z_DIGITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")  # masks


class _LcuFields(NamedTuple):
    n: int
    terms: tuple[PauliTerm, ...]


class HamiltonianLCU(_Validated, _LcuFields):
    """Linear combination of phased Pauli strings on ``n`` qubits. Its fields are read-only,
    and the instance ``__dict__`` (no ``__slots__``) holds the cached masks and diagonals."""

    def __new__(cls, n: int, terms: tuple[PauliTerm, ...]):
        _check_int(n, "n", 1)
        if len(terms) < 1:
            raise InvalidHamiltonianError("need at least one term")
        seen = set()
        for t in terms:
            if len(t.letters) != n:
                raise InvalidHamiltonianError("term length does not match qubit count")
            if t.letters in seen:
                raise InvalidHamiltonianError(f"duplicate term {t.letters}")
            seen.add(t.letters)
        self = super().__new__(cls, n, terms)
        if not 0 < l1_norm(self) < math.inf:  # the weights' sum overflows to inf
            raise InvalidHamiltonianError(
                f"the l1 norm must be positive and finite, got {l1_norm(self)!r}")
        return self

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def l_width(self) -> int:
        """Qubits needed to index the terms (minimum 1)."""
        return max(1, (self.num_terms - 1).bit_length())

    @cached_property
    def masks(self) -> tuple[tuple[int, int, complex], ...]:
        """Per term ``(x, z, u)``: the term is ``weight * u * X^x Z^z``, u = exp(i phase) i^{#Y}.
        The reversed letters, read as binary digits, put letter j at bit j."""
        return tuple((int(t.letters[::-1].translate(_X_DIGITS), 2),
                      int(t.letters[::-1].translate(_Z_DIGITS), 2),
                      np.exp(1j * t.phase) * 1j ** t.letters.count("Y")) for t in self.terms)

    @cached_property
    def _l1(self) -> float:  # l1_norm, summed once: every H~ matvec reads it
        return sum(float(t.weight) for t in self.terms)  # ints past the float range: inf

    @cached_property
    def _groups(self) -> list:
        """``_group_diagonals(self)``, built on the first matvec and held while ``self`` lives."""
        return _group_diagonals(self)

    @cached_property
    def _stack(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(idx, D)`` of a stacked H: ``idx[g] = arange(2^n) ^ x_g`` and ``D[g]`` the diagonal
        of group g of ``_groups``, a scalar broadcast; None where ``_groups`` holds views."""
        if type(self._groups[0][0]) is not int:
            return None
        b = np.arange(1 << self.n)
        return (np.array([b ^ x for x, _ in self._groups]),
                np.array([np.broadcast_to(d, b.shape) for _, d in self._groups]))


def l1_norm(H: HamiltonianLCU) -> float:
    """Sum of term weights."""
    return H._l1


_DROP_ATOL = 1e-12  # a merged coefficient of at most this magnitude is dropped


def canonicalize(n: int, raw_terms: Iterable[tuple[complex, str]]) -> HamiltonianLCU:
    """Merge duplicate letter sequences and fold coefficient signs into phases.

    ``raw_terms`` is an iterable of ``(coefficient, letters)`` with real or
    complex coefficients. Terms whose merged coefficient magnitude is at most
    ``_DROP_ATOL`` are dropped.
    """
    _check_int(n, "n", 1)
    merged: dict[str, complex] = {}
    for coeff, letters in raw_terms:
        letters = str(letters)
        if len(letters) != n:
            raise InvalidHamiltonianError(f"term {letters!r} does not act on {n} qubits")
        merged[letters] = merged.get(letters, 0j) + complex(coeff)
    terms = []
    for letters, coeff in merged.items():
        if not cmath.isfinite(coeff):  # abs() of a NaN can raise a stale OverflowError
            raise InvalidHamiltonianError(f"term {letters!r}: bad weight or phase")
        if abs(coeff) <= _DROP_ATOL:
            continue
        terms.append(PauliTerm(weight=abs(coeff), phase=float(cmath.phase(coeff)), letters=letters))
    if not terms:
        raise InvalidHamiltonianError("all coefficients vanish")
    return HamiltonianLCU(n=n, terms=tuple(terms))


def build_ising(n_sites: int, J: float, h: float) -> HamiltonianLCU:
    """Open-chain 1D Ising model: J * sum Z_i Z_{i+1} + h * sum X_i.

    Term order is couplings by site index, then fields by site index.
    """
    _check_int(n_sites, "n_sites", 2)
    J, h = _check_real(J, "J"), _check_real(h, "h")
    raw = [(J, "I" * i + "ZZ" + "I" * (n_sites - i - 2)) for i in range(n_sites - 1)]
    raw += [(h, "I" * i + "X" + "I" * (n_sites - i - 1)) for i in range(n_sites)]
    return canonicalize(n_sites, raw)


def mask_letters(x: int, z: int, n: int) -> str:
    """The letter string of X^x Z^z, qubit 0 first: Y where both x and z have the bit."""
    return "".join("IXZY"[(x >> j & 1) | (z >> j & 1) << 1] for j in range(n))


LETTER_PHASE = np.array([(-1j) ** k for k in range(4)])  # c X^x Z^z = c (-i)^popcount(x & z) letters


def _group_diagonals(H: HamiltonianLCU) -> list:
    """Per distinct x, in order of first appearance, ``(key, D_x)``, where D_x(b) =
    sum_{t: x_t = x} weight_t u_t (-1)^popcount((b ^ x) & z_t), or a scalar when every z_t
    is 0. When the G groups fit the stack (G 2^n <= ``_MAX_STACK_ENTRIES``), key is x and
    D_x has 2^n entries. Above it, on the (2,)*n view of the last axis (qubit n-1 first),
    key reverses the axes of the set bits of x, which reads v(b ^ x) at b, and D_x has that
    shape. Over ``_MAX_DIAGONAL_BYTES`` of them are refused before the first is allocated."""
    nbytes = len({x for x, z, _ in H.masks if z}) * 16 << H.n
    if nbytes > _MAX_DIAGONAL_BYTES:
        raise ResourceLimitError(f"the Hamiltonian's diagonals would take {nbytes} bytes, over "
                                 f"the limit of {_MAX_DIAGONAL_BYTES}")
    groups: dict[int, list[tuple[int, complex]]] = {}
    for t, (x, z, u) in zip(H.terms, H.masks):
        groups.setdefault(x, []).append((z, t.weight * u))
    stacked = len(groups) << H.n <= _MAX_STACK_ENTRIES
    out = []
    for x, terms in groups.items():
        if all(z == 0 for z, _ in terms):
            d = sum(c for _, c in terms)
        else:
            src = np.arange(1 << H.n) ^ x
            d = np.zeros(1 << H.n, dtype=complex)
            for z, c in terms:
                d += np.where(np.bitwise_count(src & z) & 1, -c, c) if z else c
            d = d if stacked else d.reshape((2,) * H.n)
        if not stacked:
            steps = [-1 if x >> j & 1 else 1 for j in reversed(range(H.n))]
            x = (Ellipsis, *(slice(None, None, step) for step in steps))
        out.append((x, d))
    return out


def pauli_sum_apply(H: HamiltonianLCU, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``H v`` without a matrix; ``v`` holds 2^n amplitudes along its last axis. The result
    goes into ``out`` when given, a complex array of v's shape that is not v.

    Two forms, chosen by size and equal to the bit. A stacked H (G groups, G 2^n at most
    ``_MAX_STACK_ENTRIES``: Ising to n = 12 and the bundled Hubbard file) gathers v(b ^ x_g)
    for every group at once and sums the rows D_g(b) v(b ^ x_g) in group order: one gather,
    one multiply and one reduction, where per-call overhead bounds the work (BENCH_40.json).
    A batch of B vectors gathers B G 2^n entries. A larger H makes one multiply per group
    over an XOR-permuted view of v, with no index array. The diagonals are built on the first
    call and held on ``H`` while it lives (``H._groups``, and ``H._stack`` for the stacked
    arrays), which is no more than that call holds at once: above the stack, one takes
    2^n * 16 bytes, 4 MiB at n = 18 and 256 MiB at n = 24, and more than 1 GiB of them is
    refused.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape[-1:] != (1 << H.n,):
        raise LayoutError(f"{H.n}-qubit Hamiltonian needs {1 << H.n} amplitudes")
    if H._stack is not None:
        idx, D = H._stack
        rows = v[idx] if v.ndim == 1 else np.take(v, idx, axis=-1)
        np.multiply(D, rows, out=rows)
        # row after row, as the views' out += tmp; from -0j, not numpy's +0, so a -0 stays
        return np.add.reduce(rows, axis=-2, initial=-0j, out=out)
    groups = H._groups
    shape = v.shape[:-1] + (2,) * H.n
    out = np.empty(v.shape, dtype=complex) if out is None else out
    tmp = np.empty_like(out) if len(groups) > 1 else out
    v, outs, tmps = v.reshape(shape), out.reshape(shape), tmp.reshape(shape)
    for i, (index, d) in enumerate(groups):
        np.multiply(d, v[index], out=tmps if i else outs)
        if i:
            out += tmp
    return out


def apply_rescaled(H: HamiltonianLCU, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """H~ v, H~ = (-i / l1) H: what every post-selected LCU block applies to its rows; into
    ``out`` as ``pauli_sum_apply``'s."""
    out = pauli_sum_apply(H, v, out)
    out *= -1j / l1_norm(H)
    return out


def load_hamiltonian(path) -> HamiltonianLCU:
    """Read a Hamiltonian from the JSON text format.

    Format: ``{"n": int, "terms": [{"coeff": real, "phase": real (optional),
    "paulis": "IXYZ..."}]}``. The reader canonicalizes, so signed
    coefficients and duplicates are fine. Each refusal of the content starts with ``path``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
        n = data["n"]
        if type(n) is not int:
            raise TypeError(f"n must be an integer, got {n!r}")
        raw = []
        for entry in data["terms"]:
            coeff = float(entry["coeff"]) * cmath.exp(1j * float(entry.get("phase", 0.0)))
            raw.append((coeff, entry["paulis"]))
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError, RecursionError) as exc:
        raise InvalidHamiltonianError(
            f"{path}: not a Hamiltonian file ({type(exc).__name__}: {exc})") from None
    try:
        return canonicalize(n, raw)
    except (InvalidModelError, InvalidHamiltonianError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def save_hamiltonian(H: HamiltonianLCU, path) -> None:
    """Write a Hamiltonian in the JSON text format read by load_hamiltonian."""
    data = {"n": H.n, "terms": [{"coeff": t.weight, "phase": t.phase, "paulis": t.letters}
                                for t in H.terms]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")

