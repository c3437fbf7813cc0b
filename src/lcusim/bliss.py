"""Block-invariant symmetry shift for l1-norm reduction.

Second-quantized operators are stored as (constant, one-body h_ij, two-body
g_ijkl) coefficients of

    H = c + sum_ij h_ij a_i^dag a_j + sum_ijkl g_ijkl a_i^dag a_j a_k^dag a_l.

The shift subtracts (xi0 + sum_ij xi_ij a_i^dag a_j)(N_hat - N_e), which
leaves the fixed-particle-number sector spectrum unchanged while the
Jordan-Wigner-encoded Pauli coefficients change. The optimizer picks the
shift parameters minimizing the l1 norm of those coefficients.

The coefficients are affine in the parameters: a - B x. Column m of B is the
encoding of U_m (N_hat - N_e) for the unit shift U_m (the identity,
a_i^dag a_i, a_i^dag a_j + a_j^dag a_i, i(a_i^dag a_j - a_j^dag a_i)).
N_hat - N_e = (N/2 - N_e) I - 1/2 sum_k Z_k is pure Z, so every product
X^x Z^z1 Z^z2 = X^x Z^(z1 ^ z2) has sign +1, and one encoding of each U_m
gives its whole column. The descent's residual a - B x holds the shifted
operator's coefficients, so its Hamiltonian is read off the residual: the
optimizer makes one Jordan-Wigner pass, of F.

Every row of column m has the X mask of U_m (0 for the identity and
a_i^dag a_i, 2^i | 2^j for the pair i, j), so ||a - B x||_1 splits into
independent blocks by X mask. Where a is zero on every row of a mask, the
descent never moves that block off 0, so only the units whose mask F's
coefficients reach are encoded: the shift matrix grows with the couplings of
F, not with the n^2 pairs, and the other parameters stay 0.

Jordan-Wigner convention: a_j = (prod_{m<j} Z_m) (X_j + i Y_j)/2 with qubit
j carrying orbital j's occupation and qubit 0 the least-significant bit.
"""
from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import InvalidModelError
from .hamiltonian import (LETTER_PHASE, TOTAL_QUBIT_CAP, HamiltonianLCU, _check_int, _check_real,
                          canonicalize, mask_letters)


class FermionicOperator:
    """The coefficients (c, h, g) on ``n_orb`` orbitals; a body given as None is all zeros.
    Equal only to itself."""

    __slots__ = ("n_orb", "constant", "one_body", "two_body")

    def __init__(self, n_orb: int, constant: float = 0.0, one_body: np.ndarray | None = None,
                 two_body: np.ndarray | None = None):
        N = _check_int(n_orb, "n_orb", 1, TOTAL_QUBIT_CAP)  # before the N^4 tensor
        bodies = []
        for name, value, shape in (("one_body", one_body, (N, N)),
                                   ("two_body", two_body, (N,) * 4)):
            try:
                value = np.zeros(shape, complex) if value is None else np.asarray(value, complex)
                finite = np.isfinite(value).all()
            except (TypeError, ValueError):  # not numbers: a str, None entries, a ragged list
                finite = False
            if not finite:
                raise InvalidModelError(f"{name} must hold finite numbers")
            if value.shape != shape:
                raise InvalidModelError(f"{name} must be {' x '.join(['N'] * len(shape))}")
            bodies.append(value)
        one_body, two_body = bodies
        if np.abs(one_body - one_body.conj().T).max() > 1e-12:
            raise InvalidModelError("one_body must be Hermitian")
        self.n_orb, self.constant = n_orb, _check_real(constant, "constant")
        self.one_body, self.two_body = one_body, two_body


class BlissParams:
    """The shift (xi0 + sum_ij xi_ij a_i^dag a_j)(N_hat - N_e); ``xi`` is a Hermitian
    N x N matrix, N >= 1, and N_e = ``n_electrons`` is in 0..N. Equal only to itself."""

    __slots__ = ("xi0", "xi", "n_electrons")

    def __init__(self, xi0: float, xi: np.ndarray, n_electrons: int):
        xi = np.asarray(xi, dtype=complex)
        if xi.ndim != 2 or xi.shape[0] != xi.shape[1] or not xi.size:
            raise InvalidModelError(f"xi must be a nonempty square matrix, got shape {xi.shape}")
        if np.abs(xi - xi.conj().T).max() > 1e-12:
            raise InvalidModelError("xi must be Hermitian")
        self.xi0, self.xi = _check_real(xi0, "xi0"), xi
        self.n_electrons = _check_int(n_electrons, "n_electrons", 0, xi.shape[0])


def _accumulate_product(acc: dict[tuple[int, int], complex], factor: complex, indices) -> None:
    """Add factor * a_i^dag a_j (a_k^dag a_l) into acc, keyed by the (x, z) masks of X^x Z^z.

    a_j^dag, a_j = Z_{<j} X_j (I +- Z_j) / 2 and
    X^x1 Z^z1 X^x2 Z^z2 = (-1)^{popcount(z1 & x2)} X^{x1^x2} Z^{z1^z2}.
    """
    terms = [(factor, 0, 0)]
    for pos, j in enumerate(indices):
        lx, below = 1 << j, (1 << j) - 1
        ladder = ((0.5, below), (-0.5 if pos % 2 else 0.5, below | lx))
        terms = [(c * lc * (-1 if (z & lx).bit_count() & 1 else 1), x ^ lx, z ^ lz)
                 for c, x, z in terms for lc, lz in ladder]
    for c, x, z in terms:
        acc[x, z] = acc.get((x, z), 0j) + c


def _jw_masks(F: FermionicOperator) -> dict[tuple[int, int], complex]:
    """Jordan-Wigner coefficients ``{(x, z): c}`` of ``sum c X^x Z^z``."""
    acc = {(0, 0): complex(F.constant)} if F.constant != 0.0 else {}
    for g in (F.one_body, F.two_body):
        for idx in np.argwhere(g != 0).tolist():
            _accumulate_product(acc, g[tuple(idx)], idx)
    return acc


def fermionic_to_pauli_dict(F: FermionicOperator) -> dict[str, complex]:
    """Raw Jordan-Wigner coefficient dictionary (no canonicalization): each ``c X^x Z^z``
    as its letter string and ``c (-i)^popcount(x & z)``, in the order of ``_jw_masks``."""
    n = F.n_orb
    return {mask_letters(x, z, n): c * LETTER_PHASE[(x & z).bit_count() % 4]
            for (x, z), c in _jw_masks(F).items()}


def jordan_wigner(F: FermionicOperator) -> HamiltonianLCU:
    """Canonicalized Pauli-string Hamiltonian of a fermionic operator."""
    acc = fermionic_to_pauli_dict(F)
    return canonicalize(F.n_orb, [(coeff, letters) for letters, coeff in acc.items()])


def apply_bliss(F: FermionicOperator, params: BlissParams) -> FermionicOperator:
    """H - (xi0 + sum xi_ij a_i^dag a_j)(N_hat - N_e), as coefficient updates."""
    n, xi0, xi, ne = F.n_orb, params.xi0, params.xi, params.n_electrons
    if xi.shape[0] != n:
        raise InvalidModelError("xi dimension does not match the operator")
    one_body = F.one_body - (xi0 * np.eye(n, dtype=complex) - ne * xi)
    two_body = F.two_body - np.multiply.outer(xi, np.eye(n))  # xi_ij a_i^dag a_j a_k^dag a_k
    return FermionicOperator(n, F.constant + xi0 * ne, one_body, two_body)


def _unit_shifts(n_orb: int, include_offdiag: bool,
                 reached: set[int]) -> list[dict[tuple[int, int], complex]]:
    """The unit shifts U_m in parameter order, each as ``{(x, z): c}``: the
    identity, a_i^dag a_i, then per i < j a_i^dag a_j + a_j^dag a_i and
    i(a_i^dag a_j - a_j^dag a_i). A unit whose X mask (0, or 2^i | 2^j for the
    pair i, j) is not in ``reached`` stays empty."""
    terms = [[(1.0, (i, i))] for i in range(n_orb)]
    if include_offdiag:
        for i in range(n_orb):
            for j in range(i + 1, n_orb):
                terms += [[(1.0, (i, j)), (1.0, (j, i))], [(1j, (i, j)), (-1j, (j, i))]]
    units = [{(0, 0): 1 + 0j} if 0 in reached else {}]
    for unit in terms:
        units.append({})
        i, j = unit[0][1]
        if (1 << i) ^ (1 << j) in reached:
            for factor, indices in unit:
                _accumulate_product(units[-1], factor, indices)
    return units


def _shift_matrix(F: FermionicOperator, n_electrons: int, include_offdiag: bool):
    """``(keys, a, columns)`` of the objective ||a - B x||_1.

    Rows are the Pauli strings X^x Z^z of F and of every reached U_m (N_hat - N_e),
    keyed and sorted by ``x << n | z``; ``a`` is dense and each column of B is
    ``(row indices, values)`` over its entries with |v| > 1e-14, the cut the
    line search makes. B's entries are multiples of 1/4, so the cut drops only
    exact zeros, which leave the residual unchanged. A unit is reached when
    F has a nonzero coefficient with the unit's X mask; the other columns
    are empty.
    """
    n = F.n_orb
    base = _jw_masks(F)
    units = _unit_shifts(n, include_offdiag, {x for (x, _), c in base.items() if c != 0})
    number_z = np.array([0] + [1 << k for k in range(n)], dtype=np.int64)
    number_c = np.array([n / 2 - n_electrons] + [-0.5] * n)
    bx, bz = np.array(list(base), dtype=np.int64).reshape(-1, 2).T
    ux, uz = np.array([k for u in units for k in u], dtype=np.int64).reshape(-1, 2).T
    uc = np.array([c for u in units for c in u.values()])
    ucol = np.repeat(np.arange(len(units)), [len(u) for u in units])
    x = np.concatenate([bx, np.repeat(ux, n + 1)])
    z = np.concatenate([bz, (uz[:, None] ^ number_z).ravel()])
    c = np.concatenate([np.array(list(base.values()), dtype=complex), (uc[:, None] * number_c).ravel()])
    col = np.concatenate([np.full(len(base), -1), np.repeat(ucol, n + 1)])  # column -1 is a
    keys, row = np.unique(x << n | z, return_inverse=True)
    pairs, entry = np.unique((col + 1) * len(keys) + row, return_inverse=True)
    vals = np.zeros(len(pairs), dtype=complex)
    np.add.at(vals, entry, c * LETTER_PHASE[np.bitwise_count(x & z) % 4])
    if np.abs(vals.imag).max(initial=0.0) > 1e-10:
        raise InvalidModelError("expected real Pauli coefficients (Hermitian operator)")
    vals = vals.real
    pair_col, pair_row = np.divmod(pairs, len(keys))
    in_a = pair_col == 0
    a = np.zeros(len(keys))
    a[pair_row[in_a]] = vals[in_a]
    keep = ~in_a & (np.abs(vals) > 1e-14)
    ends = np.searchsorted(pair_col[keep], np.arange(1, len(units) + 2))
    rows, vals = pair_row[keep], vals[keep]
    return keys, a, [(rows[lo:hi], vals[lo:hi]) for lo, hi in zip(ends, ends[1:])]


def _weighted_median(breaks: np.ndarray, weights: np.ndarray, half: float) -> float:
    """Minimizer of sum_i w_i |t - b_i| over t, given half = sum_i w_i / 2."""
    order = breaks.argsort()
    return float(breaks[order[weights[order].cumsum().searchsorted(half)]])


def _params_from_vector(x: np.ndarray, n: int, n_electrons: int, include_offdiag: bool) -> BlissParams:
    """The shift whose parameters, in ``_unit_shifts`` order, are ``x``."""
    xi = np.diag(x[1 : n + 1]).astype(complex)
    if include_offdiag:
        i, j = np.triu_indices(n, 1)
        xi[i, j] = x[n + 1 :: 2] + 1j * x[n + 2 :: 2]
        xi[j, i] = x[n + 1 :: 2] - 1j * x[n + 2 :: 2]
    return BlissParams(float(x[0]), xi, n_electrons)


_TOL, _MAX_SWEEPS = 1e-8, 10_000  # optimize_bliss's convergence test and sweep limit


class BlissResult(NamedTuple):
    params: BlissParams
    hamiltonian: HamiltonianLCU
    objective_history: tuple[float, ...]
    converged: bool


def optimize_bliss(F: FermionicOperator, n_electrons: int, *,
                   include_offdiag: bool = True) -> BlissResult:
    """Minimize the Jordan-Wigner l1 norm over the shift parameters.

    The Pauli coefficients are affine in the real parametrization (xi0,
    diag xi, and optionally Re/Im upper-triangle xi), so the objective
    ||a - B x||_1 is convex piecewise linear. Coordinate descent with an
    exact weighted-median line search per coordinate is monotone and, for
    these structured problems, converges to the minimum; a non-convergence
    after ``_MAX_SWEEPS`` returns the best iterate with a warning. A sweep that
    lowers the objective by less than ``_TOL`` ends the descent. A descent that lowers it by
    less than ``_TOL`` in all moved along flat directions only, which can add terms: then the
    unshifted operator (x = 0) is returned, and ``objective_history`` ends with its objective
    once more.
    """
    n = F.n_orb
    _check_int(n_electrons, "n_electrons", 0, n)
    try:  # a coefficient near the float range can overflow anywhere below
        with np.errstate(over="raise", invalid="raise"):
            keys, a, cols = _shift_matrix(F, n_electrons, include_offdiag)
            # per nonempty column: index, rows, values, weights |values| and their half-sum
            # (exact in any order, as the values are multiples of 1/4); a line search only sorts
            searches = [(m, rows, vals, np.abs(vals), np.abs(vals).sum() / 2.0)
                        for m, (rows, vals) in enumerate(cols) if len(vals)]

            x = np.zeros(len(cols))
            resid = a.copy()  # a - B x: row r is the shifted operator's coefficient of keys[r]
            history = [float(np.abs(resid).sum())]
            converged = False
            for _ in range(_MAX_SWEEPS):
                for m, rows, vals, w, half in searches:
                    partial = resid[rows] + vals * x[m]  # residual excluding coordinate m
                    t = _weighted_median(partial / vals, w, half)
                    if t != x[m]:
                        resid[rows] += vals * (x[m] - t)
                        x[m] = t
                obj = float(np.abs(resid).sum())
                history.append(obj)
                if history[-2] - obj < _TOL:
                    converged = True
                    break
            if not converged:
                warnings.warn("BLISS optimizer hit the sweep limit; returning best iterate")
            if history[0] - history[-1] < _TOL:
                x, resid = np.zeros(len(cols)), a
                history.append(history[0])

            params = _params_from_vector(x, n, n_electrons, include_offdiag)
            terms = [(resid[r], mask_letters(*divmod(int(keys[r]), 1 << n), n))
                     for r in np.flatnonzero(resid)]
            H = canonicalize(n, terms)
    except FloatingPointError:
        raise InvalidModelError("the BLISS optimization overflows the float range") from None
    return BlissResult(params, H, tuple(history), converged)


def build_hubbard_chain(n_sites: int, t: float, U: float) -> FermionicOperator:
    """Open-chain Hubbard model; orbital 2p is site p spin-up, 2p+1 spin-down."""
    N = 2 * _check_int(n_sites, "n_sites", 1, TOTAL_QUBIT_CAP // 2)  # before the N^4 tensor
    t, U = _check_real(t, "t"), _check_real(U, "U")
    h = np.zeros((N, N))
    for p in range(n_sites - 1):
        for s in (0, 1):
            i, j = 2 * p + s, 2 * (p + 1) + s
            h[i, j] = h[j, i] = -t
    g = np.zeros((N, N, N, N))
    for p in range(n_sites):
        up, dn = 2 * p, 2 * p + 1
        g[up, up, dn, dn] = U
    return FermionicOperator(N, one_body=h, two_body=g)


def load_fermionic(path) -> tuple[FermionicOperator, int]:
    """Read the FCIDUMP-like text format.

    Header ``NORB=<N> NELEC=<Ne>``; body lines ``value i j k l`` (1-based).
    ``k=l=0`` marks a one-body entry (mirrored onto the transposed index),
    ``i=j=k=l=0`` the constant; otherwise ``value`` multiplies
    ``a_i^dag a_j a_k^dag a_l`` verbatim. Two-body entries are stored as
    written; the file author is responsible for an overall Hermitian
    operator. Each refusal of the content starts with ``path``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()] or [""]
    try:
        header = dict(part.partition("=")[::2] for part in lines[0].replace(",", " ").split())
        try:
            N, ne = int(header["NORB"]), int(header["NELEC"])
        except (KeyError, ValueError):
            raise InvalidModelError("header must read NORB=<int> NELEC=<int>") from None
        if not 1 <= N <= TOTAL_QUBIT_CAP:
            raise InvalidModelError(f"NORB={N} is outside 1..{TOTAL_QUBIT_CAP}")
        const, h, g = 0.0, np.zeros((N, N)), np.zeros((N,) * 4)
        for lineno, ln in enumerate(lines[1:], start=2):
            parts = ln.split()
            try:  # exactly five fields: more or fewer fail to unpack with a ValueError
                v, i, j, k, l = float(parts[0]), *map(int, parts[1:])
            except ValueError:
                raise InvalidModelError(f"line {lineno}: expected 'value i j k l'") from None
            body = (i, j) if k == l == 0 else (i, j, k, l)
            if not math.isfinite(v) or (any(body) and not all(1 <= q <= N for q in body)):
                raise InvalidModelError(f"line {lineno}: need a finite value and indices in 1..{N}")
            if not any(body):
                const += v
            elif len(body) == 2:
                h[i - 1, j - 1] = h[j - 1, i - 1] = v
            else:
                g[i - 1, j - 1, k - 1, l - 1] = v
        return FermionicOperator(N, constant=const, one_body=h, two_body=g), ne
    except InvalidModelError as exc:
        raise InvalidModelError(f"{path}: {exc}") from None
