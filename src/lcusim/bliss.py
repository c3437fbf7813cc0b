"""Block-invariant symmetry shift for l1-norm reduction.

Second-quantized operators are stored as (constant, one-body h_ij, optional
two-body g_ijkl) coefficients of

    H = c + sum_ij h_ij a_i^dag a_j + sum_ijkl g_ijkl a_i^dag a_j a_k^dag a_l.

The shift subtracts (xi0 + sum_ij xi_ij a_i^dag a_j)(N_hat - N_e), which
leaves the fixed-particle-number sector spectrum unchanged while the
Jordan-Wigner-encoded Pauli coefficients change. The optimizer picks the
shift parameters minimizing the l1 norm of those coefficients.

Jordan-Wigner convention: a_j = (prod_{m<j} Z_m) (X_j + i Y_j)/2 with qubit
j carrying orbital j's occupation and qubit 0 the least-significant bit.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError, ResourceLimitError
from .hamiltonian import HamiltonianLCU, canonicalize, l1_norm, mask_sum_letters, to_matrix
from .statevector import TOTAL_QUBIT_CAP

FERMION_DENSE_CAP = 12


@dataclass(frozen=True)
class FermionicOperator:
    n_orb: int
    constant: float = 0.0
    one_body: np.ndarray | None = None
    two_body: np.ndarray | None = None

    def __post_init__(self):
        N = self.n_orb
        if N < 1:
            raise InvalidModelError("need at least one orbital")
        h = self.one_body if self.one_body is not None else np.zeros((N, N))
        object.__setattr__(self, "one_body", np.asarray(h, dtype=complex))
        if self.one_body.shape != (N, N):
            raise InvalidModelError("one_body must be N x N")
        if np.abs(self.one_body - self.one_body.conj().T).max() > 1e-12:
            raise InvalidModelError("one_body must be Hermitian")
        if self.two_body is not None:
            g = np.asarray(self.two_body, dtype=complex)
            if g.shape != (N, N, N, N):
                raise InvalidModelError("two_body must be N x N x N x N")
            object.__setattr__(self, "two_body", g)


@dataclass(frozen=True)
class BlissParams:
    xi0: float
    xi: np.ndarray
    n_electrons: int

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=complex)
        object.__setattr__(self, "xi", xi)
        if np.abs(xi - xi.conj().T).max() > 1e-12:
            raise InvalidModelError("xi must be Hermitian")
        if self.n_electrons < 0 or self.n_electrons > xi.shape[0]:
            raise InvalidModelError("n_electrons out of range")


def _ladder_strings(j: int, n: int, dagger: bool) -> list[tuple[complex, str]]:
    """Pauli expansion of a_j (or a_j^dag): Z-string below, (X -+ i Y)/2 at j."""
    zs = "Z" * j
    tail = "I" * (n - j - 1)
    y_coeff = -0.5j if dagger else 0.5j
    return [(0.5, zs + "X" + tail), (y_coeff, zs + "Y" + tail)]


def _accumulate_product(acc: dict[tuple[int, int], complex], factor: complex, indices) -> None:
    """Add factor * a_i^dag a_j (a_k^dag a_l) into acc, keyed by the (x, z) masks of X^x Z^z.

    a_j^dag, a_j = Z_{<j} X_j (I +- Z_j) / 2 and
    X^x1 Z^z1 X^x2 Z^z2 = (-1)^{popcount(z1 & x2)} X^{x1^x2} Z^{z1^z2}.
    """
    terms = [(factor, 0, 0)]
    for pos, j in enumerate(indices):
        lx, below = 1 << j, (1 << j) - 1
        ladder = ((0.5, below), (-0.5 if pos % 2 else 0.5, below | lx))
        terms = [
            (c * lc * (-1 if (z & lx).bit_count() & 1 else 1), x ^ lx, z ^ lz)
            for c, x, z in terms
            for lc, lz in ladder
        ]
    for c, x, z in terms:
        acc[x, z] = acc.get((x, z), 0j) + c


def fermionic_to_pauli_dict(F: FermionicOperator) -> dict[str, complex]:
    """Raw Jordan-Wigner coefficient dictionary (no canonicalization)."""
    acc = {(0, 0): complex(F.constant)} if F.constant != 0.0 else {}
    bodies = (F.one_body,) if F.two_body is None else (F.one_body, F.two_body)
    for g in bodies:
        for idx in np.argwhere(g != 0).tolist():
            _accumulate_product(acc, g[tuple(idx)], idx)
    return mask_sum_letters(acc, F.n_orb)


def jordan_wigner(F: FermionicOperator) -> HamiltonianLCU:
    """Canonicalized Pauli-string Hamiltonian of a fermionic operator."""
    acc = fermionic_to_pauli_dict(F)
    return canonicalize(F.n_orb, [(coeff, letters) for letters, coeff in acc.items()])


def shift_operator(params: BlissParams, n_orb: int) -> FermionicOperator:
    """(xi0 + sum xi_ij a_i^dag a_j)(N_hat - N_e) as coefficient updates."""
    xi0, xi, ne = params.xi0, params.xi, params.n_electrons
    const = -xi0 * ne
    one = xi0 * np.eye(n_orb, dtype=complex) - ne * xi
    two = np.zeros((n_orb, n_orb, n_orb, n_orb), dtype=complex)
    for k in range(n_orb):
        two[:, :, k, k] += xi
    return FermionicOperator(n_orb, constant=const, one_body=one, two_body=two)


def apply_bliss(F: FermionicOperator, params: BlissParams) -> FermionicOperator:
    """H - (xi0 + sum xi_ij a_i^dag a_j)(N_hat - N_e)."""
    if params.xi.shape[0] != F.n_orb:
        raise InvalidModelError("xi dimension does not match the operator")
    shift = shift_operator(params, F.n_orb)
    two = None
    if F.two_body is not None or np.abs(shift.two_body).max() > 0:
        base = F.two_body if F.two_body is not None else 0.0
        two = base - shift.two_body
    return FermionicOperator(
        F.n_orb,
        constant=F.constant - shift.constant,
        one_body=F.one_body - shift.one_body,
        two_body=two,
    )


def fock_matrix(F: FermionicOperator) -> np.ndarray:
    """Dense matrix on the occupation-number basis, built directly from
    ladder-operator matrix elements (independent of the Pauli encoding)."""
    n = F.n_orb
    if n > FERMION_DENSE_CAP:
        raise ResourceLimitError(f"{n} orbitals exceeds cap {FERMION_DENSE_CAP}")
    dim = 1 << n
    ann = []
    for j in range(n):
        mat = np.zeros((dim, dim))
        for s in range(dim):
            if (s >> j) & 1:
                sign = (-1) ** (bin(s & ((1 << j) - 1)).count("1"))
                mat[s ^ (1 << j), s] = sign
        ann.append(mat)
    out = np.eye(dim, dtype=complex) * F.constant
    for i in range(n):
        for j in range(n):
            if F.one_body[i, j] != 0:
                out += F.one_body[i, j] * (ann[i].T @ ann[j])
    if F.two_body is not None:
        for idx in np.argwhere(np.abs(F.two_body) > 0):
            i, j, k, l = (int(x) for x in idx)
            out += F.two_body[i, j, k, l] * (ann[i].T @ ann[j] @ ann[k].T @ ann[l])
    return out


def sector_spectrum(op, n_electrons: int) -> np.ndarray:
    """Ascending eigenvalues restricted to the fixed-particle-number sector."""
    if isinstance(op, FermionicOperator):
        mat = fock_matrix(op)
        n = op.n_orb
    else:
        mat = to_matrix(op)
        n = op.n
    if n_electrons < 0 or n_electrons > n:
        raise InvalidModelError("n_electrons out of range")
    idx = [s for s in range(1 << n) if bin(s).count("1") == n_electrons]
    sub = mat[np.ix_(idx, idx)]
    return np.sort(np.linalg.eigvalsh(sub))


def _param_basis(n_orb: int, include_offdiag: bool) -> list[BlissParams]:
    """Unit-parameter shifts spanning (xi0, Hermitian xi)."""
    basis = [BlissParams(1.0, np.zeros((n_orb, n_orb)), 0)]
    for i in range(n_orb):
        xi = np.zeros((n_orb, n_orb))
        xi[i, i] = 1.0
        basis.append(BlissParams(0.0, xi, 0))
    if include_offdiag:
        for i in range(n_orb):
            for j in range(i + 1, n_orb):
                xr = np.zeros((n_orb, n_orb))
                xr[i, j] = xr[j, i] = 1.0
                basis.append(BlissParams(0.0, xr, 0))
                xm = np.zeros((n_orb, n_orb), dtype=complex)
                xm[i, j] = 1j
                xm[j, i] = -1j
                basis.append(BlissParams(0.0, xm, 0))
    return basis


def _weighted_median(breaks: np.ndarray, weights: np.ndarray) -> float:
    """Minimizer of sum_i w_i |t - b_i| over t."""
    order = np.argsort(breaks)
    b, w = breaks[order], weights[order]
    half = w.sum() / 2.0
    cum = np.cumsum(w)
    return float(b[np.searchsorted(cum, half)])


@dataclass(frozen=True)
class BlissResult:
    params: BlissParams
    hamiltonian: HamiltonianLCU
    objective_history: tuple[float, ...]
    converged: bool


def optimize_bliss(
    F: FermionicOperator,
    n_electrons: int,
    *,
    include_offdiag: bool = True,
    tol: float = 1e-8,
    max_sweeps: int = 10_000,
) -> BlissResult:
    """Minimize the Jordan-Wigner l1 norm over the shift parameters.

    The Pauli coefficients are affine in the real parametrization (xi0,
    diag xi, and optionally Re/Im upper-triangle xi), so the objective
    ||a - B x||_1 is convex piecewise linear. Coordinate descent with an
    exact weighted-median line search per coordinate is monotone and, for
    these structured problems, converges to the minimum; a non-convergence
    after ``max_sweeps`` returns the best iterate with a warning.
    """
    n = F.n_orb
    basis = _param_basis(n, include_offdiag)
    base_dict = fermionic_to_pauli_dict(F)
    col_dicts = []
    for unit in basis:
        shift = shift_operator(
            BlissParams(unit.xi0, unit.xi, n_electrons), n
        )
        col_dicts.append(fermionic_to_pauli_dict(shift))
    strings = sorted(set(base_dict) | set().union(*[set(d) for d in col_dicts]))
    a = np.array([base_dict.get(s, 0j) for s in strings])
    B = np.array([[d.get(s, 0j) for d in col_dicts] for s in strings])
    if max(np.abs(a.imag).max(), np.abs(B.imag).max()) > 1e-10:
        raise InvalidModelError("expected real Pauli coefficients (Hermitian operator)")
    a, B = a.real, B.real

    x = np.zeros(len(basis))
    resid = a.copy()  # a - B x
    history = [float(np.abs(resid).sum())]
    converged = False
    for _ in range(max_sweeps):
        for m in range(len(basis)):
            col = B[:, m]
            nz = np.abs(col) > 1e-14
            if not nz.any():
                continue
            partial = resid[nz] + col[nz] * x[m]  # residual excluding coordinate m
            t = _weighted_median(partial / col[nz], np.abs(col[nz]))
            if t != x[m]:
                resid += col * (x[m] - t)
                x[m] = t
        obj = float(np.abs(resid).sum())
        history.append(obj)
        if history[-2] - obj < tol:
            converged = True
            break
    if not converged:
        warnings.warn("BLISS optimizer hit the sweep limit; returning best iterate")

    xi = np.zeros((n, n), dtype=complex)
    xi0 = x[0]
    pos = 1
    for i in range(n):
        xi[i, i] = x[pos]
        pos += 1
    if include_offdiag:
        for i in range(n):
            for j in range(i + 1, n):
                xi[i, j] += x[pos] + 1j * x[pos + 1]
                xi[j, i] += x[pos] - 1j * x[pos + 1]
                pos += 2
    params = BlissParams(float(xi0), xi, n_electrons)
    shifted = apply_bliss(F, params)
    return BlissResult(params, jordan_wigner(shifted), tuple(history), converged)


def build_hubbard_chain(n_sites: int, t: float, U: float) -> FermionicOperator:
    """Open-chain Hubbard model; orbital 2p is site p spin-up, 2p+1 spin-down."""
    if n_sites < 1:
        raise InvalidModelError("need at least one site")
    N = 2 * n_sites
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
    operator.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()] or [""]
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
        try:
            v, (i, j, k, l) = float(parts[0]), (int(p) for p in parts[1:5])
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
    return FermionicOperator(N, constant=const, one_body=h, two_body=g if g.any() else None), ne


def save_fermionic(F: FermionicOperator, n_electrons: int, path) -> None:
    """Write the FCIDUMP-like text format read by load_fermionic."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"NORB={F.n_orb} NELEC={n_electrons}\n")
        if F.two_body is not None:
            for idx in np.argwhere(np.abs(F.two_body) > 0):
                i, j, k, l = (int(x) for x in idx)
                fh.write(f"{float(F.two_body[i, j, k, l].real)!r} {i + 1} {j + 1} {k + 1} {l + 1}\n")
        for i in range(F.n_orb):
            for j in range(i, F.n_orb):
                if F.one_body[i, j] != 0:
                    fh.write(f"{float(F.one_body[i, j].real)!r} {i + 1} {j + 1} 0 0\n")
        if F.constant != 0.0:
            fh.write(f"{float(F.constant)!r} 0 0 0 0\n")
