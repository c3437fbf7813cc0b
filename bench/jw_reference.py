"""Independent reference for the ``bliss`` command: Jordan-Wigner l1 norms
and the optimal BLISS l1 norm as a linear program.

This shares no code with ``lcusim.bliss``. Operators are dicts
``{(x_mask, z_mask): coeff}`` over the products ``R(x, z) = prod_q X_q^x_q Z_q^z_q``
(X before Z on each qubit), so a product of two strings is an XOR of masks
with sign ``(-1)^popcount(z1 & x2)``. Since ``XZ = -iY``, the Hermitian
Pauli string with the same masks has coefficient ``c * (-i)^popcount(x & z)``.

Jordan-Wigner: ``a_j = Z_{<j} (X_j + iY_j)/2 = Z_{<j} X_j (I - Z_j)/2``.
"""
from __future__ import annotations

import numpy as np

_DROP = 1e-12  # coefficients at or below this magnitude are absent terms


def read_fermion_file(path) -> tuple[int, int, float, dict, dict]:
    """(n_orb, n_electrons, constant, one-body {(i, j): v}, two-body {(i, j, k, l): v}), 0-based.

    One-body lines are mirrored onto the transposed index, as the file format specifies.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    header = dict(part.split("=") for part in " ".join(lines[0]).replace(",", " ").split())
    const, one, two = 0.0, {}, {}
    for parts in lines[1:]:
        v = float(parts[0])
        i, j, k, l = (int(p) for p in parts[1:5])
        if i == j == k == l == 0:
            const += v
        elif k == 0 and l == 0:
            one[(i - 1, j - 1)] = v
            one[(j - 1, i - 1)] = v
        else:
            two[(i - 1, j - 1, k - 1, l - 1)] = v
    return int(header["NORB"]), int(header["NELEC"]), const, one, two


def multiply(a: dict, b: dict) -> dict:
    out: dict = {}
    for (x1, z1), c1 in a.items():
        for (x2, z2), c2 in b.items():
            sign = -1 if (z1 & x2).bit_count() & 1 else 1
            key = (x1 ^ x2, z1 ^ z2)
            out[key] = out.get(key, 0) + sign * c1 * c2
    return out


def add(a: dict, b: dict, scale: complex = 1.0) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + scale * c
    return out


def ladder(j: int, dagger: bool) -> dict:
    below = (1 << j) - 1
    zj = 0.5 if dagger else -0.5  # a^dag = Z_{<j} X_j (I + Z_j)/2
    return {(1 << j, below): 0.5, (1 << j, below | (1 << j)): zj}


class JordanWigner:
    def __init__(self, n: int):
        self.n = n
        self._quad: dict = {}

    def quadratic(self, i: int, j: int) -> dict:
        """a_i^dag a_j."""
        if (i, j) not in self._quad:
            self._quad[(i, j)] = multiply(ladder(i, True), ladder(j, False))
        return self._quad[(i, j)]

    def operator(self, const: complex, one: dict, two: dict) -> dict:
        out = {(0, 0): complex(const)} if const else {}
        for (i, j), v in one.items():
            out = add(out, self.quadratic(i, j), v)
        for (i, j, k, l), v in two.items():
            out = add(out, multiply(self.quadratic(i, j), self.quadratic(k, l)), v)
        return out

    def number_shift(self, n_electrons: int) -> dict:
        """N_hat - N_e."""
        out = {(0, 0): -float(n_electrons)}
        for k in range(self.n):
            out = add(out, self.quadratic(k, k))
        return out


def pauli_coefficients(op: dict) -> dict:
    """Coefficients on Hermitian Pauli strings, keyed by (x_mask, z_mask)."""
    out = {}
    for (x, z), c in op.items():
        out[(x, z)] = c * (-1j) ** ((x & z).bit_count() % 4)
    return out


def l1(op: dict) -> float:
    return float(sum(abs(c) for c in pauli_coefficients(op).values() if abs(c) > _DROP))


def bliss_basis(jw: JordanWigner) -> list[dict]:
    """Unit operators U_m over the real shift parameters: xi0, diag xi, then Re
    and Im of each upper-triangle xi_ij. The shift is sum_m theta_m U_m (N_hat - N_e)."""
    n = jw.n
    units = [{(0, 0): 1.0}]
    units += [jw.quadratic(i, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            fwd, back = jw.quadratic(i, j), jw.quadratic(j, i)
            units.append(add(fwd, back))
            units.append({key: 1j * c for key, c in add(fwd, back, -1.0).items()})
    return units


def bliss_reference(path) -> tuple[float, float]:
    """(l1 before the shift, minimal l1 over all shifts) for a fermion file."""
    from scipy.optimize import linprog

    n, ne, const, one, two = read_fermion_file(path)
    jw = JordanWigner(n)
    base = jw.operator(const, one, two)
    shift = jw.number_shift(ne)
    cols = [pauli_coefficients(multiply(u, shift)) for u in bliss_basis(jw)]
    a_dict = pauli_coefficients(base)
    keys = sorted(set(a_dict).union(*cols))
    a = np.array([a_dict.get(k, 0) for k in keys])
    B = np.array([[c.get(k, 0) for c in cols] for k in keys])
    if max(np.abs(a.imag).max(), np.abs(B.imag).max()) > 1e-9:
        raise ValueError("operator is not Hermitian")
    a, B = a.real, B.real
    m, k = B.shape
    # variables (theta, t): minimise sum t subject to -t <= a - B theta <= t
    cost = np.concatenate([np.zeros(k), np.ones(m)])
    A_ub = np.block([[-B, -np.eye(m)], [B, -np.eye(m)]])
    b_ub = np.concatenate([-a, a])
    lp = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * k + [(0, None)] * m)
    if lp.status != 0:
        raise ValueError(f"linear program failed: {lp.message}")
    return l1(base), float(lp.fun)
