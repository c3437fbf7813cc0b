import numpy as np
import pytest

from lcusim.hamiltonian import build_ising, canonicalize
from reference import pauli_string_matrix


@pytest.fixture
def ising4():
    return build_ising(4, 1.0, 0.5)


@pytest.fixture
def psi0_4():
    psi = np.zeros(16, dtype=complex)
    psi[0] = 1.0
    return psi


def basis_state(n, index=0):
    psi = np.zeros(1 << n, dtype=complex)
    psi[index] = 1.0
    return psi


def random_state(n, rng):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def ladder_matrix(j, n, dagger=False):
    """Dense a_j (or a_j^dag) from its Jordan-Wigner letters: Z on qubits below j,
    (X + i Y) / 2 (or (X - i Y) / 2) on qubit j; a reference independent of ``bliss``."""
    zs, tail = "Z" * j, "I" * (n - j - 1)
    y_coeff = -0.5j if dagger else 0.5j
    return 0.5 * pauli_string_matrix(zs + "X" + tail) + y_coeff * pauli_string_matrix(zs + "Y" + tail)


def random_hamiltonian(n, L, rng, hermitian=True):
    """Random length-L Pauli-string Hamiltonian with real coefficients."""
    seen = set()
    raw = []
    while len(raw) < L:
        letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        if letters in seen or letters == "I" * n:
            continue
        seen.add(letters)
        coeff = rng.uniform(-1.0, 1.0)
        if not hermitian:
            coeff = coeff * np.exp(1j * rng.uniform(0, 2 * np.pi))
        raw.append((coeff, letters))
    return canonicalize(n, raw)
