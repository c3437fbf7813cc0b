import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from lcusim import bliss
from lcusim.bliss import (
    BlissParams,
    FermionicOperator,
    apply_bliss,
    build_hubbard_chain,
    fermionic_to_pauli_dict,
    jordan_wigner,
    load_fermionic,
    optimize_bliss,
)
from lcusim.errors import InvalidHamiltonianError, InvalidModelError
from lcusim.hamiltonian import canonicalize, l1_norm, mask_letters
from conftest import ladder_matrix
from reference import bliss_line_search, fock_matrix, sector_spectrum, to_matrix


def save_fermionic(F: FermionicOperator, n_electrons: int, path) -> None:
    """Write the FCIDUMP-like text format read by load_fermionic."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"NORB={F.n_orb} NELEC={n_electrons}\n")
        for idx in np.argwhere(np.abs(F.two_body) > 0):
            i, j, k, l = (int(x) for x in idx)
            fh.write(f"{float(F.two_body[i, j, k, l].real)!r} {i + 1} {j + 1} {k + 1} {l + 1}\n")
        for i in range(F.n_orb):
            for j in range(i, F.n_orb):
                if F.one_body[i, j] != 0:
                    fh.write(f"{float(F.one_body[i, j].real)!r} {i + 1} {j + 1} 0 0\n")
        if F.constant != 0.0:
            fh.write(f"{float(F.constant)!r} 0 0 0 0\n")


def _jw_matrix(F):
    return to_matrix(jordan_wigner(F))


def _mask_matrix(masks, n):
    """Dense sum c X^x Z^z of ``{(x, z): c}``: column b holds c (-1)^popcount(b & z) at row b ^ x."""
    b = np.arange(1 << n)
    mat = np.zeros((1 << n, 1 << n), dtype=complex)
    for (x, z), c in masks.items():
        mat[b ^ x, b] += c * (-1.0) ** np.bitwise_count(b & z)
    return mat


# --- per-unit reference: one shift operator and one Jordan-Wigner pass per parameter ---


def shift_operator(params: BlissParams, n_orb: int) -> FermionicOperator:
    """(xi0 + sum xi_ij a_i^dag a_j)(N_hat - N_e) as coefficient updates."""
    xi0, xi, ne = params.xi0, params.xi, params.n_electrons
    const = -xi0 * ne
    one = xi0 * np.eye(n_orb, dtype=complex) - ne * xi
    two = np.zeros((n_orb, n_orb, n_orb, n_orb), dtype=complex)
    for k in range(n_orb):
        two[:, :, k, k] += xi
    return FermionicOperator(n_orb, constant=const, one_body=one, two_body=two)


def _param_basis(n_orb: int, include_offdiag: bool, ne: int) -> list[BlissParams]:
    """Unit-parameter shifts spanning (xi0, Hermitian xi)."""
    basis = [BlissParams(1.0, np.zeros((n_orb, n_orb)), ne)]
    for i in range(n_orb):
        xi = np.zeros((n_orb, n_orb))
        xi[i, i] = 1.0
        basis.append(BlissParams(0.0, xi, ne))
    if include_offdiag:
        for i in range(n_orb):
            for j in range(i + 1, n_orb):
                xr = np.zeros((n_orb, n_orb))
                xr[i, j] = xr[j, i] = 1.0
                basis.append(BlissParams(0.0, xr, ne))
                xm = np.zeros((n_orb, n_orb), dtype=complex)
                xm[i, j] = 1j
                xm[j, i] = -1j
                basis.append(BlissParams(0.0, xm, ne))
    return basis


def _per_unit_matrix(F, ne, include_offdiag=True):
    """(sorted letter strings, a, B) from one JW pass per unit shift operator."""
    base = fermionic_to_pauli_dict(F)
    cols = [
        fermionic_to_pauli_dict(shift_operator(u, F.n_orb))
        for u in _param_basis(F.n_orb, include_offdiag, ne)
    ]
    strings = sorted(set(base) | set().union(*[set(c) for c in cols]))
    a = np.array([base.get(s, 0j) for s in strings])
    B = np.array([[c.get(s, 0j) for c in cols] for s in strings])
    return strings, a, B


def _x_mask(letters: str) -> int:
    """The positions of a letter string that hold X or Y, as bits."""
    return sum(1 << q for q, c in enumerate(letters) if c in "XY")


def _reached_reference(F, ne, include_offdiag=True):
    """``_per_unit_matrix`` restricted to the X masks of F's nonzero coefficients: the rows
    of other masks (F's own strings aside) are dropped and the columns of other masks zeroed.
    Asserts what makes the cut exact: every dropped row is 0 in ``a`` and is touched only by
    zeroed columns."""
    strings, a, B = _per_unit_matrix(F, ne, include_offdiag)
    a, B = a.real, B.real
    base = fermionic_to_pauli_dict(F)
    reached = {_x_mask(s) for s, c in base.items() if c != 0}
    masks = np.array([_x_mask(s) for s in strings])
    kept_rows = np.isin(masks, list(reached)) | np.array([s in base for s in strings])
    col_masks = [set(masks[np.flatnonzero(col)]) for col in B.T]
    assert all(len(m) <= 1 for m in col_masks)  # N_hat - N_e is pure Z: one X mask per column
    kept_cols = np.array([m <= reached for m in col_masks])
    dropped = ~kept_rows
    assert not a[dropped].any() and not B[np.ix_(dropped, kept_cols)].any()
    kept_strings = [s for s, kept in zip(strings, kept_rows) if kept]
    return kept_strings, a[kept_rows], (B * kept_cols)[kept_rows]


def _mask_space_matrix(F, ne, include_offdiag=True):
    """(letter strings, a, dense B) from ``bliss._shift_matrix``, the rows in the letter
    order of ``_per_unit_matrix``."""
    keys, a, cols = bliss._shift_matrix(F, ne, include_offdiag)
    B = np.zeros((len(keys), len(cols)))
    for m, (rows, vals) in enumerate(cols):
        B[rows, m] = vals
    strings = [mask_letters(*divmod(int(k), 1 << F.n_orb), F.n_orb) for k in keys]  # x << n | z
    order = sorted(range(len(keys)), key=strings.__getitem__)
    return [strings[r] for r in order], a[order], B[order]


def _sparse_operator(n, seed):
    """A sparse Hermitian one-body part, density-density terms g_iijj n_i n_j and a few
    density-assisted hoppings g_ijkk a_i^dag a_j n_k, so that only some pairs' X masks are
    reached, and the hoppings' shifts move off 0."""
    rng = np.random.default_rng(seed)
    h = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * (rng.random((n, n)) < 0.15)
    g = np.zeros((n,) * 4, dtype=complex)
    for i, j in zip(*np.nonzero(rng.random((n, n)) < 0.3)):
        g[i, i, j, j] = rng.normal()
    for i, j, k in zip(*np.nonzero(rng.random((n, n, n)) < 0.5 / n**2)):
        g[i, j, k, k] += rng.normal() + 1j * rng.normal()
    g = (g + g.conj().transpose(3, 2, 1, 0)) / 2
    return FermionicOperator(n, constant=float(rng.normal()), one_body=h + h.conj().T, two_body=g)


def _random_hermitian_operator(n, rng, two_body=False):
    h = rng.normal(size=(n, n))
    h = (h + h.T) / 2
    g = None
    if two_body:
        g = np.zeros((n, n, n, n))
        for i in range(n):
            for j in range(n):
                g[i, i, j, j] = rng.normal()
        g = (g + g.transpose(3, 2, 1, 0)) / 2
    return FermionicOperator(n, constant=float(rng.normal()), one_body=h, two_body=g)


class TestJordanWigner:
    def test_single_number_operator(self):
        # a_0^dag a_0 = (I - Z_0) / 2
        F = FermionicOperator(2, one_body=np.diag([1.0, 0.0]))
        d = fermionic_to_pauli_dict(F)
        assert d["II"] == pytest.approx(0.5)
        assert d["ZI"] == pytest.approx(-0.5)

    def test_hopping_term(self):
        # a_0^dag a_1 + h.c. = (X X + Y Y) / 2 (letters: qubit0 first)
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        d = fermionic_to_pauli_dict(FermionicOperator(2, one_body=h))
        assert d["XX"] == pytest.approx(0.5)
        assert d["YY"] == pytest.approx(0.5)

    def test_anticommutators(self):
        # {a_i, a_j^dag} = delta_ij, {a_i, a_j} = 0 for the reference ladder matrices
        n = 3
        mats = [ladder_matrix(j, n) for j in range(n)]
        for i in range(n):
            for j in range(n):
                anti = mats[i] @ mats[j].conj().T + mats[j].conj().T @ mats[i]
                expected = np.eye(1 << n) * (1.0 if i == j else 0.0)
                assert np.abs(anti - expected).max() < 1e-12
                anti2 = mats[i] @ mats[j] + mats[j] @ mats[i]
                assert np.abs(anti2).max() < 1e-12

    def test_encoder_matches_ladder_products(self):
        # the live encoder against products of the reference ladder matrices, at N = 3:
        # every a_i^dag a_j (as Hermitian pairs, since one_body must be Hermitian) and
        # every single-entry a_i^dag a_j a_k^dag a_l
        n = 3
        up = [ladder_matrix(j, n, dagger=True) for j in range(n)]
        dn = [ladder_matrix(j, n) for j in range(n)]
        for i, j in itertools.product(range(n), repeat=2):
            for phase in (1.0, 1j):
                h = np.zeros((n, n), dtype=complex)
                h[i, j] += phase
                h[j, i] += np.conj(phase)
                ref = phase * up[i] @ dn[j] + np.conj(phase) * up[j] @ dn[i]
                got = _mask_matrix(bliss._jw_masks(FermionicOperator(n, one_body=h)), n)
                assert np.abs(got - ref).max() < 1e-12, (i, j, phase)
        for idx in itertools.product(range(n), repeat=4):
            g = np.zeros((n,) * 4)
            g[idx] = 1.0
            i, j, k, m = idx
            ref = up[i] @ dn[j] @ up[k] @ dn[m]
            got = _mask_matrix(bliss._jw_masks(FermionicOperator(n, two_body=g)), n)
            assert np.abs(got - ref).max() < 1e-12, idx

    def test_matches_fock_matrix(self):
        rng = np.random.default_rng(31)
        F = _random_hermitian_operator(3, rng, two_body=True)
        assert np.abs(_jw_matrix(F) - fock_matrix(F)).max() < 1e-12

    def test_matches_fock_matrix_general_two_body(self):
        # every index pattern of a_i^dag a_j a_k^dag a_l, complex coefficients
        rng = np.random.default_rng(8)
        n = 5
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g = rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4)
        g *= rng.random((n,) * 4) < 0.2
        F = FermionicOperator(n, constant=0.3, one_body=h + h.conj().T, two_body=g)
        assert np.abs(_jw_matrix(F) - fock_matrix(F)).max() < 1e-12

    def test_hubbard_chain_past_dense_cap(self):
        # S sites, 2S orbitals: 2(S-1) hops give XZ..ZX and YZ..ZY strings (t/2 each);
        # U n_up n_dn = U/4 (I - Z_up - Z_dn + Z_up Z_dn) per site.
        S, t, U = 7, 1.5, 4.0
        H = jordan_wigner(build_hubbard_chain(S, t, U))
        assert H.n == 14
        assert H.num_terms == 4 * (S - 1) + 3 * S + 1
        assert l1_norm(H) == pytest.approx(2 * (S - 1) * t + S * U, rel=1e-14)

    def test_hubbard_reference_values(self):
        H = jordan_wigner(build_hubbard_chain(4, 1.0, 4.0))
        assert H.num_terms == 25
        assert l1_norm(H) == pytest.approx(22.0)


class TestShift:
    def test_shift_operator_identity(self):
        # the shift equals (xi0 + sum xi a^dag a)(N_hat - ne) as a matrix
        rng = np.random.default_rng(7)
        n, ne = 3, 2
        xi = rng.normal(size=(n, n))
        xi = (xi + xi.T) / 2
        params = BlissParams(0.7, xi, ne)
        S = fock_matrix(shift_operator(params, n))
        num = fock_matrix(FermionicOperator(n, one_body=np.eye(n)))
        xi_op = fock_matrix(FermionicOperator(n, one_body=xi))
        expected = (0.7 * np.eye(1 << n) + xi_op) @ (num - ne * np.eye(1 << n))
        assert np.abs(S - expected).max() < 1e-12

    def test_apply_bliss_subtracts(self):
        rng = np.random.default_rng(12)
        F = _random_hermitian_operator(3, rng, two_body=True)
        params = BlissParams(0.3, np.diag([0.1, -0.2, 0.4]), 2)
        shifted = apply_bliss(F, params)
        expected = fock_matrix(F) - fock_matrix(shift_operator(params, 3))
        assert np.abs(fock_matrix(shifted) - expected).max() < 1e-12

    def test_sector_spectrum_invariant(self):
        rng = np.random.default_rng(3)
        F = _random_hermitian_operator(4, rng, two_body=True)
        params = BlissParams(1.1, np.diag(rng.normal(size=4)), 2)
        before = sector_spectrum(F, 2)
        after = sector_spectrum(apply_bliss(F, params), 2)
        assert np.abs(before - after).max() < 1e-10

    def test_other_sectors_change(self):
        F = build_hubbard_chain(2, 1.0, 4.0)
        params = BlissParams(2.0, np.zeros((4, 4)), 2)
        shifted = apply_bliss(F, params)
        assert np.abs(sector_spectrum(F, 2) - sector_spectrum(shifted, 2)).max() < 1e-10
        assert np.abs(sector_spectrum(F, 3) - sector_spectrum(shifted, 3)).max() > 1e-6

    def test_non_hermitian_xi_rejected(self):
        with pytest.raises(InvalidModelError):
            BlissParams(0.0, np.array([[0.0, 1.0], [0.0, 0.0]]), 1)

    @pytest.mark.parametrize("xi,shape", [(1.0, "()"), (np.zeros((2, 3)), "(2, 3)"),
                                          (np.zeros(2), "(2,)"), (np.zeros((0, 0)), "(0, 0)")])
    def test_xi_that_is_not_a_nonempty_square_matrix_is_refused(self, xi, shape):
        # refused before the Hermitian test, which needs a square matrix
        with pytest.raises(InvalidModelError) as info:
            BlissParams(0.0, xi, 0)
        assert str(info.value) == f"xi must be a nonempty square matrix, got shape {shape}"


class TestOptimizer:
    def test_hubbard4_reference(self):
        F = build_hubbard_chain(4, 1.0, 4.0)
        result = optimize_bliss(F, 4)
        assert result.converged
        assert l1_norm(result.hamiltonian) == pytest.approx(14.0, abs=1e-6)
        assert result.hamiltonian.num_terms == 17

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["eighths", "normal"]),
        st.booleans(),
    )
    def test_the_shift_never_adds_l1_and_adds_terms_only_for_lower_l1(self, n_ne, seed, values,
                                                                       include_offdiag):
        # number-conserving operators: sparse one-body entries in eighths (flat directions
        # abound, as in a four-orbital file that went from 11 to 17 terms at l1 3.625) or a
        # dense one-body and a sparse two-body part of normal entries
        n, ne = n_ne
        rng = np.random.default_rng(seed)
        if values == "eighths":
            h = rng.integers(-8, 9, size=(n, n)) / 8 * (rng.random((n, n)) < 0.5)
            F = FermionicOperator(n, constant=0.125, one_body=np.triu(h) + np.triu(h, 1).T)
        else:
            F = _random_operator(n, seed, 0.1)
        if not np.any(F.one_body) and not np.any(F.two_body):
            return
        before, after = jordan_wigner(F), optimize_bliss(F, ne, include_offdiag=include_offdiag)
        l1_before, l1_after = l1_norm(before), l1_norm(after.hamiltonian)
        assert l1_after <= l1_before * (1 + 1e-12)  # the two sum their terms in other orders
        if l1_after > l1_before - bliss._TOL / 2:  # equal, up to that rounding
            assert after.hamiltonian.num_terms <= before.num_terms

    def test_a_flat_descent_returns_the_unshifted_operator(self, tmp_path):
        # a four-orbital one-body file whose descent ends at its start objective, 3.625,
        # along flat directions that took it from 11 terms to 17
        path = tmp_path / "flat.txt"
        path.write_text("NORB=4 NELEC=2\n-1.0 1 2 0 0\n-1.0 2 3 0 0\n-0.5 3 4 0 0\n"
                        "0.25 1 3 0 0\n0.75 1 1 0 0\n-0.5 4 4 0 0\n0.125 0 0 0 0\n")
        F, _ = load_fermionic(path)
        result = optimize_bliss(F, 1)
        assert (result.hamiltonian.num_terms, jordan_wigner(F).num_terms) == (11, 11)
        assert result.params.xi0 == 0.0 and not np.any(result.params.xi)
        history = result.objective_history
        assert history[0] == history[-1] == l1_norm(result.hamiltonian) == 3.625
        assert len(history) == 3 and result.converged

    def test_matches_linear_program(self):
        # independent oracle: minimize ||a - B x||_1 as an LP
        F = build_hubbard_chain(4, 1.0, 4.0)
        ne = 4
        _, a, B = _per_unit_matrix(F, ne)
        a, B = a.real, B.real
        m, k = B.shape
        # variables: x (free), t >= |a - Bx| elementwise
        c = np.concatenate([np.zeros(k), np.ones(m)])
        A_ub = np.block([[B, -np.eye(m)], [-B, -np.eye(m)]])
        b_ub = np.concatenate([a, -a])
        lp = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * (k + m))
        assert lp.status == 0
        result = optimize_bliss(F, ne)
        assert l1_norm(result.hamiltonian) == pytest.approx(lp.fun, abs=1e-6)

    def test_monotone_history(self):
        F = build_hubbard_chain(3, 1.0, 2.0)
        result = optimize_bliss(F, 3)
        hist = result.objective_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        assert hist[-1] <= l1_norm(jordan_wigner(F)) + 1e-12

    def test_diagonal_only_grid_search(self):
        # brute-force oracle over (xi0, uniform diagonal xi) for the small chain
        F = build_hubbard_chain(2, 1.0, 4.0)
        ne = 2
        best = math.inf
        for xi0 in np.linspace(-3, 3, 61):
            for d in np.linspace(-2, 2, 41):
                params = BlissParams(float(xi0), np.eye(4) * d, ne)
                best = min(best, l1_norm(jordan_wigner(apply_bliss(F, params))))
        result = optimize_bliss(F, ne)
        assert l1_norm(result.hamiltonian) <= best + 1e-9

    def test_sweep_limit_returns_the_last_iterate_with_a_warning(self, monkeypatch):
        # the bundled half-filled chain reaches its minimum in the first sweep, but the
        # convergence test needs a second sweep that lowers nothing
        import importlib.resources as res

        with res.as_file(res.files("lcusim.data") / "hubbard_4site.txt") as path:
            F, ne = load_fermionic(path)
        monkeypatch.setattr(bliss, "_MAX_SWEEPS", 1)
        with pytest.warns(UserWarning) as record:
            result = optimize_bliss(F, ne)
        assert [str(w.message) for w in record] == [
            "BLISS optimizer hit the sweep limit; returning best iterate"
        ]
        assert result.converged is False
        assert len(result.objective_history) == 2
        assert l1_norm(result.hamiltonian) == 14.0

    def test_sector_preserved_after_optimization(self):
        F = build_hubbard_chain(3, 1.0, 2.0)
        result = optimize_bliss(F, 3)
        shifted = apply_bliss(F, result.params)
        assert np.abs(sector_spectrum(F, 3) - sector_spectrum(shifted, 3)).max() < 1e-8


def _random_operator(n, seed, density):
    """Hermitian one-body with complex off-diagonal entries and a Hermitian
    two-body part, g_ijkl = conj(g_lkji), with about ``density`` of its entries set."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = (rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4)) * (rng.random((n,) * 4) < density)
    return FermionicOperator(
        n,
        constant=float(rng.normal()),
        one_body=h + h.conj().T,
        two_body=(g + g.conj().transpose(3, 2, 1, 0)) / 2,
    )


class TestShiftMatrix:
    """The mask-space (a, B) against one JW pass per unit shift operator."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.05, 0.3, "sparse"]),
        st.booleans(),
    )
    def test_matches_per_unit_construction(self, n_ne, seed, density, include_offdiag):
        n, ne = n_ne
        F = _sparse_operator(n, seed) if density == "sparse" else _random_operator(n, seed, density)
        strings, a, B = _mask_space_matrix(F, ne, include_offdiag)
        ref_strings, ref_a, ref_B = _reached_reference(F, ne, include_offdiag)
        assert strings == ref_strings
        assert np.array_equal(a, ref_a)
        assert np.array_equal(B, ref_B)

        # ||a - B x||_1 is the l1 norm of the shifted operator's encoding, the empty
        # columns' parameters held at 0 as the descent holds them
        x = np.random.default_rng(seed + 1).normal(size=B.shape[1]) * B.any(axis=0)
        params = bliss._params_from_vector(x, n, ne, include_offdiag)
        l1 = l1_norm(jordan_wigner(apply_bliss(F, params)))
        assert np.abs(a - B @ x).sum() == pytest.approx(l1, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("include_offdiag, full_rows, rows", [(True, 821, 205), (False, 61, 61)])
    def test_bundled_file_matches_per_unit_construction(self, include_offdiag, full_rows, rows):
        F, ne = _bundled_operator()
        strings, a, B = _mask_space_matrix(F, ne, include_offdiag)
        ref_strings, ref_a, ref_B = _reached_reference(F, ne, include_offdiag)
        assert len(_per_unit_matrix(F, ne, include_offdiag)[0]) == full_rows
        assert len(strings) == rows
        assert strings == ref_strings
        assert np.array_equal(a, ref_a) and np.array_equal(B, ref_B)

    @pytest.mark.parametrize("sites", range(2, 7))
    def test_hubbard_chain_reaches_only_its_hoppings(self, sites):
        # the identity, the 2L number operators and the Re/Im pair of each of the
        # 2(L - 1) hoppings, out of 1 + 2L + 2L(2L - 1) columns
        _, _, cols = bliss._shift_matrix(build_hubbard_chain(sites, 1.0, 4.0), sites, True)
        assert len(cols) == 1 + 2 * sites + 2 * sites * (2 * sites - 1)
        assert sum(len(vals) > 0 for _, vals in cols) == 1 + 2 * sites + 4 * (sites - 1)

    def test_one_jordan_wigner_pass_before_the_final_encoding(self, monkeypatch):
        # the per-unit path built one operator and ran one JW pass per parameter
        events = []

        def recording(name, fn):
            def wrapped(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(bliss, "_jw_masks", recording("encode", bliss._jw_masks))
        monkeypatch.setattr(bliss, "jordan_wigner", recording("jordan_wigner", bliss.jordan_wigner))
        monkeypatch.setattr(
            FermionicOperator, "__init__", recording("operator", FermionicOperator.__init__)
        )
        F = build_hubbard_chain(4, 1.0, 4.0)
        events.clear()
        optimize_bliss(F, 4)
        # the base encoding only: the shifted operator is read off the residual a - B x, so
        # no shifted FermionicOperator is built and no second encoding runs
        assert events == ["encode"]

    @pytest.mark.parametrize("include_offdiag", [True, False])
    def test_zero_operator_refused(self, include_offdiag):
        # no X mask is reached, so a and B have no entries at all
        with pytest.raises(InvalidHamiltonianError, match="all coefficients vanish"):
            optimize_bliss(FermionicOperator(2), 1, include_offdiag=include_offdiag)

    @pytest.mark.parametrize("ne", [-1, 9, 99])
    def test_electron_count_checked_before_any_work(self, monkeypatch, ne):
        def fail(F):
            raise AssertionError("encoded before checking n_electrons")

        monkeypatch.setattr(bliss, "_jw_masks", fail)
        with pytest.raises(InvalidModelError, match=f"^n_electrons must be in 0..8, got {ne}$"):
            optimize_bliss(build_hubbard_chain(4, 1.0, 4.0), ne)


def _bundled_operator():
    import importlib.resources as res

    with res.as_file(res.files("lcusim.data") / "hubbard_4site.txt") as path:
        return load_fermionic(path)


def _shift_vector(params: BlissParams, include_offdiag: bool) -> np.ndarray:
    """The parameter vector of ``params`` in ``_unit_shifts`` order, as the optimizer held it."""
    xi = params.xi
    x = [params.xi0, *xi.diagonal().real]
    if include_offdiag:
        for i, j in zip(*np.triu_indices(len(xi), 1)):
            x += [xi[i, j].real, xi[i, j].imag]
    return np.array(x)


# (n, ne, seed) of the random operators below, several fillings each
_RANDOM_CASES = [(n, ne, seed) for n, fillings in ((3, (0, 1, 3)), (4, (1, 2)), (5, (2, 4)))
                 for ne in fillings for seed in (1, 2)]


class TestDescentFastPaths:
    """The optimizer's fast paths against the slow constructions they replaced."""

    @pytest.mark.parametrize("include_offdiag", [True, False])
    @pytest.mark.parametrize("n, ne, seed", _RANDOM_CASES)
    def test_residual_hamiltonian_matches_the_shifted_operators_encoding(
        self, n, ne, seed, include_offdiag
    ):
        F = _random_operator(n, seed, 0.3)
        result = optimize_bliss(F, ne, include_offdiag=include_offdiag)
        ref = jordan_wigner(apply_bliss(F, result.params))
        got = {t.letters: t.coefficient for t in result.hamiltonian.terms}
        want = {t.letters: t.coefficient for t in ref.terms}
        assert sorted(got) == sorted(want) and result.hamiltonian.num_terms == ref.num_terms
        assert max(abs(got[s] - want[s]) for s in got) <= 1e-12 * l1_norm(ref)

    @pytest.mark.parametrize("include_offdiag", [True, False])
    @pytest.mark.parametrize("n, ne, seed", [(8, None, None)] + _RANDOM_CASES)
    def test_descent_matches_the_reference_line_search(self, n, ne, seed, include_offdiag):
        # the bundled file (n = 8) and the random operators
        F, ne = _bundled_operator() if seed is None else (_random_operator(n, seed, 0.3), ne)
        _, a, cols = bliss._shift_matrix(F, ne, include_offdiag)
        x, history, _ = bliss_line_search(a, cols, bliss._TOL, bliss._MAX_SWEEPS)
        result = optimize_bliss(F, ne, include_offdiag=include_offdiag)
        assert result.objective_history == tuple(history)
        assert np.array_equal(_shift_vector(result.params, include_offdiag), x)

    @pytest.mark.parametrize("include_offdiag", [True, False])
    @pytest.mark.parametrize(
        "kind, n, seed",
        [("hubbard", s, None) for s in range(2, 7)] + [("hopping", 3, None), ("bundled", 4, None)]
        + [("sparse", n, seed) for n in (3, 5, 7) for seed in (1, 2, 3)],
    )
    def test_pruned_descent_matches_the_full_matrix(self, kind, n, seed, include_offdiag):
        # the reference descends every column of the per-unit matrix, the reached
        # X masks and the others alike; n is sites for the chains, orbitals otherwise.
        # The hopping chain (U = 0) has no pure-Z term, so even X mask 0 goes unreached.
        if kind in ("hubbard", "hopping"):
            F, ne = build_hubbard_chain(n, 1.0, 4.0 if kind == "hubbard" else 0.0), n
        elif kind == "bundled":
            F, ne = _bundled_operator()
        else:
            F, ne = _sparse_operator(n, seed), n // 2
        strings, a, B = _per_unit_matrix(F, ne, include_offdiag)
        a, B = a.real, B.real
        cols = [(np.flatnonzero(np.abs(b) > 1e-14), b[np.abs(b) > 1e-14]) for b in B.T]
        x, history, resid = bliss_line_search(a, cols, bliss._TOL, bliss._MAX_SWEEPS)
        ref_params = bliss._params_from_vector(x, F.n_orb, ne, include_offdiag)
        ref_H = canonicalize(F.n_orb, [(resid[r], strings[r]) for r in np.flatnonzero(resid)])

        result = optimize_bliss(F, ne, include_offdiag=include_offdiag)
        assert np.array_equal(_shift_vector(result.params, include_offdiag), x)
        assert result.params.xi0 == ref_params.xi0
        assert np.array_equal(result.params.xi, ref_params.xi)
        assert result.converged == (history[-2] - history[-1] < bliss._TOL)
        # the same terms, by letter string: optimize_bliss lists them in (x, z) order
        assert {t.letters: t for t in result.hamiltonian.terms} == {t.letters: t for t in ref_H.terms}
        # the sums pair their terms differently without the dropped rows' zeros
        assert len(result.objective_history) == len(history)
        np.testing.assert_allclose(result.objective_history, history, rtol=1e-12, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 8)), min_size=1, max_size=12))
    def test_weighted_median_minimizes_the_weighted_distance(self, pairs):
        # small integer breaks repeat, and weights in quarters often reach exactly half
        # their sum at a break, where every t up to the next break is a minimizer
        breaks = np.array([b for b, _ in pairs], dtype=float)
        weights = np.array([w for _, w in pairs]) / 4.0
        t = bliss._weighted_median(breaks, weights, weights.sum() / 2.0)

        def cost(s):
            return float(np.sum(weights * np.abs(s - breaks)))

        assert t in breaks
        assert cost(t) == min(cost(b) for b in breaks)


class TestHubbardModel:
    def test_half_filled_ground_state_symmetric(self):
        # particle-hole symmetric point sanity: spectrum is real and bounded
        F = build_hubbard_chain(2, 1.0, 4.0)
        spec = sector_spectrum(F, 2)
        assert spec.shape == (6,)
        assert spec[0] < 0 < spec[-1]

    def test_orbital_interleaving(self):
        F = build_hubbard_chain(2, 1.0, 0.0)
        # hopping connects same-spin orbitals of adjacent sites only
        h = F.one_body
        assert h[0, 2] == -1.0 and h[1, 3] == -1.0
        assert h[0, 1] == 0.0 and h[0, 3] == 0.0


@pytest.mark.parametrize("n_orb", [25, 2**70])
def test_orbitals_past_the_cap_are_refused_before_the_tensor(n_orb):
    # the N^4 tensor was allocated first: 6 MB at N = 25, numpy's ValueError at N = 2^70
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(InvalidModelError, match=f"^n_orb must be in 1..24, got {n_orb}$"):
            FermionicOperator(n_orb)
        with pytest.raises(InvalidModelError, match=f"^n_sites must be in 1..12, got {n_orb}$"):
            build_hubbard_chain(n_orb, 1.0, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "one_body, two_body, name",
    [
        (np.full((2, 2), np.nan), None, "one_body"),  # was built; optimize_bliss ran its sweeps
        (np.diag([1.0, np.inf]), None, "one_body"),
        ("x", None, "one_body"),  # complex("x"): a bare ValueError
        ([[1.0, None], [None, 1.0]], None, "one_body"),  # a bare TypeError
        ([[1.0, 0.0], [0.0]], None, "one_body"),  # ragged
        (None, np.full((2,) * 4, np.nan), "two_body"),
        (None, "x", "two_body"),
    ],
    ids=["nan", "inf", "str", "None entries", "ragged", "nan two_body", "str two_body"],
)
def test_a_body_that_is_not_finite_numbers_is_refused_at_construction(one_body, two_body, name):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(InvalidModelError, match=f"^{name} must hold finite numbers$"):
            FermionicOperator(2, 0.0, one_body, two_body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_nan_body_at_the_cap_is_refused_before_the_two_body_tensor():
    # the 24^4 zero tensor takes 5.3 MB; a bad one_body is refused before it is built
    import tracemalloc

    one_body = np.full((24, 24), np.nan)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidModelError, match="^one_body must hold finite numbers$"):
            FermionicOperator(24, 0.0, one_body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        F = build_hubbard_chain(3, 1.0, 2.0)
        path = tmp_path / "hubbard.txt"
        save_fermionic(F, 3, path)
        F2, ne = load_fermionic(path)
        assert ne == 3
        assert np.abs(fock_matrix(F2) - fock_matrix(F)).max() < 1e-12

    def test_bundled_data_file(self):
        import importlib.resources as res

        with res.as_file(res.files("lcusim.data") / "hubbard_4site.txt") as path:
            F, ne = load_fermionic(path)
        assert ne == 4
        assert l1_norm(jordan_wigner(F)) == pytest.approx(22.0)

    @pytest.mark.parametrize(
        "text",
        [
            "NORB=2\n1.0 1 1 0 0\n",  # no NELEC
            "NELEC=1\n1.0 1 1 0 0\n",  # no NORB
            "NORB=2 NELEC=1\n1.0 3 1 0 0\n",  # index above NORB
            "NORB=2 NELEC=1\n1.0 1 1 2 -1\n",  # negative index
            "NORB=2 NELEC=1\n1.0 0 1 0 0\n",  # index 0 in a one-body line
            "NORB=2 NELEC=1\n1.0 1 1 0\n",  # four fields
            "NORB=2 NELEC=1\n1.0 1 1 0 0 9 9\n0.5 1 2 0 0\n",  # seven fields
            "NORB=2 NELEC=1\nnan 1 1 0 0\n",  # non-finite value
            "NORB=0 NELEC=0\n",
            "NORB=25 NELEC=1\n",  # over the qubit cap, rejected before the N^4 array
            "",
        ],
    )
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InvalidModelError):
            load_fermionic(path)

    def test_one_body_file_has_a_zero_two_body_tensor(self, tmp_path):
        # no two-body form besides the N^4 tensor: an operator given none holds zeros
        assert np.array_equal(FermionicOperator(3).two_body, np.zeros((3,) * 4))
        assert np.array_equal(FermionicOperator(3).one_body, np.zeros((3, 3)))
        path = tmp_path / "one.txt"
        path.write_text("NORB=2 NELEC=1\n1.0 1 1 0 0\n0.5 1 2 0 0\n")
        F, _ = load_fermionic(path)
        assert F.two_body.shape == (2,) * 4 and not F.two_body.any()
        shifted = apply_bliss(F, BlissParams(0.5, np.zeros((2, 2)), 1))
        assert shifted.two_body.shape == (2,) * 4 and not shifted.two_body.any()

    def test_constant_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("NORB=2 NELEC=1\n1.0 1 1 0 0\n0.25 0 0 0 0\n")
        F, ne = load_fermionic(path)
        assert F.constant == 0.25
        assert F.one_body[0, 0] == 1.0
