import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcusim import hamiltonian
from lcusim.bliss import jordan_wigner, load_fermionic
from lcusim.errors import (
    InvalidHamiltonianError,
    InvalidModelError,
    LayoutError,
    ResourceLimitError,
)
from lcusim.hamiltonian import (
    LETTER_PHASE,
    HamiltonianLCU,
    PauliTerm,
    build_ising,
    canonicalize,
    l1_norm,
    load_hamiltonian,
    mask_letters,
    pauli_sum_apply,
    save_hamiltonian,
)
from reference import PAULI_MATRICES, apply_pauli, pauli_string_matrix, prepare_amplitudes, to_matrix

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


class TestBuildIsing:
    def test_four_site_preset(self):
        H = build_ising(4, 1.0, 0.5)
        assert H.num_terms == 7
        assert l1_norm(H) == pytest.approx(5.0)

    def test_two_site_coupling_only(self):
        H = build_ising(2, 1.0, 0.0)
        assert H.num_terms == 1
        (term,) = H.terms
        assert term.letters == "ZZ"
        assert term.weight == pytest.approx(1.0)
        assert term.phase == 0.0

    def test_fields_only(self):
        H = build_ising(3, 0.0, 0.5)
        assert H.num_terms == 3
        assert all(set(t.letters) <= {"I", "X"} for t in H.terms)
        assert l1_norm(H) == pytest.approx(1.5)

    def test_negative_couplings_fold_into_phase(self):
        H = build_ising(3, -1.0, -0.5)
        assert all(t.weight > 0 for t in H.terms)
        assert all(t.phase == pytest.approx(math.pi) for t in H.terms)

    def test_too_few_sites(self):
        with pytest.raises(InvalidModelError):
            build_ising(1, 1.0, 0.5)

    def test_term_order_couplings_then_fields(self):
        H = build_ising(3, 2.0, 0.5)
        assert [t.letters for t in H.terms] == ["ZZI", "IZZ", "XII", "IXI", "IIX"]


class TestCanonicalize:
    def test_negative_coefficient(self):
        H = canonicalize(1, [(-0.5, "X")])
        (t,) = H.terms
        assert t.weight == pytest.approx(0.5)
        assert t.phase == pytest.approx(math.pi)

    def test_duplicates_merge(self):
        H = canonicalize(1, [(1.0, "Z"), (1.0, "Z")])
        (t,) = H.terms
        assert t.weight == pytest.approx(2.0)

    def test_imaginary_coefficient(self):
        H = canonicalize(2, [(0.3j, "IY")])
        (t,) = H.terms
        assert t.weight == pytest.approx(0.3)
        assert t.phase == pytest.approx(math.pi / 2)

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidHamiltonianError):
            canonicalize(1, [(1.0, "Z"), (-1.0, "Z")])

    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10).filter(lambda c: abs(c) > 1e-6),
                st.sampled_from(["XI", "IZ", "YY", "ZX"]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_l1_matches_signed_sum(self, raw):
        merged = {}
        for c, s in raw:
            merged[s] = merged.get(s, 0.0) + c
        if all(abs(v) <= 1e-12 for v in merged.values()):
            return
        H = canonicalize(2, raw)
        expected = sum(abs(v) for v in merged.values() if abs(v) > 1e-12)
        assert l1_norm(H) == pytest.approx(expected, rel=1e-9)


class TestToMatrix:
    def test_single_z(self):
        H = canonicalize(1, [(1.0, "Z")])
        assert np.allclose(to_matrix(H), Z)

    def test_phase_pi_gives_minus_x(self):
        H = HamiltonianLCU(1, (PauliTerm(1.0, math.pi, "X"),))
        assert np.allclose(to_matrix(H), -X)

    def test_two_site_ising_spectrum(self):
        H = build_ising(2, 1.0, 0.5)
        direct = np.kron(Z, Z) + 0.5 * (np.kron(np.eye(2), X) + np.kron(X, np.eye(2)))
        assert np.allclose(
            np.linalg.eigvalsh(to_matrix(H)), np.linalg.eigvalsh(direct), atol=1e-12
        )

    def test_qubit_zero_is_lsb(self):
        # X on qubit 0 flips the least-significant bit
        H = canonicalize(2, [(1.0, "XI")])
        v = np.zeros(4)
        v[0] = 1.0
        assert np.allclose(to_matrix(H) @ v, [0, 1, 0, 0])

    def test_cap_enforced(self):
        H = build_ising(4, 1.0, 0.5)
        with pytest.raises(ResourceLimitError):
            to_matrix(H, cap=3)

    def test_canonicalized_matches_signed(self):
        rng = np.random.default_rng(5)
        raw = [(rng.uniform(-2, 2), s) for s in ("XZI", "IYX", "ZZZ", "IIX")]
        H = canonicalize(3, raw)
        direct = sum(
            c * to_matrix(canonicalize(3, [(1.0, s)])) for c, s in raw
        )
        assert np.abs(to_matrix(H) - direct).max() < 1e-12

    def test_real_phases_give_hermitian(self):
        H = build_ising(3, -1.3, 0.7)
        mat = to_matrix(H)
        assert np.abs(mat - mat.conj().T).max() < 1e-12


class TestPauliMul:
    @pytest.mark.parametrize("a,b", list(itertools.product("IXYZ", repeat=2)))
    def test_matches_matrix_product(self, a, b):
        # a b = i^{#Y_a + #Y_b} X^x1 Z^z1 X^x2 Z^z2 = i^{..} (-1)^{|z1 & x2|} X^{x1^x2} Z^{z1^z2}
        ((x1, z1, y1),) = HamiltonianLCU(1, (PauliTerm(1.0, 0.0, a),)).masks
        ((x2, z2, y2),) = HamiltonianLCU(1, (PauliTerm(1.0, 0.0, b),)).masks
        coeff = y1 * y2 * (-1) ** (z1 & x2).bit_count()
        x, z = x1 ^ x2, z1 ^ z2  # c X^x Z^z as c (-i)^popcount(x & z) times its letters
        letters = mask_letters(x, z, 1)
        phase = coeff * LETTER_PHASE[(x & z).bit_count() % 4]
        assert np.allclose(
            phase * PAULI_MATRICES[letters], PAULI_MATRICES[a] @ PAULI_MATRICES[b], atol=0
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))))
def test_mask_letters_times_letter_phase_is_the_mask_product(nxz):
    # X^x Z^z, built densely from the per-term gather, is (-i)^popcount(x & z) times its letters
    n, x, z = nxz
    dense = apply_pauli(np.eye(1 << n, dtype=complex), x, z, 1.0).T  # row b of eye -> column b
    letters = mask_letters(x, z, n)
    assert len(letters) == n
    assert np.array_equal(
        pauli_string_matrix(letters) * LETTER_PHASE[(x & z).bit_count() % 4], dense)


def _random_terms(n):
    letters = st.text("IXYZ", min_size=n, max_size=n)
    coeff = st.tuples(st.floats(0.01, 2.0), st.floats(-math.pi, math.pi))
    return st.dictionaries(letters, coeff, min_size=1, max_size=12)


@st.composite
def _shared_x_terms(draw, n):
    """Up to three X masks (0 allowed), up to four Z masks each: groups of several terms,
    Y letters where x and z overlap."""
    coeff = st.tuples(st.floats(0.01, 2.0), st.floats(-math.pi, math.pi))
    terms = {}
    for x in draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3, unique=True)):
        for z in draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4, unique=True)):
            terms["".join("IXZY"[(x >> j & 1) | (z >> j & 1) << 1] for j in range(n))] = draw(coeff)
    return terms


class TestPauliSumApply:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(st.just(n), st.one_of(_random_terms(n), _shared_x_terms(n)))
        ),
        st.sampled_from([(), (3,), (2, 2)]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_matrix(self, n_terms, batch, seed):
        n, terms = n_terms
        H = HamiltonianLCU(n, tuple(PauliTerm(w, ph, s) for s, (w, ph) in terms.items()))
        rng = np.random.default_rng(seed)
        v = rng.normal(size=batch + (1 << n,)) + 1j * rng.normal(size=batch + (1 << n,))
        err = np.abs(pauli_sum_apply(H, v) - v @ to_matrix(H).T)
        assert (err < 1e-12 * l1_norm(H) * np.abs(v).sum(axis=-1, keepdims=True)).all()

    def test_wrong_length_rejected(self):
        with pytest.raises(LayoutError):
            pauli_sum_apply(build_ising(3, 1.0, 0.5), np.ones(4))

    @pytest.mark.parametrize("rescaled_first", [False, True], ids=["plain-first", "rescaled-first"])
    def test_diagonals_are_built_once_per_hamiltonian(self, monkeypatch, rescaled_first):
        # every matvec on one H, plain or rescaled to H~ = (-i / l1) H, reads the one set of
        # group diagonals built on the first, whichever of the two that is
        build, builds = hamiltonian._group_diagonals, []

        def recording(H):
            builds.append(H)
            return build(H)

        monkeypatch.setattr(hamiltonian, "_group_diagonals", recording)
        H = build_ising(3, 1.0, 0.5)
        v = np.random.default_rng(5).normal(size=(2, 8)) + 0j
        if rescaled_first:
            hamiltonian.apply_rescaled(H, v)
            assert builds == [H]
        for _ in range(3):
            assert np.abs(pauli_sum_apply(H, v) - v @ to_matrix(H).T).max() < 1e-12
            assert builds == [H]
            rescaled = hamiltonian.apply_rescaled(H, v)
            assert np.abs(rescaled - v @ ((-1j / l1_norm(H)) * to_matrix(H)).T).max() < 1e-12
        assert builds == [H] and len(H._groups) == H.n + 1


def _signed_zeros(rng, shape) -> np.ndarray:
    """Random complex entries, about a third of each part a zero of random sign, so that a
    kernel's signs of zero show in its bits."""
    re, im = rng.normal(size=(2,) + shape)
    re, im = (np.where(rng.random(shape) < 0.35, np.copysign(0.0, x), x) for x in (re, im))
    return _pack(re, im)


def _pack(re, im) -> np.ndarray:  # re + 1j * im would turn a -0 real part to +0
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _sequential(rows) -> np.ndarray:
    """Rows summed one after another on the second-to-last axis, as the views' out += tmp."""
    out = rows[..., 0, :].copy()
    for g in range(1, rows.shape[-2]):
        out += rows[..., g, :]
    return out


class TestStackedKernel:
    # below _MAX_STACK_ENTRIES one gather over every group, above it one view per group

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(st.just(n), st.one_of(_random_terms(n), _shared_x_terms(n)))
        ),
        st.sampled_from([(), (3,), (2, 2)]),
        st.integers(0, 2**32 - 1),
    )
    def test_the_stack_equals_the_views_to_the_bit(self, n_terms, batch, seed):
        n, terms = n_terms
        terms = tuple(PauliTerm(w, ph, s) for s, (w, ph) in terms.items())
        v = _signed_zeros(np.random.default_rng(seed), batch + (1 << n,))
        stacked = HamiltonianLCU(n, terms)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hamiltonian, "_MAX_STACK_ENTRIES", 0)
            views = HamiltonianLCU(n, terms)
            by_views = pauli_sum_apply(views, v)
        by_stack = pauli_sum_apply(stacked, v)
        assert stacked._stack is not None and views._stack is None
        assert by_stack.shape == by_views.shape == v.shape
        assert by_stack.tobytes() == by_views.tobytes()  # the signs of zero too
        for H in (stacked, views):  # into a given buffer, as the moment pass reuses one
            buf = np.full(v.shape, np.nan, complex)
            assert pauli_sum_apply(H, v, buf) is buf and buf.tobytes() == by_stack.tobytes()
        dense = v @ to_matrix(stacked).T
        tol = 1e-12 * l1_norm(stacked) * np.abs(v).sum(axis=-1, keepdims=True)
        for out in (by_stack, by_views):
            assert (np.abs(out - dense) <= tol).all()

    def test_a_sum_of_negative_zeros_stays_negative(self):
        # both groups' rows have imaginary parts -0, whose sum is -0; numpy starts a
        # reduction at +0, and +0 + -0 + -0 is +0
        raw, v = [(1.0, "I"), (1.0, "X")], _pack(np.array([-0.0, -0.0]), np.array([-0.0, -0.0]))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(hamiltonian, "_MAX_STACK_ENTRIES", 0)
            by_views = pauli_sum_apply(canonicalize(1, raw), v)
        assert np.signbit(by_views.imag).all()
        assert pauli_sum_apply(canonicalize(1, raw), v).tobytes() == by_views.tobytes()

    @pytest.mark.parametrize("budget, stacked", [(5 << 4, True), ((5 << 4) - 1, False)])
    def test_the_budget_is_inclusive(self, monkeypatch, budget, stacked):
        # Ising n = 4 has 5 groups of 2^4 entries: x = 0 (the couplings) and one X per site
        monkeypatch.setattr(hamiltonian, "_MAX_STACK_ENTRIES", budget)
        H = build_ising(4, 1.0, 0.5)
        v = _signed_zeros(np.random.default_rng(1), (16,))
        assert np.abs(pauli_sum_apply(H, v) - to_matrix(H) @ v).max() < 1e-12
        assert len(H._groups) == 5 and (H._stack is not None) is stacked
        assert all(type(key) is (int if stacked else tuple) for key, _ in H._groups)

    def test_the_budget_covers_ising_to_12_qubits_and_the_bundled_hubbard_file(self):
        fermions, _ = load_fermionic(Path(hamiltonian.__file__).parent / "data" / "hubbard_4site.txt")
        for H, stacked in ((build_ising(12, 1.0, 0.5), True), (build_ising(13, 1.0, 0.5), False),
                           (jordan_wigner(fermions), True)):
            assert (H._stack is not None) is stacked

    def test_numpy_reduces_rows_in_order(self):
        # the stack sums its rows with np.add.reduce(..., axis=-2, initial=-0j), which must be
        # the views' sequential out += tmp to the bit: a numpy release that reorders it, as
        # np.add.reduceat does, fails here
        rng = np.random.default_rng(40)
        reordered = 0
        for G in range(1, 16):
            for shape in ((G, 64), (3, G, 64)):
                rows = _signed_zeros(rng, shape)
                rows.real *= 10.0 ** rng.integers(-8, 9, size=shape)  # so the order shows
                ordered = _sequential(rows)
                assert np.add.reduce(rows, axis=-2, initial=-0j).tobytes() == ordered.tobytes()
                reordered += _sequential(rows[..., ::-1, :]).tobytes() != ordered.tobytes()
        assert reordered > 20  # the order shows in the bits of these rows


def z_carrying_masks(n: int, masks: int) -> HamiltonianLCU:
    """Z_0 X_k on n qubits for k = 0 .. masks - 1 (X_0 read as I): ``masks`` distinct X masks,
    each with a Z, so ``masks`` diagonals of 2^n amplitudes."""
    return canonicalize(n, [(1.0, "Z" + "".join("X" if j == k else "I" for j in range(1, n)))
                            for k in range(masks)])


class TestDiagonalMemory:
    def test_over_the_limit_refused_before_a_diagonal_is_allocated(self):
        H = z_carrying_masks(24, 5)  # 5 * 256 MiB
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="would take 1342177280 bytes"):
                H._groups
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_x_masks_without_a_z_take_no_diagonal(self, monkeypatch):
        # the limit itself is accepted: at n = 8, 4 KiB per diagonal
        monkeypatch.setattr(hamiltonian, "_MAX_DIAGONAL_BYTES", 3 * 16 << 8)
        assert len(z_carrying_masks(8, 3)._groups) == 3
        with pytest.raises(ResourceLimitError):
            z_carrying_masks(8, 4)._groups
        scalars = canonicalize(8, [(1.0, "ZIIIIIII")] + [(1.0, "I" * j + "X" + "I" * (7 - j))
                                                         for j in range(8)])
        assert len(scalars._groups) == 9  # one diagonal, eight scalars


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        H = build_ising(3, -1.0, 0.5)
        path = tmp_path / "ising.json"
        save_hamiltonian(H, path)
        H2 = load_hamiltonian(path)
        assert H2.n == H.n
        assert np.abs(to_matrix(H2) - to_matrix(H)).max() < 1e-12

    def test_reader_canonicalizes(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(
            '{"n": 1, "terms": [{"coeff": -0.5, "paulis": "X"}, {"coeff": 0.25, "paulis": "X"}]}'
        )
        H = load_hamiltonian(path)
        (t,) = H.terms
        assert t.weight == pytest.approx(0.25)
        assert t.phase == pytest.approx(math.pi)


class TestInvariants:
    def test_weight_nonnegative_enforced(self):
        with pytest.raises(InvalidHamiltonianError):
            PauliTerm(-1.0, 0.0, "X")

    @pytest.mark.parametrize("weight,phase", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan)])
    def test_non_finite_rejected(self, weight, phase):
        with pytest.raises(InvalidHamiltonianError):
            PauliTerm(weight, phase, "X")

    @pytest.mark.parametrize("weight,phase", [(None, 0.0), (1.0, None), ("1", 0.0), (1j, 0.0),
                                              (1.0, 10**400), (True, 0.0), (1.0, False),
                                              (10**400, 0.0)],
                             ids=["None-0.0", "1.0-None", "'1'-0.0", "1j-0.0", "1.0-10**400",
                                  "True-0.0", "1.0-False", "10**400-0.0"])
    def test_a_weight_or_phase_that_is_not_a_number_is_refused(self, weight, phase):
        # None, "1" and 1j raised TypeError, and a phase past the float range OverflowError;
        # a bool weight or phase was kept, and a weight of 10**400 raised OverflowError in l1
        with pytest.raises(InvalidHamiltonianError, match=r"^term 'X': bad weight or phase$"):
            PauliTerm(weight, phase, "X")

    @pytest.mark.parametrize("letters", [None, 5, b"X", ["X"]])
    def test_letters_that_are_not_a_string_are_refused(self, letters):
        # these raised AttributeError or TypeError
        with pytest.raises(InvalidHamiltonianError, match=r"^bad Pauli letters "):
            PauliTerm(1.0, 0.0, letters)

    @pytest.mark.parametrize("letters", ["XQX", "QX", "xz", "X Z"])
    def test_bad_letters_rejected(self, letters):
        # a bad letter inside, at the start, in lower case, or a blank
        with pytest.raises(InvalidHamiltonianError, match="bad Pauli letters"):
            PauliTerm(1.0, 0.0, letters)

    @pytest.mark.parametrize("weights", [(0.0, 0.0), (1e308, 1e308), (10**308, 10**308)])
    def test_l1_norm_zero_or_overflowing_rejected(self, weights):
        # two ints in the float range whose sum is past it raised OverflowError
        terms = tuple(PauliTerm(w, 0.0, letters) for w, letters in zip(weights, "XZ"))
        with pytest.raises(InvalidHamiltonianError, match="l1 norm must be positive and finite"):
            HamiltonianLCU(1, terms)

    def test_duplicate_terms_rejected(self):
        with pytest.raises(InvalidHamiltonianError):
            HamiltonianLCU(1, (PauliTerm(1.0, 0.0, "X"), PauliTerm(0.5, 0.0, "X")))

    def test_prepare_amplitudes_ising(self):
        H = build_ising(4, 1.0, 0.5)
        amps = prepare_amplitudes(H)
        expected = np.sqrt([0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1, 0.0])
        assert np.allclose(amps, expected, atol=1e-12)
