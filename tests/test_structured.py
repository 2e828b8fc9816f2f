import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtt import (
    block_diagonalize,
    circulant_eigenvalues,
    classified_eigenbasis,
    classify,
    corner_blocks,
    eigh,
    kron,
    omega_to_circulant,
    persym_split,
)
from symtt.errors import (
    BadParamsError,
    NotOmegaCirculantError,
    NotSymmetricError,
    NotSymPersymError,
    OddSizeError,
    ShapeMismatchError,
)
from symtt.hamiltonian import assemble, model, pauli
from symtt.linalg import exchange_matrix, fourier_matrix, frob
from symtt.structured import StructureFlags, circulant, omega_circulant, toeplitz_from

from conftest import (
    SCALES,
    dense_classify,
    loop_omega_circulant,
    loop_toeplitz,
    random_complex,
    random_sym_persym,
    random_sym_skew_persym,
    scaled,
)


def test_classify_pauli_x():
    flags = classify(pauli("x"))
    assert flags.symmetric and flags.persymmetric and flags.centrosymmetric
    assert flags.toeplitz and flags.circulant
    assert not flags.skew_persymmetric and not flags.diagonal
    assert flags.omega == 1.0


def test_classify_pauli_z():
    flags = classify(pauli("z"))
    assert flags.symmetric and flags.skew_persymmetric and flags.diagonal
    assert not flags.toeplitz and not flags.persymmetric and not flags.circulant


def test_classify_pauli_y():
    flags = classify(pauli("y"))
    assert flags.hermitian and flags.skew_circulant
    assert not flags.symmetric
    assert flags.omega == -1.0
    flags_i = classify(pauli("y") / 1j)
    assert flags_i.skew_symmetric and flags_i.persymmetric


def test_classify_omega_circulant(rng):
    omega = np.exp(0.77j)
    r = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    flags = classify(omega_circulant(r, omega))
    assert flags.omega is not None
    assert abs(flags.omega - omega) < 1e-8
    assert not flags.circulant and not flags.skew_circulant


def test_classify_float64_matches_its_complex_copy(rng):
    # a real omega-circulant with omega = 1 + 5e-9: not circulant at the
    # default tol, so omega is estimated, and a float division would round
    # it differently from the complex one in about a quarter of the rows
    for _ in range(20):
        m = omega_circulant(rng.standard_normal(6), 1 + 5e-9).real.copy()
        fr, fc = classify(m), classify(m.astype(complex))
        assert fr.omega is not None and not fr.circulant
        assert fr == fc and fr.omega == fc.omega and fr.residuals == fc.residuals


def test_classify_non_square_is_all_false():
    flags = classify(np.ones((2, 3)))
    assert not any([flags.symmetric, flags.persymmetric, flags.toeplitz, flags.diagonal])


KINDS = ("general", "symmetric", "hermitian", "persymmetric", "skew_persymmetric", "toeplitz",
         "circulant", "skew_circulant", "omega_circulant", "diagonal")


def structured_matrix(kind, n, is_complex, rng):
    """A random n x n matrix with the named structure (complex entries when
    asked, and always for an omega-circulant)."""
    def draw(*shape):
        return random_complex(rng, *shape) if is_complex else rng.standard_normal(shape)

    a = draw(n, n)
    return {
        "general": lambda: a,
        "symmetric": lambda: a + a.T,
        "hermitian": lambda: a + a.conj().T,
        "persymmetric": lambda: a + a[::-1, ::-1].T,
        "skew_persymmetric": lambda: a - a[::-1, ::-1].T,
        "toeplitz": lambda: loop_toeplitz(draw(n), draw(n)),
        "circulant": lambda: loop_omega_circulant(draw(n), 1.0),
        "skew_circulant": lambda: loop_omega_circulant(draw(n), -1.0),
        "omega_circulant": lambda: loop_omega_circulant(draw(n), np.exp(1j * rng.uniform(0, 2 * np.pi))),
        "diagonal": lambda: np.diag(draw(n)),
    }[kind]()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KINDS), st.integers(1, 80), st.booleans(), st.sampled_from([0.0, 1e-13, 1e-8]),
       st.integers(0, 2**32 - 1))
def test_classify_matches_dense_oracle(kind, n, is_complex, eps, seed):
    # n runs past two block boundaries of the residual pass (32 rows each)
    rng = np.random.default_rng(seed)
    a = structured_matrix(kind, n, is_complex, rng)
    if eps:
        a = a + eps * (random_complex(rng, n, n) if is_complex else rng.standard_normal((n, n)))
    flags, want = classify(a), dense_classify(a)
    assert flags == want
    assert flags.omega == want.omega


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KINDS + ("omega_i",)), st.integers(1, 40), st.booleans(), st.integers(0, 2**32 - 1))
def test_classify_does_not_depend_on_scale(kind, n, is_complex, seed):
    """a times 2^k gets a's flags and omega, and residuals exactly 2^k times
    a's, at scales where squares of its entries under- or overflow; the
    entries of a are small integers (times i), so a times 2^k is exact."""
    rng = np.random.default_rng(seed)
    if kind == "omega_i":
        a = loop_omega_circulant(rng.integers(-9, 10, n) + 1j * rng.integers(-9, 10, n), 1j)
    else:
        a = np.round(4 * structured_matrix(kind, n, is_complex, rng))
    want = classify(a)
    for k in SCALES:
        got = classify(scaled(a, k))
        assert got == want and got.omega == want.omega, k
        assert got.residuals == {name: math.ldexp(r, k) for name, r in want.residuals.items()}, k


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_structure_checks_do_not_depend_on_scale(rng):
    # the transforms refuse what they refuse at scale 1, and accept the rest
    sym = np.round(4 * random_sym_persym(rng, 6))
    for k in SCALES:
        with pytest.raises(NotSymmetricError):
            persym_split(scaled(np.triu(sym), k))
        with pytest.raises(NotSymPersymError):
            block_diagonalize(scaled(sym + np.diag(np.arange(6.0)), k))
        with pytest.raises(NotOmegaCirculantError):
            omega_to_circulant(scaled(circulant(np.arange(1.0, 5.0)), k), -1.0)
        assert persym_split(scaled(sym, k))[1].shape == (6, 6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_classify_decides_past_float64s_norm_range():
    # the Frobenius norm of each matrix overflows float64: the flags are
    # decided on the matrix times a power of two, and residuals that
    # overflow too read inf
    full = np.full((4, 4), 1e308)
    broken = full.copy()
    broken[0, 1] = 0
    flags = classify(broken)
    assert not (flags.symmetric or flags.diagonal or flags.toeplitz)
    assert math.isclose(flags.residuals["symmetric"], math.sqrt(2) * 1e308, rel_tol=1e-15)
    assert flags.residuals["skew_symmetric"] == math.inf
    flags = classify(full)
    assert flags.symmetric and flags.toeplitz and flags.circulant and not flags.diagonal
    assert flags.omega == 1 and flags.residuals["symmetric"] == 0.0
    assert classify(np.diag([1e308] * 4)).diagonal
    assert classify(np.diag([1e308j] * 4)) == classify(np.diag([1j] * 4))


def test_classify_residuals_are_the_dense_norms(rng):
    omega = np.exp(0.77j)
    a = omega_circulant(random_complex(rng, 40), omega) + 1e-9 * random_complex(rng, 40, 40)
    flags = classify(a, tol=1e-8)
    j = np.fliplr(np.eye(40))
    dense = {
        "symmetric": a - a.T,
        "skew_symmetric": a + a.T,
        "hermitian": a - a.conj().T,
        "persymmetric": j @ a @ j - a.T,
        "skew_persymmetric": j @ a @ j + a.T,
        "centrosymmetric": j @ a @ j - a,
        "toeplitz": a - loop_toeplitz(a[0], a[:, 0]),
        "circulant": a - loop_omega_circulant(a[0], 1.0),
        "skew_circulant": a - loop_omega_circulant(a[0], -1.0),
        "diagonal": a - np.diag(np.diag(a)),
        "omega": a - loop_omega_circulant(a[0], flags.omega),
    }
    assert flags.omega is not None and not flags.circulant
    assert flags.residuals.keys() == dense.keys()
    for name, res in dense.items():
        assert abs(flags.residuals[name] - frob(res)) <= 1e-12 * frob(a), name
    # residuals are reported, not compared
    assert flags == StructureFlags(**{f: getattr(flags, f) for f in dense if f != "omega"}, omega=flags.omega)
    assert hash(flags) == hash(dense_classify(a, tol=1e-8))
    assert "omega" not in classify(rng.standard_normal((5, 5))).residuals
    assert classify(pauli("x")).residuals["omega"] == classify(pauli("x")).residuals["circulant"]


@pytest.mark.parametrize("is_complex", [True, False])
def test_classify_peak_memory_below_one_complex_copy(rng, is_complex):
    n = 1024
    a = omega_circulant(random_complex(rng, n), np.exp(0.3j))
    if not is_complex:
        a = a.real.astype(np.complex128)
    tracemalloc.start()
    try:
        classify(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * n


@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 70])
def test_builders_bit_identical_to_loops(rng, n):
    r, c = random_complex(rng, n), random_complex(rng, n)
    r[1::3] = -0.0
    c[::2] = complex(-0.0, 1.5)

    def same(x, y):
        return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))

    assert same(toeplitz_from(r, c), loop_toeplitz(r, c))
    assert same(circulant(r), loop_omega_circulant(r, 1.0))
    for omega in (1.0, -1.0, np.exp(0.77j), 0.3 - 2j):
        assert same(omega_circulant(r, omega), loop_omega_circulant(r, omega))


def test_toeplitz_diagonal_is_first_col_entry():
    assert np.array_equal(toeplitz_from([1, 2, 3], [9, 4, 5]), [[9, 2, 3], [4, 9, 2], [5, 4, 9]])


@pytest.mark.parametrize("build, error", [
    (lambda: toeplitz_from([1, 2, 3], [9, 4]), ShapeMismatchError),
    (lambda: toeplitz_from([1, 2, 3], [9, 4, 5, 6, 7]), ShapeMismatchError),
    (lambda: toeplitz_from([], []), ShapeMismatchError),
    (lambda: omega_circulant([], 1), ShapeMismatchError),
    (lambda: circulant([]), ShapeMismatchError),
    (lambda: omega_circulant([1, 2], np.nan), BadParamsError),
    (lambda: omega_circulant([1, 2], complex(0, np.inf)), BadParamsError),
    (lambda: omega_to_circulant(pauli("y"), np.nan), NotOmegaCirculantError),
])
def test_builders_reject_bad_input(build, error):
    with pytest.raises(error):
        build()


def test_persym_split_example():
    p, s = persym_split(np.array([[1.0, 2.0], [2.0, 5.0]]))
    assert np.array_equal(p, [[3, 2], [2, 3]])
    assert np.array_equal(s, [[-2, 0], [0, 2]])


def test_persym_split_fixed_point(rng):
    a = random_sym_persym(rng, 6)
    p, s = persym_split(a)
    assert np.allclose(p, a, atol=1e-14)
    assert frob(s) < 1e-14


def test_persym_split_classify_oracle(rng):
    a = rng.standard_normal((8, 8))
    a = 0.5 * (a + a.T)
    p, s = persym_split(a)
    assert np.max(np.abs(p + s - a)) < 1e-15
    fp = classify(p)
    fs = classify(s)
    assert fp.symmetric and fp.persymmetric
    assert fs.symmetric and fs.skew_persymmetric


def test_persym_split_requires_symmetric(rng):
    with pytest.raises(NotSymmetricError):
        persym_split(rng.standard_normal((3, 3)))


def test_corner_blocks_2x2():
    b, c = corner_blocks(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert np.array_equal(b, [[1]])
    assert np.array_equal(c, [[2]])


def test_corner_blocks_hzz_p2():
    h = assemble(model("hzz", 2))
    b, c = corner_blocks(h)
    assert np.array_equal(b, np.diag([1.0, -1.0]))
    assert frob(c) == 0


def test_corner_blocks_reassembly(rng):
    a = random_sym_persym(rng, 8)
    b, c = corner_blocks(a)
    top = np.hstack([b, c.T])
    bot = np.hstack([c, b[::-1, ::-1]])
    assert frob(np.vstack([top, bot]) - a) < 1e-14
    flags_c = classify(c, tol=1e-9)
    assert flags_c.persymmetric


def test_corner_blocks_errors(rng):
    with pytest.raises(OddSizeError):
        corner_blocks(random_sym_persym(rng, 3) + random_sym_persym(rng, 3).T)
    with pytest.raises(NotSymPersymError):
        corner_blocks(rng.standard_normal((4, 4)))


def test_block_diagonalize_2x2():
    pair = block_diagonalize(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert np.allclose(pair.b_plus, [[3]])
    assert np.allclose(pair.b_minus, [[-1]])


def test_block_diagonalize_diagonal_input():
    pair = block_diagonalize(np.diag([1.0, -1.0, -1.0, 1.0]))
    assert np.allclose(pair.b_plus, np.diag([1, -1]))
    assert np.allclose(pair.b_minus, np.diag([1, -1]))


def test_block_diagonalize_orthogonal_and_spectrum(rng):
    a = random_sym_persym(rng, 64)
    pair = block_diagonalize(a)
    assert frob(pair.q @ pair.q.T - np.eye(64)) < 1e-13
    transformed = pair.q @ a @ pair.q.T
    off = transformed.copy()
    off[:32, :32] = 0
    off[32:, 32:] = 0
    assert frob(off) < 1e-12 * frob(a)
    spec_blocks = np.sort(np.concatenate([eigh(pair.b_plus).values, eigh(pair.b_minus).values]))
    spec_full = eigh(a).values
    assert np.max(np.abs(spec_blocks - spec_full)) < 1e-10


def test_block_plus_usually_not_persymmetric_again(rng):
    # the half-size blocks are symmetric but generically lose persymmetry,
    # so the transform cannot recurse
    found = False
    for _ in range(20):
        a = random_sym_persym(rng, 8)
        pair = block_diagonalize(a)
        if not classify(pair.b_plus).persymmetric:
            found = True
            break
    assert found


def test_classified_eigenbasis_pauli_x():
    basis = classified_eigenbasis(pauli("x"))
    assert len(basis.sym_pairs) == len(basis.skew_pairs) == 1
    w, v = basis.sym_pairs[0]
    assert np.isclose(w, 1) and np.allclose(v, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    w, v = basis.skew_pairs[0]
    assert np.isclose(w, -1) and np.allclose(np.abs(v), 1 / np.sqrt(2))
    assert not basis.degenerate_flag


def test_classified_eigenbasis_ising_ground():
    h = assemble(model("ising_zz", 4, {"lam": 1.0}, "open"))
    basis = classified_eigenbasis(h)
    j = np.fliplr(np.eye(16))
    w_sym, v = min(basis.sym_pairs, key=lambda t: t[0])
    w_skew = min(w for w, _ in basis.skew_pairs)
    assert w_sym < w_skew  # the ground state is the exchange-symmetric one
    assert np.linalg.norm(j @ v - v) < 1e-10
    assert np.linalg.norm(h @ v - w_sym * v) < 1e-10 * frob(h)


def test_classified_eigenbasis_degenerate_flag():
    basis = classified_eigenbasis(np.diag([1.0, -1.0, -1.0, 1.0]))
    assert basis.degenerate_flag


def test_classified_eigenbasis_odd_order_names_the_function():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 2.0], [3.0, 2.0, 1.0]])
    with pytest.raises(OddSizeError, match="classified_eigenbasis requires even size, got 3"):
        classified_eigenbasis(a)


@pytest.mark.parametrize("n", range(2, 65, 2))
def test_block_pair_q_bytes_match_dense_formula(rng, n):
    h = n // 2
    eye = np.eye(h, dtype=np.complex128)
    j = exchange_matrix(h)
    want = np.block([[eye, j], [eye, -j]]) / np.sqrt(2.0)
    assert block_diagonalize(random_sym_persym(rng, n)).q.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 4, 6, 10, 16, 32, 64])
def test_classified_eigenbasis_bit_identical_to_per_column_lift(rng, n):
    a = random_sym_persym(rng, n)
    pair = block_diagonalize(a)
    ep, em = eigh(pair.b_plus), eigh(pair.b_minus)
    s2 = np.sqrt(2.0)
    want_sym = [(float(w), np.concatenate([v, v[::-1]]) / s2) for w, v in zip(ep.values, ep.vectors.T)]
    want_skew = [(float(w), np.concatenate([u, -u[::-1]]) / s2) for w, u in zip(em.values, em.vectors.T)]
    basis = classified_eigenbasis(a)
    for got, want in ((basis.sym_pairs, want_sym), (basis.skew_pairs, want_skew)):
        assert len(got) == len(want)
        for (w_got, v_got), (w_want, v_want) in zip(got, want):
            assert w_got == w_want
            assert np.ascontiguousarray(v_got).tobytes() == v_want.tobytes()


def test_block_diagonalize_peak_memory_below_two_complex_copies(rng):
    n = 1024
    a = random_sym_persym(rng, n)
    tracemalloc.start()
    try:
        block_diagonalize(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * n * n


def test_circulant_eigenvalues():
    assert np.allclose(circulant_eigenvalues([0, 1]), [1, -1])
    assert np.allclose(circulant_eigenvalues([2.5, 0, 0]), [2.5, 2.5, 2.5])
    got = circulant_eigenvalues([0, 1, 0, 0])
    assert np.allclose(sorted(got, key=lambda z: (round(z.real, 9), round(z.imag, 9))),
                       sorted([1, 1j, -1, -1j], key=lambda z: (round(z.real, 9), round(z.imag, 9))))


def test_circulant_eigenvalues_match_dense(rng):
    r = rng.standard_normal(6)
    r = np.concatenate([[r[0]], r[1:]])
    c = circulant(r)
    # Hermitian circulant: first row must satisfy conj-reversal; use symmetric r
    r_sym = np.array([1.0, 0.3, 0.2, 0.5, 0.2, 0.3])
    c = circulant(r_sym)
    got = np.sort(circulant_eigenvalues(r_sym).real)
    want = eigh(c).values
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("n", [*range(1, 66), 97, 127, 128, 255, 256, 257, 500, 511, 512, 1000, 1023, 1024, 1999, 2047, 2048])
def test_circulant_eigenvalues_match_fourier_matrix(rng, n):
    r = random_complex(rng, n)
    want = np.sqrt(n) * (fourier_matrix(n) @ r)
    got = circulant_eigenvalues(r)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the dense phases 2 pi jk / n lose digits as jk grows; reduced mod n they
    # stay exact to rounding, and the FFT agrees with them far more closely
    j = np.arange(n)
    exact = np.exp(2j * np.pi * (np.outer(j, j) % n) / n) @ r
    assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact))


def test_omega_to_circulant_pauli_y():
    circ, d = omega_to_circulant(pauli("y"), -1.0)
    assert np.allclose(circ, pauli("x"), atol=1e-15)
    assert np.allclose(d, np.diag([1, 1j]))


def test_omega_to_circulant_identity_on_circulant(rng):
    r = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c = circulant(r)
    circ, d = omega_to_circulant(c, 1.0)
    assert np.allclose(circ, c)
    assert np.allclose(d, np.eye(4))


def test_omega_to_circulant_random_skew(rng):
    r = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    cs = omega_circulant(r, -1.0)
    circ, _ = omega_to_circulant(cs, -1.0)
    assert classify(circ).circulant


def test_omega_to_circulant_rejects_wrong_pattern(rng):
    with pytest.raises(NotOmegaCirculantError):
        omega_to_circulant(rng.standard_normal((3, 3)), -1.0)


def test_kron_of_sym_persym_is_sym_persym(rng):
    for _ in range(200):
        nb = int(rng.integers(2, 9))
        nc = int(rng.integers(2, 9))
        b = random_sym_persym(rng, nb)
        c = random_sym_persym(rng, nc)
        flags = classify(kron(b, c))
        assert flags.symmetric and flags.persymmetric


def test_powers_of_sym_persym(rng):
    a = random_sym_persym(rng, 6)
    for k in (2, 3):
        flags = classify(np.linalg.matrix_power(a, k))
        assert flags.symmetric and flags.persymmetric


def test_skew_persym_squares_and_products(rng):
    a = random_sym_skew_persym(rng, 6)
    assert classify(a).skew_persymmetric
    flags = classify(a @ a)
    assert flags.symmetric and flags.persymmetric
    b = random_sym_skew_persym(rng, 4)
    flags = classify(kron(a, b))
    assert flags.symmetric and flags.persymmetric


def test_skew_symmetric_squares_and_products(rng):
    a = rng.standard_normal((5, 5))
    a = 0.5 * (a - a.T)
    assert classify(a @ a).symmetric
    b = rng.standard_normal((4, 4))
    b = 0.5 * (b - b.T)
    assert classify(kron(a, b)).symmetric


def test_circulant_implies_toeplitz(rng):
    for _ in range(10):
        r = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        flags = classify(circulant(r))
        assert flags.circulant and flags.toeplitz


def test_centrosymmetric_iff_sym_and_persym(rng):
    a = random_sym_persym(rng, 6)
    flags = classify(a)
    assert flags.centrosymmetric == (flags.symmetric and flags.persymmetric)
    s = random_sym_skew_persym(rng, 6)
    flags = classify(s)
    assert flags.symmetric and not flags.persymmetric and not flags.centrosymmetric
