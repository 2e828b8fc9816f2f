import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtt import (
    MPSState,
    SymmetryWitness,
    bitflip_construct,
    bitflip_normal_form,
    detect_vector_symmetries,
    dof_count,
    eigh,
    firstsite_construct,
    from_vector,
    fullbit_normal_form,
    fullbit_state,
    lastsite_construct,
    orbits,
    pauli,
    reverse_construct,
    reverse_normal_form,
    symmetrize_flip,
    symmetrize_reverse,
    symmetrize_shift,
    ti_construct,
    ti_normal_form,
    to_vector,
    verify_relation,
)
from symtt.errors import BadParamsError, NotDiagonalizableError, NotHermitianError, ShapeMismatchError, SymmetryMismatchError, TooLargeError, ZeroVectorError
from symtt.hamiltonian import TABLE_MODELS, ground_state, model
from symtt.linalg import dagger, exchange_matrix, frob
from symtt import errors, linalg, symmetry
from symtt.symmetry import EPS_SYM, bit_reversed, heuristic_bitflip_witness, shifted, ti_chain_normal_form

from conftest import SCALES, group_orbit_count, random_complex, random_hermitian, scaled


def ghz(p):
    x = np.zeros(2**p)
    x[0] = x[-1] = 1 / np.sqrt(2)
    return x


def rand_vec(rng, p):
    return random_complex(rng, 2**p)


# ----------------------------------------------------------------- detection

def test_detect_ghz():
    kinds = detect_vector_symmetries(ghz(4))
    assert {"bitflip+", "bitshift", "reverse"} <= kinds
    assert "bitflip-" not in kinds


def test_detect_skew():
    x = np.zeros(8)
    x[0], x[-1] = 1, -1
    kinds = detect_vector_symmetries(x)
    assert "bitflip-" in kinds and "bitflip+" not in kinds


def test_detect_after_symmetrization(rng):
    x = rand_vec(rng, 5)
    assert "bitflip+" in detect_vector_symmetries(symmetrize_flip(x, 1))
    assert "bitflip-" in detect_vector_symmetries(symmetrize_flip(x, -1))
    assert "bitshift" in detect_vector_symmetries(symmetrize_shift(x))
    assert "reverse" in detect_vector_symmetries(symmetrize_reverse(x))


def test_detect_first_last_site(rng):
    b = rand_vec(rng, 3)
    assert "firstsite+" in detect_vector_symmetries(np.concatenate([b, b]))
    assert "firstsite-" in detect_vector_symmetries(np.concatenate([b, -b]))
    inter = np.empty(16, complex)
    inter[0::2], inter[1::2] = b, b
    assert "lastsite+" in detect_vector_symmetries(inter)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.sampled_from(("none", "shift", "reverse", "flip+", "flip-", "first+", "first-", "last+", "last-")),
       st.integers(0, 2**32 - 1))
def test_detect_does_not_depend_on_scale(p, kind, seed):
    """x times 2^k has the kinds of x at scales where squares of its entries
    under- or overflow; x has small integer parts, so x times 2^k is exact."""
    rng = np.random.default_rng(seed)
    b = rng.integers(-9, 10, 2**p) + 1j * rng.integers(-9, 10, 2**p)
    h = b[: len(b) // 2]
    x = {
        "none": lambda: b,
        "shift": lambda: sum(shifted(b, r) for r in range(p)),
        "reverse": lambda: b + np.conj(bit_reversed(b)),
        "flip+": lambda: b + b[::-1],
        "flip-": lambda: b - b[::-1],
        "first+": lambda: np.concatenate([h, h]) if p > 1 else b,
        "first-": lambda: np.concatenate([h, -h]) if p > 1 else b,
        "last+": lambda: np.repeat(h, 2) if p > 1 else b,
        "last-": lambda: np.repeat(h, 2) * np.tile([1, -1], len(h)) if p > 1 else b,
    }[kind]()
    want = detect_vector_symmetries(x)
    for k in SCALES:
        assert detect_vector_symmetries(scaled(x, k)) == want, k


def test_shift_and_reverse_helpers():
    # p=3: component (i1 i2 i3) read at (i2 i3 i1)
    x = np.arange(8, dtype=complex)
    assert shifted(x)[0b100 >> 0] == x[0b001]
    assert np.allclose(bit_reversed(x)[0b110], x[0b011])


@pytest.mark.parametrize("p", range(1, 13))
def test_bit_maps_match_bit_strings(p):
    # oracle: component s is read at the rotated or reversed p-character string
    strings = [format(i, f"0{p}b") for i in range(2**p)]
    rng = np.random.default_rng(p)
    for x in (random_complex(rng, 2**p), rng.integers(-(2**40), 2**40, size=2**p)):
        assert np.array_equal(bit_reversed(x), x[[int(s[::-1], 2) for s in strings]])
        for r in (-1, 0, 1, 2, p - 1, p, p + 1):
            k = r % p
            y = shifted(x, r)
            assert y.dtype == x.dtype and not np.shares_memory(y, x)
            assert np.array_equal(y, x[[int(s[k:] + s[:k], 2) for s in strings]]), r


def test_bit_maps_hold_only_their_output():
    p = 20
    x = np.ones(2**p, dtype=np.complex128)
    for call in (lambda: shifted(x), lambda: shifted(x, 7), lambda: bit_reversed(x)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * x.nbytes


# -------------------------------------------------------------------- orbits

def test_orbits_table_row():
    rep = orbits("101001000")
    assert rep.shift_orbit == frozenset(
        {
            "101001000",
            "010010001",
            "100100010",
            "001000101",
            "010001010",
            "100010100",
            "000101001",
            "001010010",
            "010100100",
        }
    )
    assert rep.flip_orbit == frozenset({"101001000", "010110111"})
    assert rep.reverse_orbit == frozenset({"101001000", "000100101"})


def test_orbit_closure():
    rep = orbits("1100")
    for s in rep.shift_orbit:
        assert s[1:] + s[0] in rep.shift_orbit


def test_orbits_guard(monkeypatch):
    # the shift orbit of p bits holds up to p rotations of p characters
    monkeypatch.setattr(errors, "MAX_DENSE_BYTES", 100)
    assert len(orbits("1" + "0" * 9).shift_orbit) == 10
    with pytest.raises(TooLargeError, match=r"11 bits holds up to 121 bytes.*MAX_DENSE_BYTES guard of 100 bytes"):
        orbits("1" + "0" * 10)


# ----------------------------------------------------------------- dof count

def test_dof_small_counts():
    assert dof_count(2, ["bitshift"]).counts["bitshift"] == 3
    assert dof_count(9, ["bitshift"]).counts["bitshift"] == 60
    assert dof_count(9, ["bitflip"]).counts["bitflip"] == 256


def test_dof_brute_force_oracle():
    # independent orbit enumeration by explicit string rotation
    p = 7
    seen = set()
    classes = 0
    for i in range(2**p):
        if i in seen:
            continue
        classes += 1
        s = format(i, f"0{p}b")
        for k in range(p):
            seen.add(int(s[k:] + s[:k], 2))
    assert dof_count(p, ["bitshift"]).counts["bitshift"] == classes


def test_dof_bounds():
    for p in range(2, 13):
        counts = dof_count(p, ["bitshift", "bitflip", "reverse"]).counts
        assert 2**p / p <= counts["bitshift"] <= 2 * (2**p / p)
        assert counts["bitflip"] >= 2 ** (p - 1)
        assert counts["reverse"] >= 2 ** (p - 1)


def test_dof_guard():
    # the counts describe 2^p-entry complex vectors: p = 26 is 1 GiB
    counts = dof_count(26, ["bitflip", "reverse"]).counts
    assert counts["bitflip"] == 2**25 and counts["reverse"] == (2**26 + 2**13) // 2
    with pytest.raises(TooLargeError, match="p = 27 describes vectors of 2147483648 bytes, over the MAX_DENSE_BYTES"):
        dof_count(27, ["bitshift"])
    for p in (2.5, "3", True, 0, np.bool_(True)):
        with pytest.raises(BadParamsError, match="site count"):
            dof_count(p, ["bitshift"])
    # numpy's integers are site counts (numpy registers them as numbers.Integral)
    assert dof_count(np.int64(16), ["bitshift"]) == dof_count(16, ["bitshift"])


def test_dof_count_builds_no_index_arrays():
    tracemalloc.start()
    try:
        dof_count(20, ["bitshift", "bitflip", "reverse"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("p", range(1, 15))
def test_dof_matches_group_closure(p):
    kinds = ("bitshift", "bitflip", "reverse")
    for r in (1, 2, 3):
        for subset in itertools.combinations(kinds, r):
            counts = dof_count(p, subset).counts
            for name, count in counts.items():
                group = subset if name == "combined" else (name,)
                assert count == group_orbit_count(p, group), (p, subset, name)


# ------------------------------------------------------------------ bitshift

def test_ti_construct_all_ones():
    m = MPSState([(np.array([[1.0]]), np.array([[1.0]]))] * 3, boundary="periodic")
    out = ti_construct(m)
    assert np.allclose(to_vector(out), np.ones(8))


def test_ti_construct_ghz(rng):
    x = ghz(4)
    out = ti_construct(from_vector(x))
    assert np.linalg.norm(to_vector(out) - x) < 1e-12


def test_ti_construct_roundtrip_and_growth(rng):
    x = symmetrize_shift(rand_vec(rng, 5))
    m = from_vector(x)
    out = ti_construct(m)
    assert np.linalg.norm(to_vector(out) - x) < 1e-12 * np.linalg.norm(x)
    assert set(out.dims) == {5 * max(m.dims)}
    assert verify_relation(out, SymmetryWitness(kind="bitshift")).max_residual == 0.0


def test_ti_construct_guards_its_output():
    # open p = 16, bond 1024: the output repeats one site of bond dimension
    # 16 * 1024, 8.6 GB, so the guard must refuse before the symmetry check
    inner = np.zeros((2, 1024, 1024), dtype=complex)
    sites = [np.zeros((2, 1, 1024), dtype=complex)] + [inner] * 14 + [np.zeros((2, 1024, 1), dtype=complex)]
    with pytest.raises(TooLargeError, match=r"8589934592 bytes.*MAX_DENSE_BYTES"):
        ti_construct(MPSState(sites, boundary="open"))


def test_ti_construct_holds_two_copies_of_its_distinct_sites(rng):
    # full-rank p = 8: bond 16, so the one distinct site is 16 * 2 * 128^2 bytes
    m = from_vector(symmetrize_shift(rand_vec(rng, 8)))
    tracemalloc.start()
    try:
        out = ti_construct(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    site = 16 * 2 * (8 * max(m.dims)) ** 2
    assert out.sites[0].nbytes == site and peak < 2.5 * site


def test_site_independent_chains_share_one_core(rng, monkeypatch):
    x = symmetrize_shift(rand_vec(rng, 6), r=2)
    out = ti_construct(from_vector(x), block_len=2)
    assert [id(s) for s in out.sites] == [id(out.sites[j % 2]) for j in range(6)]
    assert out.sites[0] is not out.sites[1] and not out.sites[0].flags.writeable
    state = fullbit_state(np.eye(2), 3)
    assert all(s is state.sites[0] for s in state.sites)
    # a site that is site 1's core needs no residual: frob is never called
    calls = []
    monkeypatch.setattr("symtt.symmetry.frob", lambda a: calls.append(a) or frob(a))
    assert verify_relation(out, SymmetryWitness(kind="bitshift", block_len=2)).site_residuals == (0.0,) * 6
    assert calls == []
    # equal sites held as separate copies get their (zero) residuals computed
    copies = MPSState([np.array(out.sites[j % 2]) for j in range(6)], boundary="periodic")
    assert verify_relation(copies, SymmetryWitness(kind="bitshift", block_len=2)).site_residuals == (0.0,) * 6
    assert len(calls) == 2 * 4  # sites 3..6, two matrices each


def test_ti_construct_rejects_asymmetric(rng):
    with pytest.raises(SymmetryMismatchError, match=r"^vector is not invariant under the cyclic bit shift \(within EPS_SYM\)$"):
        ti_construct(from_vector(rand_vec(rng, 4)))


def test_ti_construct_block_shift(rng):
    x = symmetrize_shift(rand_vec(rng, 6), r=2)
    m = from_vector(x)
    out = ti_construct(m, block_len=2)
    assert np.linalg.norm(to_vector(out) - x) < 1e-12 * np.linalg.norm(x)
    rep = verify_relation(out, SymmetryWitness(kind="bitshift", block_len=2))
    assert rep.max_residual == 0.0


def test_ti_normal_form_diagonal_noop():
    a0 = np.diag([2.0, 5.0]).astype(complex)
    a1 = random_complex(np.random.default_rng(0), 2, 2)
    nf0, nf1 = ti_normal_form(a0, a1)
    assert np.allclose(sorted(np.diag(nf0).real), [2, 5])
    assert frob(np.tril(nf0, -1)) < 1e-12


def test_ti_normal_form_pauli_pair():
    nf0, nf1 = ti_normal_form(pauli("x"), np.eye(2))
    assert np.allclose(sorted(np.diag(nf0).real), [-1, 1])
    assert np.allclose(nf1, np.eye(2))


def test_hermitian_checks_do_not_depend_on_scale():
    # [[1, 2], [0, 1]] times 2^k is not Hermitian at any scale, also where
    # ||a - a^H||_F is subnormal: fullbit_state refuses it, and
    # ti_normal_form takes the Schur branch, whose triangular nf0 keeps the
    # eigenvalues 2^k (1, 1)
    upper = np.array([[1.0, 2.0], [0.0, 1.0]])
    for k in SCALES:
        a = scaled(upper, k)
        with pytest.raises(NotHermitianError):
            fullbit_state(a, 3)
        nf0, _ = ti_normal_form(a, np.eye(2))
        assert not np.tril(nf0, -1).any(), k
        assert np.array_equal(np.diag(nf0), scaled(np.ones(2, dtype=complex), k)), k


def test_hermitian_symmetrizations_are_exact_at_every_scale():
    # both forms symmetrize at unit scale and scale back by a power of two:
    # near float64's largest, a + a^H would overflow these finite entries
    nf0, nf1 = ti_normal_form(np.diag([1e308, 1.7e308]), np.eye(2))
    assert np.allclose(nf0, np.diag([1e308, 1.7e308]), rtol=1e-15, atol=0)
    assert np.allclose(nf1, np.eye(2), rtol=0, atol=1e-15)
    x = np.array([1e308, 1e308])
    nf = reverse_normal_form(x)
    assert np.allclose(nf.sigma, [2**0.5 * 1e308], rtol=1e-15, atol=0)
    assert np.allclose(nf.to_vector(), x, rtol=1e-15, atol=0)
    # and odd integers times 2^k keep every bit, subnormal ones included
    # (halving before the sum would drop their last bit)
    for k in SCALES + (-1074,):
        a = scaled(np.diag([1.0, 3.0]), k)
        nf0, nf1 = ti_normal_form(a, np.eye(2))
        assert np.array_equal(nf0, a) and np.array_equal(nf1, np.eye(2)), k
    for x in ([3.0, 3.0], [3.0, 1.0, 1.0, 3.0], [1.0, 1.0]):
        base = reverse_normal_form(np.array(x))
        for k in SCALES + (-1074,):
            nf = reverse_normal_form(scaled(np.array(x), k))
            assert np.all(nf.sigma != 0) and np.array_equal(nf.sigma, np.ldexp(base.sigma, k)), (x, k)
            assert all(np.array_equal(u, w) for u, w in zip(nf.us, base.us, strict=True)), (x, k)


def test_ti_normal_form_preserves_vector(rng):
    a0 = random_hermitian(rng, 4)
    a1 = random_hermitian(rng, 4)
    p = 4
    before = to_vector(MPSState([(a0, a1)] * p, boundary="periodic"))
    nf0, nf1 = ti_normal_form(a0, a1)
    after = to_vector(MPSState([(nf0, nf1)] * p, boundary="periodic"))
    assert np.linalg.norm(after - before) < 1e-12 * np.linalg.norm(before)
    assert np.max(np.abs(np.diag(nf0).imag)) < 1e-12
    assert frob(nf0 - np.diag(np.diag(nf0))) < 1e-12
    assert frob(nf1 - dagger(nf1)) < 1e-12


def test_ti_chain_normal_form_checks_site_independence_relative_to_scale(rng):
    # a shared pair: the residual is exactly 0 and the vector is kept
    pair = (1e-12 * random_hermitian(rng, 3), 1e-12 * random_complex(rng, 3, 3))
    chain = MPSState([pair] * 4, boundary="periodic")
    out = ti_chain_normal_form(chain)
    x = to_vector(chain)
    assert out.boundary == "periodic" and out.p == 4
    assert np.linalg.norm(to_vector(out) - x) < 1e-10 * np.linalg.norm(x)
    # four different sites of norm ~1e-12 differ by less than EPS_SYM in
    # absolute terms, but by order one relative to the sites
    tiny = MPSState([1e-12 * random_complex(rng, 2, 3, 3) for _ in range(4)], boundary="periodic")
    with pytest.raises(SymmetryMismatchError, match="site-independent chain"):
        ti_chain_normal_form(tiny)


# ------------------------------------------------------------------- reverse

def test_reverse_construct_real_product_state():
    amps = np.array([0.6, 0.8])
    x = np.kron(np.kron(amps, amps), amps)
    out, wit = reverse_construct(from_vector(x))
    rep = verify_relation(out, wit)
    assert rep.max_residual < 1e-12
    assert max(rep.consistency_residuals) == 0.0


def test_reverse_construct_roundtrip(rng):
    x = symmetrize_reverse(rand_vec(rng, 4))
    m = from_vector(x)
    out, wit = reverse_construct(m)
    assert np.linalg.norm(to_vector(out) - x) < 1e-12 * np.linalg.norm(x)
    assert wit.matrices[-1].shape == (1, 1)
    for j in range(1, 4):
        assert out.dims[j] == 2 * m.dims[j]
    rep = verify_relation(out, wit)
    assert rep.max_residual < 1e-12


def test_reverse_construct_pbc_uniform(rng):
    # uniform-size periodic input with a reverse symmetric vector: every
    # witness is the block anti-identity swap, unitary and Hermitian
    d = 2
    s_mats = [_well_conditioned(rng, d, hermitian=True) for _ in range(4)]
    s_mats[2] = dagger(s_mats[0])
    a1 = (random_complex(rng, d, d), random_complex(rng, d, d))
    a2 = (random_complex(rng, d, d), random_complex(rng, d, d))
    a3 = tuple(s_mats[1] @ dagger(a) @ np.linalg.inv(s_mats[2]) for a in a2)
    a4 = tuple(s_mats[2] @ dagger(a) @ np.linalg.inv(s_mats[3]) for a in a1)
    m = MPSState([a1, a2, a3, a4], boundary="periodic")
    out, wit = reverse_construct(m)
    rep = verify_relation(out, wit)
    assert rep.max_residual < 1e-12
    for s in wit.matrices:
        assert np.array_equal(s @ s, np.eye(s.shape[0]))
        assert frob(s - dagger(s)) == 0


def test_reverse_construct_rejects(rng):
    with pytest.raises(SymmetryMismatchError, match=r"^vector is not reverse symmetric \(within EPS_SYM\)$"):
        reverse_construct(from_vector(rand_vec(rng, 4)))


def test_reverse_normal_form_p2():
    x = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    nf = reverse_normal_form(x)
    u = nf.us[0]
    assert u.shape == (2, 2)
    assert frob(dagger(u) @ u - np.eye(2)) < 1e-12
    assert np.max(np.abs(nf.sigma.imag)) == 0 if np.iscomplexobj(nf.sigma) else True
    assert np.linalg.norm(nf.to_vector() - x) < 1e-12


def test_reverse_normal_form_separable():
    amps = np.array([0.28, 0.96])
    x = np.kron(np.kron(np.kron(amps, amps), amps), amps)
    nf = reverse_normal_form(x)
    assert np.linalg.norm(nf.to_vector() - x) < 1e-12


def test_reverse_normal_form_random(rng):
    for p in (3, 4, 5):
        x = symmetrize_reverse(rand_vec(rng, p))
        nf = reverse_normal_form(x)
        assert np.linalg.norm(nf.to_vector() - x) < 1e-10 * np.linalg.norm(x)
        for u in nf.us:
            assert frob(dagger(u) @ u - np.eye(u.shape[1])) < 1e-12
        assert nf.sigma.dtype.kind == "f"
        assert nf.lam.dtype.kind == "f"


def reverse_formula_vector(nf):
    """Oracle: the ReverseNormalForm docstring formula, one index at a time."""
    p, half = nf.p, nf.p // 2
    sig = np.diag(nf.sigma.astype(complex))
    lam = np.diag(nf.lam.astype(complex))
    out = np.empty(2**p, dtype=complex)
    for idx in range(2**p):
        bits = [(idx >> (p - 1 - k)) & 1 for k in range(p)]
        mat = np.eye(nf.us[0].shape[0] // 2, dtype=complex)
        for j in range(half):
            mat = mat @ nf.factor(j, bits[j])
        if p % 2:
            mat = mat @ nf.factor(half, bits[half])
        mat = mat @ sig
        for j in range(half - 1, -1, -1):
            mat = mat @ dagger(nf.factor(j, bits[p - 1 - j]))
        out[idx] = np.trace(mat @ lam)
    return out


def test_reverse_normal_form_vector_matches_formula(rng):
    for p in range(1, 9):
        nf = reverse_normal_form(symmetrize_reverse(rand_vec(rng, p)))
        want = reverse_formula_vector(nf)
        assert nf.state().p == p
        assert np.linalg.norm(nf.to_vector() - want) <= 1e-12 * np.linalg.norm(want)


def test_reverse_normal_form_refusals(rng):
    with pytest.raises(SymmetryMismatchError, match=r"^vector is not reverse symmetric \(within EPS_SYM\)$"):
        reverse_normal_form(rand_vec(rng, 4))
    with pytest.raises(ZeroVectorError, match=r"^vector must be nonzero, of length 2\^p with p >= 1$"):
        reverse_normal_form(np.zeros(8))
    with pytest.raises(ShapeMismatchError):
        reverse_normal_form(np.ones(3))


def test_reverse_normal_form_accepts_symmetry_within_eps_sym(rng):
    # a reverse residual of 1e-11 relative passes EPS_SYM but not eigh's own
    # 1e-12 Hermiticity check, so the half-split matrix must be made Hermitian
    for p in (6, 7):
        x = symmetrize_reverse(rand_vec(rng, p))
        noise = rand_vec(rng, p)
        x = x + 1e-11 * np.linalg.norm(x) / np.linalg.norm(noise) * noise
        assert 0.5e-11 * np.linalg.norm(x) < np.linalg.norm(x - np.conj(bit_reversed(x))) <= EPS_SYM * np.linalg.norm(x)
        nf = reverse_normal_form(x)
        assert np.linalg.norm(nf.to_vector() - x) <= 1e-10 * np.linalg.norm(x)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.booleans(), st.integers(0, 2**32 - 1))
def test_reverse_normal_form_property(p, real, seed):
    """Reconstruction, square unitary site factors, and |Sigma| equal to the
    singular values of the half-chain split of x."""
    rng = np.random.default_rng(seed)
    x = symmetrize_reverse(rand_vec(rng, p))
    if real:
        x = x.real.copy()
    scale = np.linalg.norm(x)
    nf = reverse_normal_form(x)
    assert np.linalg.norm(nf.to_vector() - x) <= 1e-12 * scale
    m = p // 2
    assert len(nf.us) == m + p % 2
    for j, u in enumerate(nf.us):
        if j < m:
            assert u.shape == (2 ** (j + 1), 2 ** (j + 1))
        assert frob(dagger(u) @ u - np.eye(u.shape[1])) <= 1e-12
    want = np.linalg.svd(x.reshape(2**m, -1), compute_uv=False)
    got = np.sort(np.abs(nf.sigma))[::-1]
    padded = np.zeros(len(got))
    padded[: len(want)] = want
    assert np.max(np.abs(got - padded)) <= 1e-12 * scale


def test_reverse_normal_form_peak_is_within_its_guard(rng):
    # a real input, whose complex copy the path also holds, at even and odd p,
    # in range and at a scale where the path works on a scaled copy
    for p, k in ((14, 0), (15, 0), (14, 1000)):
        x = scaled(symmetrize_reverse(rand_vec(rng, p)).real, k)
        tracemalloc.start()
        try:
            reverse_normal_form(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= symmetry._REVERSE_NF_ARRAYS * 16 * 2**p


def test_reverse_normal_form_guards_its_reconstruction(rng, monkeypatch):
    # with the limit at the bytes the form guards, the contraction of its
    # reconstruction is never refused: the form's guard always trips first
    for p in range(1, 15):
        x = symmetrize_reverse(rand_vec(rng, p))
        monkeypatch.setattr(errors, "MAX_DENSE_BYTES", symmetry._REVERSE_NF_ARRAYS * 16 * 2**p)
        nf = reverse_normal_form(x)
        assert np.linalg.norm(nf.to_vector() - x) <= 1e-12 * np.linalg.norm(x)


def test_constructs_guard_their_invariance_test(monkeypatch):
    # a bond-1 chain's contraction is guarded at two 2^p-vectors, its
    # invariance test at _INVARIANCE_ARRAYS of them
    m = MPSState([np.ones((2, 1, 1))] * 6, boundary="open")
    nbytes = symmetry._INVARIANCE_ARRAYS * 16 * 2**6
    monkeypatch.setattr(errors, "MAX_DENSE_BYTES", nbytes - 1)
    for construct in (ti_construct, reverse_construct, bitflip_construct):
        with pytest.raises(TooLargeError, match=rf"^the invariance test at p = 6 needs {nbytes} bytes, over"):
            construct(m)


def test_invariance_test_peak_is_within_its_guard():
    # bond-1 chains whose vector, all ones, has every symmetry
    for p in (14, 16):
        m = MPSState([np.ones((2, 1, 1))] * p, boundary="open")
        for construct in (ti_construct, reverse_construct, bitflip_construct):
            tracemalloc.start()
            try:
                construct(m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= symmetry._INVARIANCE_ARRAYS * 16 * 2**p, (p, construct)


# ------------------------------------------------------------------- bitflip

def test_bitflip_construct_ghz_exact():
    x = ghz(4)
    out, wit = bitflip_construct(from_vector(x), sign=1)
    rep = verify_relation(out, wit)
    assert rep.max_residual < 1e-15
    for u in wit.matrices:
        assert np.array_equal(u @ u, np.eye(u.shape[0]))
        assert set(np.unique(u.real)) <= {0.0, 1.0}


def test_bitflip_construct_roundtrip(rng):
    x = symmetrize_flip(rand_vec(rng, 4), 1)
    m = from_vector(x)
    out, wit = bitflip_construct(m, sign=1)
    assert np.linalg.norm(to_vector(out) - x) < 1e-12 * np.linalg.norm(x)
    for j in range(1, 4):
        assert out.dims[j] == 2 * m.dims[j]


def test_bitflip_construct_skew(rng):
    x = np.zeros(16)
    x[0], x[-1] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    out, wit = bitflip_construct(from_vector(x), sign=-1)
    y = to_vector(out)
    assert np.linalg.norm(y - x) < 1e-12
    assert np.linalg.norm(y[::-1] + y) < 1e-12
    assert verify_relation(out, wit).max_residual < 1e-14


def test_bitflip_construct_sign_mismatch(rng):
    x = symmetrize_flip(rand_vec(rng, 4), 1)
    with pytest.raises(SymmetryMismatchError, match=r"^vector does not satisfy J x = -1 x \(within EPS_SYM\)$"):
        bitflip_construct(from_vector(x), sign=-1)


def test_bitflip_normal_form_swap_witness():
    u = np.zeros((4, 4), complex)
    u[:2, 2:] = np.eye(2)
    u[2:, :2] = np.eye(2)
    from symtt.symmetry import _involution_eigenbasis

    d, s = _involution_eigenbasis(u, 1e-9)
    assert np.allclose(np.diag(d), [1, 1, -1, -1])
    assert frob(np.linalg.inv(s) @ d @ s - u) < 1e-12


def _conjugated(m, wit, rng):
    """The chain of sites S_j A_j S_{j+1}^-1 and witnesses S_j U_j S_j^-1,
    S_j invertible and not unitary (S_{p+1} = S_1): the same vector and
    relations, but non-Hermitian witnesses."""
    s = [np.eye(len(u)) + 0.3 * random_complex(rng, len(u), len(u)) for u in wit.matrices]
    inv = [np.linalg.inv(x) for x in s]
    sites = [(s[j] @ a0 @ inv[(j + 1) % m.p], s[j] @ a1 @ inv[(j + 1) % m.p]) for j, (a0, a1) in enumerate(m.sites)]
    return MPSState(sites, boundary=m.boundary), SymmetryWitness(kind="bitflip", sign=wit.sign,
                                                                 matrices=tuple(x @ u @ y for x, u, y in zip(s, wit.matrices, inv)))


def test_bitflip_normal_form_roundtrip(rng):
    # the constructed chain, whose witnesses are Hermitian, and a conjugated
    # copy of it, whose witnesses are not
    for sign, conjugate in ((1, False), (-1, False), (1, True), (-1, True)):
        x = symmetrize_flip(rand_vec(rng, 4), sign)
        out, wit = bitflip_construct(from_vector(x), sign=sign)
        if conjugate:
            out, wit = _conjugated(out, wit, rng)
            assert all(frob(u - dagger(u)) > 0.1 for u in wit.matrices if len(u) > 1)
        nf, dwit = bitflip_normal_form(out, wit)
        assert np.linalg.norm(to_vector(nf) - x) < 1e-12 * np.linalg.norm(x)
        rep = verify_relation(nf, dwit)
        assert rep.max_residual < 1e-10
        for d in dwit.matrices:
            assert frob(d - np.diag(np.diag(d))) == 0.0
            assert set(np.round(np.diag(d).real, 12)) <= {1.0, -1.0}


def test_bitflip_normal_form_identity_witness(rng):
    x = symmetrize_flip(rand_vec(rng, 3), 1)
    m, _ = bitflip_construct(from_vector(x), sign=1)
    # U_j = I is a witness only when A0 == A1; use the diagonal-part identity:
    # the identity witness on a state with equal pairs
    sites = [(a0, a0) for a0, _ in m.sites]
    mm = MPSState(sites, boundary="open")
    wit = SymmetryWitness(kind="bitflip", matrices=tuple(np.eye(d, dtype=complex) for d in mm.dims[:-1]))
    nf, dwit = bitflip_normal_form(mm, wit)
    for d in dwit.matrices:
        assert np.allclose(d, np.eye(d.shape[0]))
    assert np.linalg.norm(to_vector(nf) - to_vector(mm)) < 1e-12 * np.linalg.norm(to_vector(mm))


def test_bitflip_normal_form_rejects_non_involution(rng):
    x = symmetrize_flip(rand_vec(rng, 3), 1)
    out, wit = bitflip_construct(from_vector(x), sign=1)
    bad = list(wit.matrices)
    bad[1] = bad[1] + 0.5 * np.eye(bad[1].shape[0])
    from symtt.errors import WitnessViolationError

    with pytest.raises((NotDiagonalizableError, WitnessViolationError)):
        bitflip_normal_form(out, SymmetryWitness(kind="bitflip", matrices=tuple(bad)))


def test_heuristic_exchange_witness_reports_residual(rng):
    x = symmetrize_flip(rand_vec(rng, 4), 1)
    out, _ = bitflip_construct(from_vector(x), sign=1)
    wit = heuristic_bitflip_witness(out)
    assert wit.heuristic
    rep = verify_relation(out, wit)
    assert np.isfinite(rep.max_residual)


# ------------------------------------------------------------------- fullbit

def test_fullbit_identity():
    lam, b = fullbit_normal_form(np.eye(2))
    assert np.allclose(lam, np.eye(2))
    assert np.allclose(b, np.eye(2))
    x = to_vector(fullbit_state(np.eye(2), 3))
    assert np.allclose(x, 2 * np.ones(8))


def test_fullbit_pz_flags():
    x = to_vector(fullbit_state(pauli("z"), 3))
    kinds = detect_vector_symmetries(x)
    assert {"bitshift", "bitflip+", "reverse"} <= kinds
    # p = 4 gives a nonzero vector with the same three symmetries
    x4 = to_vector(fullbit_state(pauli("z"), 4))
    assert np.linalg.norm(x4) > 0.5
    kinds4 = detect_vector_symmetries(x4)
    assert {"bitshift", "bitflip+", "reverse"} <= kinds4


def test_fullbit_normal_form_invariance(rng):
    a = random_hermitian(rng, 3)
    lam, b = fullbit_normal_form(a)
    assert frob(b - dagger(b)) < 1e-12
    before = to_vector(fullbit_state(a, 4))
    after = to_vector(MPSState([(lam, b)] * 4, boundary="periodic"))
    assert np.linalg.norm(after - before) < 1e-12 * max(np.linalg.norm(before), 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_fullbit_reversal_equals_exchange_products(rng, n):
    a = random_hermitian(rng, n)
    j = exchange_matrix(n)
    for site in fullbit_state(a, 3).sites:
        assert np.array_equal(site[0], a) and np.array_equal(site[1], j @ a @ j)
    w, v = eigh(a)
    lam, b = fullbit_normal_form(a)
    assert np.array_equal(lam, np.diag(w)) and np.array_equal(b, dagger(v) @ (j @ a @ j) @ v)
    # a chain that breaks every fullbit relation, so each residual is nonzero
    chain = MPSState([(random_hermitian(rng, n), random_complex(rng, n, n)) for _ in range(3)], boundary="periodic")
    a0, a1 = chain.sites[0]
    want = tuple(max(frob(b0 - a0), frob(b1 - a1), frob(b1 - j @ b0 @ j)) for b0, b1 in chain.sites)
    rep = verify_relation(chain, SymmetryWitness(kind="fullbit"))
    assert rep.site_residuals == want and rep.consistency_residuals == (frob(a0 - dagger(a0)),)


@pytest.mark.parametrize("p", [0, -1, 2.5, 2.0, True, "3", None])
def test_fullbit_state_rejects_bad_site_count(p):
    with pytest.raises(BadParamsError, match="site count p must be an int >= 1"):
        fullbit_state(np.eye(2), p)


# ---------------------------------------------------- first / last site

def test_firstsite_basis_vector():
    b = np.eye(4)[0]
    x = to_vector(firstsite_construct(b, 1))
    assert np.allclose(x, np.concatenate([b, b]))


def test_firstsite_random(rng):
    b = rand_vec(rng, 3)
    x = to_vector(firstsite_construct(b, -1))
    assert np.linalg.norm(x - np.concatenate([b, -b])) < 1e-12 * np.linalg.norm(b)
    m = firstsite_construct(b, -1)
    assert verify_relation(m, SymmetryWitness(kind="firstsite", sign=-1)).max_residual == 0.0


def test_lastsite_random(rng):
    b = rand_vec(rng, 3)
    for sign in (1, -1):
        x = to_vector(lastsite_construct(b, sign))
        want = np.empty(16, complex)
        want[0::2], want[1::2] = b, sign * b
        assert np.linalg.norm(x - want) < 1e-12 * np.linalg.norm(b)
        m = lastsite_construct(b, sign)
        assert verify_relation(m, SymmetryWitness(kind="lastsite", sign=sign)).max_residual == 0.0
        assert verify_relation(m, SymmetryWitness(kind="lastsite", sign=-sign)).max_residual > 0.1


# -------------------------------------------------------------- verification

def test_verify_relation_perturbation(rng):
    x = symmetrize_flip(rand_vec(rng, 4), 1)
    out, wit = bitflip_construct(from_vector(x), sign=1)
    sites = [list(p) for p in out.sites]
    noise = 1e-3 * np.ones_like(sites[1][0])
    sites[1][0] = sites[1][0] + noise
    perturbed = MPSState([tuple(s) for s in sites], boundary="open")
    rep = verify_relation(perturbed, wit)
    assert rep.max_residual >= 1e-4


def test_verify_relation_ti_state():
    pair = (np.array([[0.3, 0.1], [0.0, 0.7]], dtype=complex), np.eye(2, dtype=complex))
    m = MPSState([pair] * 4, boundary="periodic")
    assert verify_relation(m, SymmetryWitness(kind="bitshift")).max_residual < 1e-15


# -------------------------------------------------- forward symmetry theorems

def test_ti_implies_shift_symmetry(rng):
    for _ in range(5):
        m = MPSState([(random_complex(rng, 3, 3), random_complex(rng, 3, 3))] * 5, boundary="periodic")
        x = to_vector(m)
        for r in range(1, 5):
            assert np.linalg.norm(x - shifted(x, r)) < 1e-12 * np.linalg.norm(x)


def _well_conditioned(rng, n, hermitian=False):
    while True:
        cand = random_complex(rng, n, n)
        if hermitian:
            cand = 0.5 * (cand + dagger(cand)) + 2 * np.eye(n)
        if np.linalg.cond(cand) < 50:
            return cand


def test_reverse_relations_imply_reverse_symmetry(rng):
    # relation-satisfying PBC chain at p=4, bonds (2, 3, 4, 3, 2): the first
    # half of the sites is free, the second half is mirrored through the
    # witnesses, whose consistency fixes S_3 = S_1^H and makes S_2, S_4
    # Hermitian
    p = 4
    d1, d2, d3 = 2, 3, 4
    s1 = _well_conditioned(rng, d2)
    s2 = _well_conditioned(rng, d3, hermitian=True)
    s3 = dagger(s1)
    s4 = _well_conditioned(rng, d1, hermitian=True)
    s = [s1, s2, s3, s4]
    a1 = (random_complex(rng, d1, d2), random_complex(rng, d1, d2))
    a2 = (random_complex(rng, d2, d3), random_complex(rng, d2, d3))
    a3 = tuple(s2 @ dagger(a) @ np.linalg.inv(s3) for a in a2)
    a4 = tuple(s3 @ dagger(a) @ np.linalg.inv(s4) for a in a1)
    m = MPSState([a1, a2, a3, a4], boundary="periodic")
    wit = SymmetryWitness(kind="reverse", matrices=tuple(s))
    rep = verify_relation(m, wit)
    assert rep.max_residual < 1e-10
    assert max(rep.consistency_residuals) < 1e-12
    x = to_vector(m)
    assert np.linalg.norm(x - np.conj(bit_reversed(x))) < 1e-10 * np.linalg.norm(x)


def test_involution_relations_imply_flip_symmetry(rng):
    p = 5
    d = 3
    us = []
    for _ in range(p):
        q = np.linalg.qr(random_complex(rng, d, d))[0]
        sign_diag = np.diag(np.where(rng.standard_normal(d) > 0, 1.0, -1.0))
        us.append(q @ sign_diag @ dagger(q))
    sites = []
    for j in range(p):
        a0 = random_complex(rng, d, d)
        a1 = us[j] @ a0 @ us[(j + 1) % p]
        sites.append((a0, a1))
    m = MPSState(sites, boundary="periodic")
    x = to_vector(m)
    assert np.linalg.norm(x[::-1] - x) < 1e-12 * np.linalg.norm(x)
    wit = SymmetryWitness(kind="bitflip", matrices=tuple(us))
    assert verify_relation(m, wit).max_residual < 1e-12


def test_ti_involution_ansatz_never_skew(rng):
    # site-independent involution relations force J x = +x
    for _ in range(10):
        d = 3
        q = np.linalg.qr(random_complex(rng, d, d))[0]
        u = q @ np.diag(np.where(rng.standard_normal(d) > 0, 1.0, -1.0)) @ dagger(q)
        a0 = random_complex(rng, d, d)
        m = MPSState([(a0, u @ a0 @ u)] * 4, boundary="periodic")
        x = to_vector(m)
        assert np.linalg.norm(x[::-1] - x) < 1e-12 * np.linalg.norm(x)
        assert np.linalg.norm(x[::-1] + x) > 1e-6 * np.linalg.norm(x)


def test_ti_reverse_hermitian_form(rng):
    # TI chain with Hermitian site-independent witness: A^(i) S is Hermitian
    d = 3
    s = random_hermitian(rng, d) + 4 * np.eye(d)
    h0 = random_hermitian(rng, d)
    h1 = random_hermitian(rng, d)
    s_inv = np.linalg.inv(s)
    a0, a1 = h0 @ s_inv, h1 @ s_inv
    for a in (a0, a1):
        assert frob(dagger(a) - s_inv @ a @ s) < 1e-10
        assert frob(a @ s - dagger(a @ s)) < 1e-10
    m = MPSState([(a0, a1)] * 4, boundary="periodic")
    x = to_vector(m)
    assert np.linalg.norm(x - np.conj(bit_reversed(x))) < 1e-10 * np.linalg.norm(x)


# ------------------------------------------------- the paper's chain, end to end

@pytest.mark.parametrize("name", TABLE_MODELS)
def test_ground_state_symmetries_construct_and_verify(name):
    # ground vector -> chain -> detected symmetries -> each matching construct,
    # whose site relations must hold and whose vector must be the ground vector
    built = set()
    for params, boundary, p in itertools.product(
        ({}, {"jx": 1.0, "jy": 0.5, "jz": 0.3, "lam": 0.7}), ("open", "periodic"), range(2, 9)
    ):
        rep = ground_state(model(name, p, params, boundary=boundary))
        if rep.gap <= 1e-8:
            continue
        x = rep.ground_vector
        m = from_vector(x)
        for kind in sorted(detect_vector_symmetries(to_vector(m))):
            if kind in ("bitflip+", "bitflip-"):
                out, wit = bitflip_construct(m, sign=1 if kind == "bitflip+" else -1)
            elif kind == "reverse":
                out, wit = reverse_construct(m)
            elif kind == "bitshift" and boundary == "periodic":
                out, wit = ti_construct(m), SymmetryWitness(kind="bitshift")
            else:
                continue
            case = f"{name} {params} {boundary} p={p} {kind}"
            assert verify_relation(out, wit).max_residual <= EPS_SYM * symmetry._state_scale(out), case
            assert np.linalg.norm(to_vector(out) - x) <= 1e-10, case
            built.add(wit.kind)
            # the matching normal form keeps the ground vector too
            if wit.kind == "reverse":
                normal = reverse_normal_form(x).to_vector()
            elif wit.kind == "bitflip":
                nf, diag = bitflip_normal_form(out, wit)
                assert verify_relation(nf, diag).max_residual <= EPS_SYM * symmetry._state_scale(nf), case
                normal = to_vector(nf)
            else:
                normal = to_vector(ti_chain_normal_form(out))
            assert np.linalg.norm(normal - x) <= 1e-10, case
    assert built == {"bitflip", "reverse", "bitshift"}
