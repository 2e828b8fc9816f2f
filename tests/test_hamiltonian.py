import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symtt import (
    anisotropic_xy_transform,
    assemble,
    certify_structure,
    classify,
    closed_form_hx_spectrum,
    eigh,
    fourier_conjugate,
    ground_state,
    kron,
    model,
    pauli,
    spin1,
)
from symtt import hamiltonian, linalg, symmetry
from symtt.errors import BadParamsError, NotHermitianError, ResidualError, ShapeMismatchError, TooLargeError, UnknownModelError, UnknownNameError, ZeroSiteError
from symtt.hamiltonian import MODEL_NAMES, TABLE_MODELS, HamiltonianSpec, LocalTermSpec, _nonzeros, _Sectors, _solve_sectors
from symtt.linalg import EPS_LIN, EighResult, dagger, fourier_matrix, frob

from conftest import SCALES, dense_reference, kron_chain, random_complex


def test_pauli_entries():
    assert np.array_equal(pauli("x"), [[0, 1], [1, 0]])
    assert np.array_equal(pauli("y"), [[0, -1j], [1j, 0]])
    assert np.array_equal(pauli("z"), [[1, 0], [0, -1]])
    assert np.array_equal(pauli("i"), np.eye(2))
    with pytest.raises(UnknownNameError):
        pauli("q")


def test_spin1_entries():
    s = 1 / np.sqrt(2)
    assert np.array_equal(spin1("z"), np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(spin1("x"), s * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    casimir = spin1("x") @ spin1("x") + spin1("y") @ spin1("y") + spin1("z") @ spin1("z")
    assert np.allclose(casimir, 2 * np.eye(3))
    with pytest.raises(UnknownNameError):
        spin1("w")


def test_assemble_ising_p2():
    h = assemble(model("ising_zz", 2, {"lam": 0.0}, "open"))
    assert np.allclose(h, np.diag([1.0, -1.0, -1.0, 1.0]))


def test_assemble_single_site():
    assert np.array_equal(assemble(model("hx", 1)), pauli("x"))


def test_assemble_heisenberg_xxx_p2():
    h = assemble(model("heis_xxx", 2, {"jx": 1.0, "lam": 0.0}, "open"))
    want = np.array([[1, 0, 0, 0], [0, -1, 2, 0], [0, 2, -1, 0], [0, 0, 0, 1]], dtype=complex)
    assert np.allclose(h, want)
    # independent Kronecker-sum oracle
    direct = sum(kron(pauli(c), pauli(c)) for c in "xyz")
    assert np.allclose(h, direct)


def test_model_term_counts():
    assert len(model("ising_zz", 4, {"lam": 1.0}, "open").terms) == 3 + 4
    assert len(model("hxx", 4, boundary="periodic").terms) == 4
    assert len(model("hxx", 4, boundary="open").terms) == 3
    assert len(model("aklt", 3, boundary="open").terms) == 2 * (3 + 9)
    assert len(model("heis_xyz", 5, boundary="periodic").terms) == 3 * 5 + 5


#: every model from the physics, independent of the library's table: a
#: spin-1/2 model is its nearest-neighbour bond sums, each sum_<kl> J s_k s_l
#: with one Pauli s on both sites and coupling J, then its field
#: lam sum_k s_k (Pauli, default lam), or None; the spin-1 models add, per
#: bond, the bilinear S.S and the biquadratic (S.S)^2 sums
_SPIN_HALF = {
    "ising_zz": ([("z", "jz")], ("x", 0.0)),
    "heis_xx": ([("x", "jx"), ("y", "jx")], ("x", 0.0)),
    "heis_xy": ([("x", "jx"), ("y", "jy")], ("x", 0.0)),
    "heis_xz": ([("x", "jx"), ("z", "jz")], ("x", 0.0)),
    "heis_xxx": ([("x", "jx"), ("y", "jx"), ("z", "jx")], ("x", 0.0)),
    "heis_xxz": ([("x", "jx"), ("y", "jx"), ("z", "jz")], ("x", 0.0)),
    "heis_xyz": ([("x", "jx"), ("y", "jy"), ("z", "jz")], ("x", 0.0)),
    "hx": ([], ("x", 1.0)),
    "hy": ([], ("y", 1.0)),
    "hz": ([], ("z", 1.0)),
    "hxx": ([("x", "jx")], None),
    "hyy": ([("y", "jy")], None),
    "hzz": ([("z", "jz")], None),
}
_SIGMA = {"x": np.array([[0, 1], [1, 0]], dtype=complex), "y": np.array([[0, -1j], [1j, 0]]),
          "z": np.array([[1, 0], [0, -1]], dtype=complex)}
_S1 = [np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2),
       np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / np.sqrt(2),
       np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)]


def _expected_terms(name, p, boundary, params):
    """(coefficient, {site: operator}) of every term, in term order: for a
    spin-1/2 model every bond of each bond sum, then every site of the
    field; for a spin-1 model, per bond, its three bilinear and then its
    nine biquadratic terms.  A self-bond (the wrap-around bond of a 1-site
    ring) holds the product of its two operators."""
    params = params or {}
    bonds = [(k, k + 1) for k in range(p - 1)] + ([(0, p - 1)] if boundary == "periodic" else [])

    def bond(coeff, a, b, k, l):
        return (coeff, {k: a @ b} if k == l else {k: a, l: b})

    terms, d = [], 2
    if name in _SPIN_HALF:
        sums, fld = _SPIN_HALF[name]
        for axis, key in sums:
            terms += [bond(params.get(key, 1.0), _SIGMA[axis], _SIGMA[axis], k, l) for k, l in bonds]
        if fld:
            terms += [(params.get("lam", fld[1]), {k: _SIGMA[fld[0]]}) for k in range(p)]
    else:
        d, theta = 3, params.get("theta", 0.0)
        lin, quad = (1.0, 1.0 / 3.0) if name == "aklt" else (math.cos(theta), math.sin(theta))
        for k, l in bonds:
            if lin != 0.0:
                terms += [bond(lin, s, s, k, l) for s in _S1]
            if quad != 0.0:
                terms += [bond(quad, s @ t, s @ t, k, l) for s in _S1 for t in _S1]
    return terms or [(0.0, {0: np.zeros((d, d))})]


def test_model_terms_are_the_physics():
    # every model at p = 1, 2, 3 on both boundaries, at default and drawn
    # couplings: the same coefficients and operators on the same sites, in
    # the same order (which sets the bits of every sum over the terms)
    rng = np.random.default_rng(2013)
    assert set(MODEL_NAMES) == {*_SPIN_HALF, "aklt", "bilinear_biquadratic"}
    for name in MODEL_NAMES:
        for p in (1, 2, 3):
            for boundary in ("open", "periodic"):
                for params in (None, {key: float(rng.uniform(-2, 2)) for key in ("jx", "jy", "jz", "lam", "theta")}):
                    got, want = model(name, p, params, boundary).terms, _expected_terms(name, p, boundary, params)
                    assert len(got) == len(want), (name, p, boundary, params)
                    for term, (coeff, ops) in zip(got, want):
                        assert term.coeff == coeff, (name, p, boundary, params)
                        assert [k for k, f in enumerate(term.factors) if f is not None] == sorted(ops)
                        for k, op in ops.items():
                            assert np.array_equal(term.factors[k], op), (name, p, boundary, k)


def test_model_rejects_bad_input():
    with pytest.raises(UnknownModelError):
        model("nope", 3)
    with pytest.raises(BadParamsError):
        model("ising_zz", 3, {"bogus": 1.0})
    with pytest.raises(BadParamsError):
        model("ising_zz", 3, {"lam": float("nan")})


@pytest.mark.parametrize("p", [2.5, "3", True, 0])
def test_model_rejects_bad_site_count(p):
    with pytest.raises(BadParamsError, match="site count"):
        model("ising_zz", p)


def test_assemble_matches_dense_reference():
    # the nonzeros are exactly the reference's: sums that cancel to 0, such
    # as XX + YY on |00> <-> |11>, are dropped
    rng = np.random.default_rng(11)
    for name in MODEL_NAMES:
        d = model(name, 1).d
        for p in range(1, 7 if d == 2 else 6):
            for boundary in ("open", "periodic"):
                drawn = {key: float(rng.uniform(-2, 2)) for key in ("jx", "jy", "jz", "lam", "theta")}
                for params in (None, drawn):
                    spec = model(name, p, params, boundary)
                    h, want = assemble(spec), dense_reference(spec)
                    assert h.dtype == np.complex128
                    assert h.tobytes() == want.tobytes(), (name, p, boundary, params)
                    vals = _nonzeros(spec)[2]
                    assert np.all(vals != 0) and len(vals) == np.count_nonzero(want), (name, p, boundary, params)


@st.composite
def custom_specs(draw):
    """Term lists with d in {2, 3}, random identity (None) patterns, and
    complex or real factors holding exact zeros; all terms real, all
    complex, or a mix of both."""
    d = draw(st.sampled_from((2, 3)))
    p = draw(st.integers(1, 5 if d == 2 else 4))
    nones = draw(st.lists(st.lists(st.booleans(), min_size=p, max_size=p), min_size=1, max_size=4))
    kind = draw(st.sampled_from(("real", "complex", "mixed")))
    complexity = [kind == "complex" or (kind == "mixed" and draw(st.booleans())) for _ in nones]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = []
    for pattern, is_complex in zip(nones, complexity):
        factors = []
        for is_none in pattern:
            if is_none:
                factors.append(None)
                continue
            values = random_complex(rng, d, d) if is_complex else rng.standard_normal((d, d))
            # masked entries become signed zeros
            factors.append(values * (rng.random((d, d)) < 0.6))
        terms.append(LocalTermSpec(float(rng.standard_normal()), tuple(factors)))
    return HamiltonianSpec(p=p, d=d, boundary="open", terms=tuple(terms))


def single_nonzero_spec():
    """Both factors of the second term hold one complex nonzero, so the term
    has a single value; multiplied as a length-1 row, (0.1+0.1j)^2 rounds to
    exactly 0.02j, while np.kron's fused multiply leaves a real part of
    -8.3e-19 on machines with FMA."""
    a = np.zeros((2, 2), dtype=np.complex128)
    a[1, 0] = 0.1 + 0.1j
    b = np.zeros((2, 2), dtype=np.complex128)
    b[0, 1] = 0.1 + 0.1j
    z = pauli("z")
    return HamiltonianSpec(p=2, d=2, boundary="open", terms=(LocalTermSpec(1.0, (z, z)), LocalTermSpec(1.0, (a, b))))


def cancelling_imaginary_spec():
    """A real term and two complex ones whose imaginary parts cancel exactly:
    every sum is real, so the nonzeros come back float64."""
    a = np.array([[0, 1 + 1j], [1 - 1j, 0]])
    z = pauli("z")
    terms = (LocalTermSpec(1.0, (z, z)), LocalTermSpec(0.5, (a, None)), LocalTermSpec(0.5, (a.conj(), None)))
    return HamiltonianSpec(p=2, d=2, boundary="open", terms=terms)


@settings(max_examples=100, deadline=None)
@given(custom_specs())
@example(single_nonzero_spec())
def test_assemble_matches_dense_reference_property(spec):
    assert assemble(spec).tobytes() == dense_reference(spec).tobytes()


@settings(max_examples=100, deadline=None)
@given(custom_specs())
@example(cancelling_imaginary_spec())
def test_nonzeros_are_float64_exactly_when_every_sum_is_real(spec):
    want = dense_reference(spec)
    assert _nonzeros(spec)[2].dtype == (np.complex128 if want.imag.any() else np.float64)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_model_whose_entries_overflow_is_refused():
    """A per-entry sum past float64's range (two bonds on one pair of sites)
    or a coefficient times a factor past it is refused on every path, without
    a warning; so is an eigenvalue past it, from finite entries."""
    sum_overflows = model("ising_zz", 2, {"jz": 1e308}, "periodic")
    term_overflows = HamiltonianSpec(p=1, d=2, boundary="open", terms=(LocalTermSpec(1e308, (2 * pauli("x"),)),))
    paths = (_nonzeros, assemble, certify_structure, ground_state, lambda spec: _solve_sectors(spec, vector=False))
    for spec in (sum_overflows, term_overflows):
        for path in paths:
            with pytest.raises(BadParamsError, match="matrix entry of the model overflows float64"):
                path(spec)
    assert _nonzeros(model("ising_zz", 2, {"jz": 0.5e308}, "periodic"))[2].tolist() == [1e308, -1e308, -1e308, 1e308]
    for vector in (False, True):  # hx at p = 2 has the eigenvalues +-2e308
        with pytest.raises(BadParamsError, match="eigenvalue of the model overflows float64"):
            _solve_sectors(model("hx", 2, {"lam": 1e308}), vector=vector)


def test_assemble_guard():
    with pytest.raises(TooLargeError):
        assemble(model("hx", 21))
    # p = 14 needs 16 * 4^14 bytes = 4 GiB; the guard refuses before allocating
    with pytest.raises(TooLargeError, match=r"4294967296 bytes.*MAX_DENSE_BYTES guard of 1073741824 bytes"):
        assemble(model("hx", 14))
    with pytest.raises(TooLargeError, match="MAX_DENSE_BYTES"):
        assemble(model("aklt", 9))


def test_spec_rejects_bad_factors():
    x = pauli("x")
    with pytest.raises(ShapeMismatchError):
        HamiltonianSpec(p=2, d=2, boundary="open", terms=(LocalTermSpec(1.0, (spin1("x"), None)),))
    with pytest.raises(ShapeMismatchError):
        HamiltonianSpec(p=2, d=3, boundary="open", terms=(LocalTermSpec(1.0, (x, x)),))
    with pytest.raises(ShapeMismatchError):
        LocalTermSpec(1.0, (np.ones((2, 3)), None))
    with pytest.raises(ShapeMismatchError):
        LocalTermSpec(1.0, (np.ones(2), None))
    with pytest.raises(ShapeMismatchError):
        LocalTermSpec(1.0, (x, spin1("z")))
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.inf)):
        f = x.copy()
        f[0, 0] = bad
        with pytest.raises(BadParamsError):
            LocalTermSpec(1.0, (f, None))
    with pytest.raises(BadParamsError, match="numpy arrays"):
        LocalTermSpec(1.0, ([[0, 1], [1, 0]],))
    for p, d in ((0, 2), (1, 0), (-1, 2)):
        with pytest.raises(BadParamsError, match="p >= 1"):
            HamiltonianSpec(p=p, d=d, boundary="open", terms=(LocalTermSpec(1.0, (x,)),) if p == 1 else ())


def test_closed_form_spectrum_examples():
    assert np.array_equal(closed_form_hx_spectrum(3), [-3, -1, -1, -1, 1, 1, 1, 3])
    assert np.array_equal(closed_form_hx_spectrum(1, [5.0]), [-5, 5])


@pytest.mark.parametrize("build", [
    lambda: closed_form_hx_spectrum(2, [np.nan, 1.0]),
    lambda: closed_form_hx_spectrum(1, [np.inf]),
    lambda: anisotropic_xy_transform([np.nan], [1.0]),
    lambda: anisotropic_xy_transform([1.0, 2.0], [0.5, -np.inf]),
])
def test_site_weights_must_be_finite(build):
    with pytest.raises(BadParamsError, match="must be finite"):
        build()


def test_closed_form_matches_dense_eigh():
    r = [0.3, 1.1, 2.0]
    terms = []
    for k, rk in enumerate(r):
        fac = [None] * 3
        fac[k] = pauli("x")
        terms.append(LocalTermSpec(rk, tuple(fac)))
    h = assemble(HamiltonianSpec(p=3, d=2, boundary="open", terms=tuple(terms)))
    got = eigh(h).values
    want = closed_form_hx_spectrum(3, r)
    assert np.max(np.abs(got - want)) < 1e-10


def test_hx_spectrum_small_p():
    for p in (2, 3, 4, 5, 6):
        got = eigh(assemble(model("hx", p))).values
        assert np.max(np.abs(got - closed_form_hx_spectrum(p))) < 1e-10


def test_anisotropic_xy_transform_basics():
    d_list, r = anisotropic_xy_transform([1.0], [0.0])
    assert np.allclose(r, [1.0])
    assert np.allclose(d_list[0], np.eye(2))
    _, r = anisotropic_xy_transform([3.0], [4.0])
    assert np.allclose(r, [5.0])
    assert np.array_equal(closed_form_hx_spectrum(1, r), [-5, 5])
    with pytest.raises(ZeroSiteError):
        anisotropic_xy_transform([0.0, 1.0], [0.0, 1.0])


def _xy_field_hamiltonian(a, b):
    p = len(a)
    terms = []
    for k, (ak, bk) in enumerate(zip(a, b)):
        fac = [None] * p
        fac[k] = ak * pauli("x") + bk * pauli("y")
        terms.append(LocalTermSpec(1.0, tuple(fac)))
    return assemble(HamiltonianSpec(p=p, d=2, boundary="open", terms=tuple(terms)))


def test_anisotropic_xy_conjugation_oracle():
    a = [1.0, 0.5]
    b = [0.2, 2.0]
    han = _xy_field_hamiltonian(a, b)
    d_list, r = anisotropic_xy_transform(a, b)
    d = kron(d_list[0], d_list[1])
    target = _xy_field_hamiltonian(list(r), [0.0, 0.0])
    assert frob(dagger(d) @ han @ d - target) < 1e-12


def test_fourier_conjugate():
    assert frob(fourier_conjugate(assemble(model("hx", 2)), 2) - assemble(model("hz", 2))) < 1e-12
    assert frob(fourier_conjugate(assemble(model("hxx", 3)), 3) - assemble(model("hzz", 3))) < 1e-12
    assert frob(fourier_conjugate(np.eye(8), 3) - np.eye(8)) < 1e-12


@pytest.mark.parametrize("p", range(1, 9))
def test_fourier_conjugate_matches_kron_power(rng, p):
    # oracle: the dense p-fold Kronecker power of the 2 x 2 Fourier matrix
    h = random_complex(rng, 2**p, 2**p)
    keep = h.copy()
    f = kron_chain([fourier_matrix(2)] * p)
    assert frob(fourier_conjugate(h, p) - f @ h @ f) <= 1e-12 * frob(h)
    assert np.array_equal(h, keep)


@pytest.mark.parametrize("p", [0, -1, 2.5, 2.0, True, "3", None])
@pytest.mark.parametrize("call", [
    lambda p: closed_form_hx_spectrum(p),
    lambda p: fourier_conjugate(np.eye(2), p),
], ids=["closed_form_hx_spectrum", "fourier_conjugate"])
def test_site_count_must_be_a_positive_int(call, p):
    with pytest.raises(BadParamsError, match="site count p must be an int >= 1"):
        call(p)


def test_certify_structure_examples(rng):
    params = {"jx": float(rng.uniform(-1, 1)), "jy": float(rng.uniform(-1, 1)), "jz": float(rng.uniform(-1, 1)), "lam": float(rng.uniform(-1, 1))}
    flags = certify_structure(model("heis_xyz", 4, params, "open"))
    assert flags.symmetric and flags.persymmetric
    flags = certify_structure(model("hz", 3))
    assert flags.diagonal and flags.skew_persymmetric
    flags = certify_structure(model("hyy", 3))
    assert flags.symmetric and flags.persymmetric
    h = assemble(model("hyy", 3))
    assert np.max(np.abs(h.imag)) < 1e-12


def test_hy_structure():
    h = assemble(model("hy", 3))
    assert frob(h - dagger(h)) < 1e-12 * frob(h)
    assert np.max(np.abs(np.diag(h))) < 1e-14
    assert np.max(np.abs(h.real)) < 1e-14  # purely imaginary off-diagonal entries
    hi = h / 1j
    flags = classify(hi)
    assert flags.skew_symmetric and flags.persymmetric


def test_one_site_ring_self_bond_is_op_op():
    """p = 1 periodic: the wrap-around bond (0, 0) is op @ op on the one site."""
    params = {"jx": 0.3, "jy": -1.1, "jz": 0.7, "lam": 0.4}
    h = assemble(model("ising_zz", 1, params, boundary="periodic"))
    assert frob(h - (0.7 * np.eye(2) + 0.4 * pauli("x"))) < 1e-15
    h = assemble(model("heis_xyz", 1, params, boundary="periodic"))
    assert frob(h - ((0.3 - 1.1 + 0.7) * np.eye(2) + 0.4 * pauli("x"))) < 1e-15
    s = [spin1(c) for c in "xyz"]
    want = sum(a @ a for a in s) + sum((a @ b) @ (a @ b) for a in s for b in s) / 3.0
    assert frob(assemble(model("aklt", 1, boundary="periodic")) - want) < 1e-14


def test_aklt_bond_expansion_oracle():
    # direct dense evaluation of S.S + (S.S)^2/3 on two sites
    h = assemble(model("aklt", 2))
    ss = sum(kron(spin1(c), spin1(c)) for c in "xyz")
    assert frob(h - (ss + (ss @ ss) / 3.0)) < 1e-14
    # total-spin coupling fixes the spectrum: -2/3 on the 4-dimensional
    # S_tot <= 1 space, +4/3 on the 5-dimensional S_tot = 2 space
    values = eigh(h).values
    assert np.allclose(values[:4], -2.0 / 3.0, atol=1e-12)
    assert np.allclose(values[4:], 4.0 / 3.0, atol=1e-12)


def test_bilinear_biquadratic_expansion_oracle():
    theta = 0.4
    h = assemble(model("bilinear_biquadratic", 2, {"theta": theta}))
    ss = sum(kron(spin1(c), spin1(c)) for c in "xyz")
    assert frob(h - (np.cos(theta) * ss + np.sin(theta) * (ss @ ss))) < 1e-14


def test_spin1_models_structure():
    for name in ("aklt", "bilinear_biquadratic"):
        for p in (2, 3):
            flags = certify_structure(model(name, p, {"theta": 0.4} if name != "aklt" else None))
            assert flags.symmetric and flags.persymmetric
            h = assemble(model(name, p, {"theta": 0.4} if name != "aklt" else None))
            assert np.max(np.abs(h.imag)) < 1e-12


def test_table_models_structure(rng):
    for name in TABLE_MODELS:
        for boundary in ("open", "periodic"):
            params = {"jx": 1.0, "jy": 0.5, "jz": 0.3, "lam": 0.7}
            h = assemble(model(name, 4, params, boundary))
            assert frob(h - dagger(h)) < 1e-12 * frob(h)
            assert np.max(np.abs(h.imag)) < 1e-12
            flags = classify(h)
            assert flags.symmetric and flags.persymmetric


@st.composite
def real_model_specs(draw):
    """Table models with random couplings at p <= 7 and the spin-1 models at
    p <= 4, both boundaries: every one has exactly real term values."""
    name = draw(st.sampled_from(TABLE_MODELS + ("aklt", "bilinear_biquadratic")))
    p = draw(st.integers(1, 4 if name in ("aklt", "bilinear_biquadratic") else 7))
    coupling = st.floats(-2.0, 2.0, allow_nan=False)
    params = {key: draw(coupling) for key in ("jx", "jy", "jz", "lam", "theta")}
    return model(name, p, params, draw(st.sampled_from(("open", "periodic"))))


def _scattered(spec) -> np.ndarray:
    """The nonzeros of ``_nonzeros`` scattered into zeros of their dtype."""
    rows, cols, vals = _nonzeros(spec)
    h = np.zeros((spec.d**spec.p,) * 2, dtype=vals.dtype)
    h[rows, cols] = vals
    return h


@settings(max_examples=60, deadline=None)
@given(real_model_specs())
def test_real_assembly_matches_complex_property(spec):
    """The nonzeros of a model with exactly real term values are float64 and
    scatter into the real part of ``assemble`` bit for bit; classify and eigh
    give the same results on that real matrix as on the complex one, and
    certify_structure the same as classify."""
    hc = assemble(spec)
    hr = _scattered(spec)
    assert hc.dtype == np.complex128 and hr.dtype == np.float64
    assert hr.tobytes() == hc.real.tobytes()
    fr, fc = classify(hr), classify(hc)
    assert fr == fc and fr.omega == fc.omega and fr.residuals == fc.residuals
    fs = certify_structure(spec)
    assert fs == fc and fs.omega == fc.omega and fs.residuals == fc.residuals
    er, ec = eigh(hr), eigh(hc)
    assert er.values.tobytes() == ec.values.tobytes()
    assert er.vectors.dtype == np.complex128 and er.vectors.tobytes() == ec.vectors.tobytes()
    hy = model("hy", spec.p, boundary=spec.boundary)
    assert _scattered(hy).tobytes() == assemble(hy).tobytes()


def test_classify_reads_a_real_complex_matrix_without_a_copy():
    # an exactly real complex128 matrix is read through its float64 view: the
    # pass stays below the 8 n^2 bytes of one float64 copy
    h = assemble(model("heis_xxz", 10))
    n = h.shape[0]
    tracemalloc.start()
    try:
        classify(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certify_structure_never_forms_a_complex_matrix():
    """heis_xxz at p = 11 and the complex hy at p = 10 are certified from
    their nonzeros: the traced peak stays below the 16 dim^2 bytes of one
    complex128 n x n array."""
    spec = model("heis_xxz", 11, {"jx": 0.9, "jz": 1.3, "lam": 0.7}, "periodic")
    flags, peak = _traced_peak(lambda: certify_structure(spec))
    assert flags.symmetric and flags.persymmetric
    assert peak < 16 * 4**11
    flags, peak = _traced_peak(lambda: certify_structure(model("hy", 10)))
    assert flags.hermitian and flags.skew_symmetric
    assert peak < 16 * 4**10


def test_ground_state_residual_matches_complex_matvec(rng):
    # one dense site of dimension 33 or 65, no symmetry: the residual summed
    # from the nonzeros is the complex h @ v one to within 1e-12 ||h||_F
    for d in (33, 65):
        a = rng.standard_normal((d, d))
        spec = HamiltonianSpec(p=1, d=d, boundary="open", terms=(LocalTermSpec(1.0, (a + a.T,)),))
        rep = ground_state(spec)
        h, v = assemble(spec), rep.ground_vector
        assert abs(rep.residual - frob(h @ v - rep.ground_energy * v)) <= 1e-12 * frob(h)


def test_ground_state_hx_p2():
    rep = ground_state(model("hx", 2))
    assert np.isclose(rep.ground_energy, -2.0)
    want = np.array([1, -1, -1, 1]) / 2.0
    assert np.allclose(rep.ground_vector, want)


#: hx fields whose ||h||_F overflows (p = 3), or is subnormal or below 1e-9
#: (p = 2): a bound taken at the model's scale, or floored at an absolute
#: 1e-9, would pass any vector there
_EXTREME_HX = ((3, 5e307), (2, 2.0**-1060), (2, 1e-20))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ground_state_scaled_field():
    lam = 0.37
    rep = ground_state(model("hx", 1, {"lam": lam}))
    assert np.isclose(rep.ground_energy, -lam)
    # the true pair is accepted past float64's norm range and below 1e-9:
    # energy -p lam, and the product of p states (1, -1) / sqrt(2)
    for p, lam in _EXTREME_HX:
        rep = ground_state(model("hx", p, {"lam": lam}))
        assert abs(rep.ground_energy / (p * lam) + 1.0) <= 1e-12, (p, lam)
        assert np.allclose(np.abs(rep.ground_vector), 2.0 ** (-p / 2)), (p, lam)


def test_ground_state_ising_oracle():
    spec = model("ising_zz", 4, {"lam": 1.0}, "open")
    rep = ground_state(spec)
    h = assemble(spec)
    want = np.linalg.eigvalsh(h)
    assert abs(rep.ground_energy - want[0]) < 1e-10
    assert np.isclose(rep.gap, want[1] - want[0])
    v = rep.ground_vector
    j = np.fliplr(np.eye(16))
    assert min(np.linalg.norm(j @ v - v), np.linalg.norm(j @ v + v)) < 1e-8


#: the guards of the sector solve of hx at p = 4 on an open chain: 64 term
#: nonzeros and 16 basis states first, then on top the largest sector block,
#: of order 6 (mirror and flip sectors of orders 6, 4, 2 and 4), in float64
_HX4_FIRST = hamiltonian._NONZERO_BYTES * 64 + hamiltonian._INDEX_BYTES * 16


def test_ground_state_guard(monkeypatch):
    # with eigenvectors the block guard counts _EIGH_ARRAYS blocks; hy's
    # largest block (order 10 of 10 + 6, complex128) needs more
    blocks = _HX4_FIRST + hamiltonian._EIGH_ARRAYS * 8 * 6 * 6
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", blocks)
    assert ground_state(model("hx", 4)).ground_vector.shape == (16,)
    hy_blocks = _HX4_FIRST + hamiltonian._EIGH_ARRAYS * 16 * 10 * 10
    with pytest.raises(TooLargeError, match=rf"^the sector solve of dimension 16, largest block 10, needs {hy_blocks} bytes, over"):
        ground_state(model("hy", 4))
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", blocks - 1)
    with pytest.raises(TooLargeError, match=rf"^the sector solve of dimension 16, largest block 6, needs {blocks} bytes, over"):
        ground_state(model("hx", 4))


def test_ground_state_refuses_before_it_assembles(monkeypatch):
    # one byte below the first guard: refused with its message, and no
    # term's nonzeros are ever built
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", _HX4_FIRST - 1)

    def no_nonzeros(factors, ident):
        raise AssertionError("built nonzeros past the guard")

    monkeypatch.setattr(hamiltonian, "_term_nonzeros", no_nonzeros)
    with pytest.raises(TooLargeError, match=rf"^64 term nonzeros and 16 basis states need {_HX4_FIRST} bytes, over"):
        ground_state(model("hx", 4))


def test_spectrum_guard(monkeypatch):
    # eigenvalues alone guard _EIGVALSH_ARRAYS blocks of the largest sector
    blocks = _HX4_FIRST + hamiltonian._EIGVALSH_ARRAYS * 8 * 6 * 6
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", blocks)
    assert _solve_sectors(model("hx", 4), vector=False)[0].shape == (16,)
    hy_blocks = _HX4_FIRST + hamiltonian._EIGVALSH_ARRAYS * 16 * 10 * 10
    with pytest.raises(TooLargeError, match=rf"^the sector solve of dimension 16, largest block 10, needs {hy_blocks} bytes, over"):
        _solve_sectors(model("hy", 4), vector=False)
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", blocks - 1)
    with pytest.raises(TooLargeError, match=rf"^the sector solve of dimension 16, largest block 6, needs {blocks} bytes, over"):
        _solve_sectors(model("hx", 4), vector=False)


def _guard_sizes(call) -> list[int]:
    """The bytes of every guard ``call`` checks, in order: each limit one
    byte below the last refusal's bytes is raised to those bytes, until the
    call passes."""
    sizes, saved = [], linalg.MAX_DENSE_BYTES
    try:
        while True:
            linalg.MAX_DENSE_BYTES = sizes[-1] if sizes else 0
            try:
                call()
                return sizes
            except TooLargeError as exc:
                sizes.append(int(re.search(r" needs? (\d+) bytes", str(exc)).group(1)))
    finally:
        linalg.MAX_DENSE_BYTES = saved


def test_spectrum_peak_is_within_its_guard():
    # the traced peak of the eigenvalue solve stays within its last guard,
    # which counts the nonzeros and index arrays as well as the blocks
    for name in ("hx", "hz", "hy"):
        for p in (7, 8):
            for boundary in ("open", "periodic"):
                spec = model(name, p, boundary=boundary)
                guard = _guard_sizes(lambda: _solve_sectors(spec, vector=False))[-1]
                _, peak = _traced_peak(lambda: _solve_sectors(spec, vector=False))
                assert peak <= guard, (name, p, boundary)


def test_solve_peak_is_within_its_guard():
    # the same for the ground state, eigenvectors, lift and residual included
    for name in ("hx", "hz", "hy"):
        for p in (7, 8):
            for boundary in ("open", "periodic"):
                spec = model(name, p, boundary=boundary)
                guard = _guard_sizes(lambda: ground_state(spec))[-1]
                _, peak = _traced_peak(lambda: ground_state(spec))
                assert peak <= guard, (name, p, boundary)


def test_ham_verbs_refuse_before_they_allocate(monkeypatch):
    """One byte below each guard of ground_state, the eigenvalue solve and
    certify_structure, the call raises TooLargeError having traced less than
    the limit."""
    spec = model("heis_xxz", 11, {"jx": 0.9, "jz": 1.3, "lam": 0.7}, "periodic")
    calls = {
        "ground_state": lambda: ground_state(spec),
        "spectrum": lambda: _solve_sectors(spec, vector=False),
        "certify_structure": lambda: certify_structure(spec),
    }
    for what, call in calls.items():
        sizes = _guard_sizes(call)
        assert len(sizes) == (1 if what == "certify_structure" else 2), what
        for nbytes in sizes:
            monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", nbytes - 1)
            tracemalloc.start()
            try:
                with pytest.raises(TooLargeError, match=rf"needs? {nbytes} bytes"):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < nbytes - 1, (what, nbytes, peak)


def test_ham_verbs_peak_below_a_quarter_of_the_dense_matrix():
    # heis_xxz at p = 11 on a ring: 8 MiB is a quarter of one float64 n x n
    spec = model("heis_xxz", 11, {"jx": 0.9, "jz": 1.3, "lam": 0.7}, "periodic")
    for call in (lambda: ground_state(spec), lambda: _solve_sectors(spec, vector=False),
                 lambda: certify_structure(spec)):
        _, peak = _traced_peak(call)
        assert peak < 8 * 4**11 / 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ground_state_residual_check(monkeypatch):
    # ground_state calls hamiltonian.eigh on the ground sector's block alone:
    # order 2 for hx (mirror +1, flip +1) and 3 for hy (mirror +1); wrong
    # vectors must trip the check against the full h, at any field scale
    def wrong_eigh(h):
        orders.append(len(h))
        values = np.linalg.eigvalsh(h)
        return EighResult(values, np.eye(len(values), dtype=np.complex128))

    monkeypatch.setattr("symtt.hamiltonian.eigh", wrong_eigh)
    for name, want in (("hx", [2]), ("hy", [3])):
        orders = []
        with pytest.raises(ResidualError, match=r"residual .* exceeds its bound"):
            ground_state(model(name, 2))
        assert orders == want
    for p, lam in _EXTREME_HX:
        with pytest.raises(ResidualError, match=r"residual .* exceeds its bound"):
            ground_state(model("hx", p, {"lam": lam}))


def test_ground_state_residual_message_is_at_unit_scale(monkeypatch):
    # the message shows what was compared: residual / ||h||_F beside
    # 10 EPS_LIN, so a field of 2^-1060 (whose ||h||_F is subnormal) or
    # 5e307 (past float64's range) reads the same as at the unit field
    monkeypatch.setattr("symtt.hamiltonian.eigh",
                        lambda h: EighResult(np.linalg.eigvalsh(h), np.eye(len(h), dtype=np.complex128)))
    want = {2: "ground eigenpair residual 1.000e+00 exceeds its bound 1.000e-11, both relative to ||h||_F",
            3: "ground eigenpair residual 7.071e-01 exceeds its bound 1.000e-11, both relative to ||h||_F"}
    for p, lam in ((2, 1.0), (2, 2.0**-1060), (3, 1.0), (3, 5e307)):
        with pytest.raises(ResidualError) as exc:
            ground_state(model("hx", p, {"lam": lam}))
        assert str(exc.value) == want[p], (p, lam)


def _flip_expected(spec) -> bool:
    """Every model but hy and hz (odd under the global flip) has it."""
    return spec.name not in ("hy", "hz")


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_ground_state_matches_dense_eigh(name):
    """The sector solver against numpy's full complex eigh of the assembled
    matrix: p <= 8 for spin-1/2, p <= 5 for spin-1, both boundaries, default
    and seeded couplings."""
    rng = np.random.default_rng(1301)
    p_max = 8 if name not in ("aklt", "bilinear_biquadratic") else 5
    for p in range(1, p_max + 1):
        for boundary in ("open", "periodic"):
            for params in (None, {k: float(rng.uniform(-1.5, 1.5)) for k in ("jx", "jy", "jz", "lam", "theta")}):
                spec = model(name, p, params, boundary)
                h = assemble(spec)
                want_w, want_v = np.linalg.eigh(h)
                rep = ground_state(spec)
                scale = max(1.0, np.abs(want_w).max())
                dim = len(want_w)
                assert sum(rep.sector_sizes) == dim
                assert ("flip" in rep.ground_sector) == _flip_expected(spec)
                assert np.max(np.abs(rep.values - want_w)) <= 1e-12 * scale
                assert rep.ground_energy == rep.values[0]
                if dim > 1:
                    assert abs(rep.gap - (want_w[1] - want_w[0])) <= 1e-12 * scale
                v = rep.ground_vector
                assert abs(rep.residual - frob(h @ v - rep.ground_energy * v)) <= 1e-12 * frob(h)
                assert rep.residual <= max(10 * EPS_LIN * frob(h), 1e-9)
                values, sizes, no_vector = _solve_sectors(spec, vector=False)
                assert no_vector is None and sizes == rep.sector_sizes
                assert np.max(np.abs(values - np.linalg.eigvalsh(h))) <= 1e-12 * scale
                if name != "hy":  # real models get real vectors, written with "0", never "-0"
                    assert not v.imag.any() and not np.signbit(v.imag).any()
                if dim > 1 and rep.gap > 1e-8:
                    assert abs(abs(np.vdot(want_v[:, 0], v)) - 1.0) <= 1e-10
                    z = v[np.argmax(np.abs(v))]
                    assert abs(z.imag) < 1e-13 and z.real > 0
                    if "flip" in rep.ground_sector:  # lifted exactly J-even or J-odd
                        assert np.array_equal(v[::-1], rep.ground_sector["flip"] * v)


def test_sector_solve_refuses_a_non_hermitian_model():
    # a raising operator is refused; a term list whose sum is Hermitian
    # although its nonzeros are not placed symmetrically (an entry that
    # cancels to 0.0 without a transposed partner) is solved
    up = np.array([[0.0, 1.0], [0.0, 0.0]])
    spec = HamiltonianSpec(p=1, d=2, boundary="open", terms=(LocalTermSpec(1.0, (up,)),))
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        ground_state(spec)
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        _solve_sectors(spec, vector=False)
    for k in SCALES:  # at scales where the squares of its entries under- or overflow, too
        tiny_or_huge = HamiltonianSpec(p=1, d=2, boundary="open", terms=(LocalTermSpec(math.ldexp(1.0, k), (up,)),))
        with pytest.raises(NotHermitianError, match="not Hermitian"):
            _solve_sectors(tiny_or_huge, vector=False)
    terms = (LocalTermSpec(1.0, (up,)), LocalTermSpec(-1.0, (up,)), LocalTermSpec(1.0, (pauli("z").real,)))
    rep = ground_state(HamiltonianSpec(p=1, d=2, boundary="open", terms=terms))
    assert rep.values.tolist() == [-1.0, 1.0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_certify_structure_does_not_depend_on_scale():
    """Couplings times 2^k give the flags and omega of the unscaled model and
    residuals exactly 2^k times its, at scales where squares of the entries
    under- or overflow; the couplings have few significant bits, so every
    entry times 2^k is exact."""
    params = {"jx": 0.75, "jy": -1.25, "jz": 0.5, "lam": 0.375}
    for name in MODEL_NAMES[:-2]:  # the spin-1 models take no coupling scale
        for p, boundary in ((3, "open"), (4, "periodic"), (6, "periodic")):
            want = certify_structure(model(name, p, params, boundary))
            for k in SCALES:
                got = certify_structure(model(name, p, {key: math.ldexp(v, k) for key, v in params.items()}, boundary))
                assert got == want and got.omega == want.omega, (name, p, k)
                assert got.residuals == {key: math.ldexp(r, k) for key, r in want.residuals.items()}, (name, p, k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sector_solve_does_not_depend_on_scale():
    """Couplings times 2^k give 2^k times the spectrum and ground energy of
    the unscaled model bit for bit, and the same ground vector, sector sizes
    and ground sector, at scales where LAPACK would rescale a block or its
    entries would be subnormal; the couplings have few significant bits, so
    every entry times 2^k is exact."""
    params = {"jx": 0.75, "jy": -1.25, "jz": 0.5, "lam": 0.375}
    for name in MODEL_NAMES[:-2]:  # the spin-1 models take no coupling scale
        for p in (2, 3, 5, 6):
            for boundary in ("open", "periodic"):
                want = ground_state(model(name, p, params, boundary))
                for k in SCALES:
                    got = ground_state(model(name, p, {key: math.ldexp(v, k) for key, v in params.items()}, boundary))
                    case = (name, p, boundary, k)
                    assert got.values.tobytes() == np.ldexp(want.values, k).tobytes(), case
                    assert got.ground_energy == math.ldexp(want.ground_energy, k), case
                    assert got.ground_vector.tobytes() == want.ground_vector.tobytes(), case
                    assert (got.sector_sizes, got.ground_sector) == (want.sector_sizes, want.ground_sector), case


def test_certify_from_nonzeros_matches_classify():
    """certify_structure against classify of the assembled matrix: equal
    flags and omega, bit-identical residuals, for every model on both
    boundaries at p <= 8 (p <= 5 for spin-1), default and seeded couplings."""
    rng = np.random.default_rng(1301)
    for name in MODEL_NAMES:
        p_max = 8 if name not in ("aklt", "bilinear_biquadratic") else 5
        for p in range(1, p_max + 1):
            for boundary in ("open", "periodic"):
                for params in (None, {k: float(rng.uniform(-1.5, 1.5)) for k in ("jx", "jy", "jz", "lam", "theta")}):
                    spec = model(name, p, params, boundary)
                    got, want = certify_structure(spec), classify(assemble(spec))
                    assert got == want and got.omega == want.omega, (name, p, boundary, params)
                    assert got.residuals == want.residuals, (name, p, boundary, params)


def test_sector_orbits_are_the_symmetric_degrees_of_freedom():
    """The sector solver's representatives are the orbits that
    ``symmetry.dof_count`` counts for the admitted generators (momentum ->
    bitshift, mirror -> reverse, flip -> bitflip), and its sector orders add
    up to 2^p: heis_xxz on a ring and an open chain, p = 2 .. 12, and hz,
    whose flip is not admitted."""
    kinds = {"momentum": "bitshift", "mirror": "reverse", "flip": "bitflip"}
    for name, params in (("heis_xxz", {"jx": 0.8, "jz": 1.3}), ("hz", None)):
        for p in range(2, 13):
            for boundary in ("open", "periodic"):
                spec = model(name, p, params, boundary)
                sectors = _Sectors(spec, *_nonzeros(spec))
                admitted = [kinds[gen] for gen, _, _ in sectors.gens]
                assert ("bitflip" in admitted) == (name != "hz")
                counts = symmetry.dof_count(p, admitted).counts
                assert len(sectors.reps) == counts.get("combined", counts[admitted[0]]), (name, p, boundary)
                assert sum(map(sectors.order, sectors.members)) == 2**p


def test_ground_sector_matches_detected_symmetries():
    """The reported sector of every gapped table model at p <= 10 agrees with
    the symmetries detected on its ground vector: momentum 0 iff shift
    invariant, flip +-1 iff bitflip+-, mirror +1 iff reverse (open chains)."""
    rng = np.random.default_rng(7)
    checked = 0
    for name in TABLE_MODELS:
        for p in range(2, 11):
            for boundary in ("open", "periodic"):
                params = {k: float(rng.uniform(0.5, 1.5)) for k in ("jx", "jy", "jz", "lam")}
                rep = ground_state(model(name, p, params, boundary))
                if rep.gap <= 1e-8:
                    continue
                checked += 1
                found = symmetry.detect_vector_symmetries(rep.ground_vector)
                sector = rep.ground_sector
                assert set(sector) == ({"momentum", "flip"} if boundary == "periodic" else {"mirror", "flip"})
                assert ("bitflip+" in found) == (sector["flip"] == 1) and ("bitflip-" in found) == (sector["flip"] == -1)
                if boundary == "periodic":
                    assert sector["momentum"] in (0, p // 2 if p % 2 == 0 else 0)
                    assert ("bitshift" in found) == (sector["momentum"] == 0)
                    v = rep.ground_vector
                    assert np.allclose(symmetry.shifted(v), np.exp(2j * np.pi * sector["momentum"] / p) * v, atol=1e-10)
                else:
                    assert ("reverse" in found) == (sector["mirror"] == 1)
    assert checked > 50


def test_ground_vectors_j_symmetry(rng):
    for name in ("heis_xy", "heis_xxz"):
        spec = model(name, 4, {"jx": 0.9, "jy": 0.4, "jz": 1.3, "lam": 0.6}, "open")
        rep = ground_state(spec)
        if rep.gap > 1e-8:
            v = rep.ground_vector
            j = np.fliplr(np.eye(len(v)))
            assert min(np.linalg.norm(j @ v - v), np.linalg.norm(j @ v + v)) < 1e-8
