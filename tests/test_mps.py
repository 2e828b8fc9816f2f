import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tempfile
from pathlib import Path

from symtt import (
    MPSState,
    bitflip_construct,
    bitflip_normal_form,
    check_gauge,
    check_vidal,
    eval_component,
    firstsite_construct,
    from_vector,
    fullbit_state,
    lastsite_construct,
    reverse_construct,
    strong_normalize,
    symmetrize_flip,
    symmetrize_reverse,
    symmetrize_shift,
    ti_construct,
    to_vector,
    truncate,
    two_site_sweep,
    vidal_from_vector,
    vidal_to_a,
)
from symtt.errors import GaugeViolationError, NotNormalizedError, ShapeMismatchError, TooLargeError, ZeroVectorError
from symtt.fileio import read_mps, write_mps
from symtt.linalg import dagger
from symtt import errors, linalg
from symtt.mps import _TT_SVD_ARRAYS, EPS_GAUGE, _tt_cores

from conftest import brute_force_vector, random_complex, random_hermitian, random_mps, random_unit_vector


def ghz(p):
    x = np.zeros(2**p)
    x[0] = x[-1] = 1 / np.sqrt(2)
    return x


def scalar_ti(a0, a1, p):
    pair = (np.array([[a0]], dtype=complex), np.array([[a1]], dtype=complex))
    return MPSState([pair] * p, boundary="periodic")


def matricization_svals(x, j):
    """Oracle: singular values of the bit-split (i_1..i_j) x (i_{j+1}..i_p)."""
    p = int(np.log2(len(x)))
    return np.linalg.svd(x.reshape(2**j, 2 ** (p - j)), compute_uv=False)


# ------------------------------------------------------------ site layout

def _eye(rows, cols=None):
    return np.eye(rows, cols or rows, dtype=complex)


@pytest.mark.parametrize(
    "sites, boundary, match",
    [
        ([(_eye(1, 2), _eye(2, 1))], "open", "site 1: the two matrices must share a 2-D shape"),
        ([(np.ones(2), np.ones(2))], "open", "site 1: the two matrices must share a 2-D shape"),
        ([(_eye(1), _eye(1), _eye(1))], "open", "site 1: the two matrices must share a 2-D shape"),
        ([(_eye(1, 2),) * 2, (_eye(3, 1),) * 2], "open", r"bond mismatch between sites 1 and 2: \(1, 2\) -> \(3, 1\)"),
        ([(_eye(1, 2),) * 2, (_eye(2),) * 2], "open", "open boundary requires D_1 = D_{p\\+1} = 1"),
        ([(_eye(2, 3),) * 2, (_eye(3, 1),) * 2], "periodic", "periodic boundary requires D_1 = D_{p\\+1}"),
        ([], "open", "an MPS needs at least one site"),
    ],
    ids=["ragged", "1-D", "three-matrices", "bond-mismatch", "open-ends", "periodic-ends", "no-sites"],
)
def test_constructor_rejects_malformed_sites(sites, boundary, match):
    with pytest.raises(ShapeMismatchError, match=match):
        MPSState(sites, boundary=boundary)


def assert_site_layout(m):
    """Every site is one read-only C-contiguous complex128 (2, D_j, D_{j+1})
    array."""
    for j, site in enumerate(m.sites):
        assert isinstance(site, np.ndarray) and site.dtype == np.complex128 and site.flags.c_contiguous
        assert not site.flags.writeable
        assert site.shape == (2, m.dims[j], m.dims[j + 1])


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_every_chain_stores_one_array_per_site(p, seed):
    rng = np.random.default_rng(seed)
    x = random_unit_vector(rng, 2**p)
    m = from_vector(x)
    chains = [m, truncate(m, d_max=2), strong_normalize(two_site_sweep(m, "left"))]
    for chain in (m, random_mps(rng, p, 3, "periodic")):
        chains += [two_site_sweep(chain, "left"), two_site_sweep(chain, "right")]
    chains += [vidal_to_a(vidal_from_vector(x), side) for side in ("left", "right")]
    chains.append(reverse_construct(from_vector(symmetrize_reverse(x)))[0])
    flipped, witness = bitflip_construct(from_vector(symmetrize_flip(x, -1)), -1)
    chains += [flipped, bitflip_normal_form(flipped, witness)[0]]
    chains.append(ti_construct(from_vector(symmetrize_shift(x))))
    chains += [firstsite_construct(x, -1), lastsite_construct(x), fullbit_state(random_hermitian(rng, 2), p)]
    with tempfile.TemporaryDirectory() as tmp:
        write_mps(Path(tmp) / "m.mps", flipped)
        chains.append(read_mps(Path(tmp) / "m.mps"))
    for chain in chains:
        assert_site_layout(chain)


def test_sites_passed_as_one_object_share_one_core(rng):
    pair = (random_complex(rng, 2, 2), random_complex(rng, 2, 2))
    m = MPSState([pair] * 4, boundary="periodic")
    assert all(site is m.sites[0] for site in m.sites)
    pair[0][0, 0] = 7.0  # the core is a copy
    assert m.sites[0][0, 0, 0] != 7.0
    # fresh objects are copied one by one, even where a freed object's id
    # could come back
    fresh = MPSState(([pair[0], pair[1]] for _ in range(4)), boundary="periodic")
    assert len({id(site) for site in fresh.sites}) == 4


# ------------------------------------------------------------- evaluation

def test_eval_component_scalar_ti():
    m = scalar_ti(1.0, 0.0, 4)
    assert eval_component(m, [0, 0, 0, 0]) == 1
    assert eval_component(m, [0, 1, 0, 0]) == 0


def test_eval_component_identity_pair():
    pair = (np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
    m = MPSState([pair] * 3, boundary="periodic")
    assert eval_component(m, [0, 0, 0]) == 2
    assert eval_component(m, [1, 0, 0]) == 0


def test_eval_component_matches_vector(rng):
    x = random_complex(rng, 16)
    m = from_vector(x)
    for idx in range(16):
        bits = [(idx >> (3 - k)) & 1 for k in range(4)]
        assert abs(eval_component(m, bits) - x[idx]) < 1e-12


def test_to_vector_all_ones():
    assert np.allclose(to_vector(scalar_ti(1.0, 1.0, 3)), np.ones(8))


def test_to_vector_product_state():
    sites = [(np.array([[1.0]]), np.array([[0.0]]))] * 4
    x = to_vector(MPSState(sites, boundary="open"))
    want = np.zeros(16)
    want[0] = 1
    assert np.allclose(x, want)


def test_to_vector_guards_its_accumulator():
    # p = 14, D = 128 periodic: folding all sites holds 2^14 128 x 128
    # matrices, 4 GiB, although the output has only 2^14 components
    site = np.ones((2, 128, 128), dtype=complex)
    with pytest.raises(TooLargeError, match=r"4294967296-byte accumulator.*MAX_DENSE_BYTES"):
        to_vector(MPSState([site] * 14, boundary="periodic"))


def test_to_vector_guards_two_accumulators(monkeypatch):
    # a bond-1 p = 10 chain ends with one 16384-byte accumulator, but the
    # fold holds it beside the one before it (or beside the output)
    m = MPSState([(np.array([[1.0]]), np.array([[0.5]]))] * 10, boundary="open")
    monkeypatch.setattr(errors, "MAX_DENSE_BYTES", 2 * 16384)
    assert to_vector(m).shape == (1024,)
    monkeypatch.setattr(errors, "MAX_DENSE_BYTES", 16384)
    with pytest.raises(TooLargeError, match=r"^contraction needs 32768 bytes for two 16384-byte accumulators, over"):
        to_vector(m)


def test_to_vector_has_no_component_cap(monkeypatch):
    # a bond-1 chain of 2^21 components holds two 32 MiB accumulators, far
    # below the byte guard, which still refuses them under a lower limit
    m = MPSState([(np.array([[1.0]]), np.array([[0.0]]))] * 21, boundary="open")
    x = to_vector(m)
    assert x.shape == (2**21,) and x[0] == 1 and np.count_nonzero(x) == 1
    del x
    monkeypatch.setattr(errors, "MAX_DENSE_BYTES", 2 * 16 * 2**21 - 1)
    with pytest.raises(TooLargeError, match=r"^contraction needs 67108864 bytes for two 33554432-byte accumulators, over"):
        to_vector(m)


def test_tt_svd_peak_is_within_its_guard(rng):
    # full-rank inputs at even and odd p, through both TT-SVD callers
    for p in (12, 13):
        x = random_unit_vector(rng, 2**p)
        for build in (from_vector, vidal_from_vector):
            tracemalloc.start()
            try:
                build(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= _TT_SVD_ARRAYS * 16 * 2**p, (p, build)


def product_sum(rng, p, terms):
    """Unit-norm sum of ``terms`` random product states of p qubits: every
    matricization has rank at most ``terms``."""
    x = 0
    for _ in range(terms):
        v = np.ones(1)
        for _ in range(p):
            v = np.kron(v, random_complex(rng, 2))
        x = x + v
    return x / np.linalg.norm(x)


def test_tt_svd_of_a_low_rank_vector_holds_two_vectors(rng):
    # a cut holds its input, the scaled vh of the cut before, and its own vh:
    # two vectors of 2^p entries (tracemalloc does not see LAPACK's work arrays)
    for p in (16, 18):
        x = product_sum(rng, p, 4)
        for build in (from_vector, vidal_from_vector):
            tracemalloc.start()
            try:
                out = build(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            dims = out.dims if build is from_vector else (1, *map(len, out.lambdas), 1)
            assert max(dims) == 4, (p, build, dims)
            assert peak <= 2.5 * 16 * 2**p, (p, build, peak / (16 * 2**p))


def test_to_vector_matches_eval(rng):
    m = random_mps(rng, 4, 3, boundary="periodic")
    x = to_vector(m)
    want = brute_force_vector(m)
    for idx in range(16):
        bits = [(idx >> (3 - k)) & 1 for k in range(4)]
        assert abs(x[idx] - want[idx]) < 1e-12
        assert abs(eval_component(m, bits) - want[idx]) < 1e-12


@st.composite
def chains(draw):
    """Open or periodic chains with p <= 6 and bond dimensions <= 4."""
    p = draw(st.integers(1, 6))
    bonds = draw(st.lists(st.integers(1, 4), min_size=p + 1, max_size=p + 1))
    if draw(st.booleans()):
        bonds[-1] = bonds[0]
        boundary = "periodic"
    else:
        bonds[0] = bonds[-1] = 1
        boundary = "open"
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sites = [
        (random_complex(rng, bonds[j], bonds[j + 1]), random_complex(rng, bonds[j], bonds[j + 1]))
        for j in range(p)
    ]
    return MPSState(sites, boundary=boundary)


@settings(max_examples=60, deadline=None)
@given(chains())
def test_contraction_matches_oracle_property(m):
    want = brute_force_vector(m)
    # rounding bound: the same products taken over entrywise magnitudes
    bound = brute_force_vector(MPSState([(abs(a0), abs(a1)) for a0, a1 in m.sites], boundary=m.boundary)).real
    x = to_vector(m)
    assert np.all(np.abs(x - want) <= 1e-12 * bound)
    for idx in range(2**m.p):
        bits = [(idx >> (m.p - 1 - k)) & 1 for k in range(m.p)]
        assert abs(eval_component(m, bits) - want[idx]) <= 1e-12 * bound[idx]


# ------------------------------------------------------------ decomposition

def test_from_vector_basis_state():
    m = from_vector(np.eye(16)[0])
    assert m.dims == (1, 1, 1, 1, 1)
    assert abs(abs(eval_component(m, [0, 0, 0, 0])) - 1) < 1e-14


def test_from_vector_ghz_dims():
    assert from_vector(ghz(4)).dims == (1, 2, 2, 2, 1)


def test_from_vector_roundtrip_sweep(rng):
    for _ in range(20):
        x = random_complex(rng, 2**8)
        m = from_vector(x)
        assert np.linalg.norm(to_vector(m) - x) < 1e-12 * np.linalg.norm(x)


def test_from_vector_dims_bounded(rng):
    x = random_complex(rng, 2**7)
    dims = from_vector(x).dims
    for j, d in enumerate(dims):
        assert d <= min(2**j, 2 ** (7 - j))


def test_from_vector_rejects_zero():
    with pytest.raises(ZeroVectorError):
        from_vector(np.zeros(8))
    with pytest.raises(ShapeMismatchError):
        from_vector(np.ones(6))


def test_from_vector_truncation_oracle(rng):
    x = random_unit_vector(rng, 2**6)
    m = from_vector(x, tol=0.2)
    for j in range(1, 6):
        svals = matricization_svals(x, j)
        want = max(1, int(np.sum(svals > 0.2 * svals[0])))
        assert m.dims[j] == want


# ------------------------------------------------------------------ gauges

def test_check_gauge_from_vector(rng):
    x = random_unit_vector(rng, 2**5)
    rep = check_gauge(from_vector(x))
    assert max(rep.left) < 1e-12
    assert rep.max_residual == max(rep.left + rep.right + rep.strong) > 1e-3  # a left-canonical chain is not right-canonical


def test_check_gauge_scalar_values():
    rep = check_gauge(scalar_ti(1.0, 1.0, 3))
    assert np.isclose(rep.left[0], 1.0)
    rep = check_gauge(scalar_ti(1 / np.sqrt(2), 1 / np.sqrt(2), 3))
    assert rep.left[0] < 1e-15


def test_gauge_freedom_invariance(rng):
    m = random_mps(rng, 5, 3)
    x = to_vector(m)
    sites = [list(pair) for pair in m.sites]
    for j in range(4):
        while True:
            g = random_complex(rng, 3, 3)
            if np.linalg.cond(g) < 1e3:
                break
        ginv = np.linalg.inv(g)
        sites[j] = [a @ g for a in sites[j]]
        sites[j + 1] = [ginv @ a for a in sites[j + 1]]
    m2 = MPSState([tuple(s) for s in sites], boundary="open")
    assert np.linalg.norm(to_vector(m2) - x) < 1e-12 * np.linalg.norm(x)


# ------------------------------------------------------------------- vidal

def test_vidal_product_state(rng):
    amps = random_unit_vector(rng, 2)
    x = amps[0] * np.array([1, 0]) + amps[1] * np.array([0, 1])
    full = np.kron(np.kron(x, x), x)
    full /= np.linalg.norm(full)
    v = vidal_from_vector(full)
    for lam in v.lambdas:
        assert np.allclose(lam, [1.0])


def test_vidal_ghz_lambdas():
    v = vidal_from_vector(ghz(4))
    for lam in v.lambdas:
        assert np.allclose(lam, [1 / np.sqrt(2)] * 2)


def test_vidal_requires_unit_norm(rng):
    with pytest.raises(NotNormalizedError):
        vidal_from_vector(2.0 * random_unit_vector(rng, 8))


def test_vidal_both_conditions(rng):
    x = random_unit_vector(rng, 2**6)
    v = vidal_from_vector(x)
    rep = check_vidal(v)
    assert max(rep.vidal_left) < 1e-10
    assert max(rep.vidal_right) < 1e-10
    assert rep.max_residual == max(rep.vidal_left + rep.vidal_right)
    for j, lam in enumerate(v.lambdas, start=1):
        oracle = matricization_svals(x, j)[: len(lam)]
        assert np.max(np.abs(lam - oracle)) < 1e-10


def test_vidal_schmidt_normalization(rng):
    v = vidal_from_vector(random_unit_vector(rng, 2**5))
    for lam in v.lambdas:
        assert abs(np.sum(lam**2) - 1.0) < 1e-12


def test_vidal_to_a_roundtrips(rng):
    x = random_unit_vector(rng, 2**5)
    v = vidal_from_vector(x)
    left = vidal_to_a(v, "left")
    right = vidal_to_a(v, "right")
    assert np.linalg.norm(to_vector(left) - x) < 1e-12
    assert np.linalg.norm(to_vector(right) - x) < 1e-12
    assert max(check_gauge(left).left) < 1e-12
    assert max(check_gauge(right).right) < 1e-12


def test_vidal_gamma_uniqueness_up_to_phases(rng):
    # phase-randomized copies of the same vector give the same |Lambda| and
    # the same |entries| of the Lambda Gamma products at nondegenerate bonds
    x = random_unit_vector(rng, 2**4)
    v1 = vidal_from_vector(x)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    v2 = vidal_from_vector(phase * x)
    for l1, l2 in zip(v1.lambdas, v2.lambdas):
        assert np.allclose(l1, l2, atol=1e-10)
    a1 = vidal_to_a(v1, "left")
    a2 = vidal_to_a(v2, "left")
    for (p1, q1), (p2, q2) in zip(a1.sites, a2.sites):
        assert np.allclose(np.abs(p1), np.abs(p2), atol=1e-8)
        assert np.allclose(np.abs(q1), np.abs(q2), atol=1e-8)


# ------------------------------------------------------------------- sweeps

def test_sweep_idempotent_on_left_normalized(rng):
    x = random_unit_vector(rng, 2**5)
    m = from_vector(x)
    m2 = two_site_sweep(m, "left")
    assert np.linalg.norm(to_vector(m2) - x) < 1e-12
    assert max(check_gauge(m2).left[:-1]) < 1e-12


def test_sweep_random_pbc(rng):
    m = random_mps(rng, 4, 3, boundary="periodic")
    x = to_vector(m)
    for direction in ("left", "right"):
        m2 = two_site_sweep(m, direction)
        assert np.linalg.norm(to_vector(m2) - x) < 1e-12 * np.linalg.norm(x)
        rep = check_gauge(m2)
        residuals = rep.left if direction == "left" else rep.right
        assert max(residuals[:-1]) < 1e-12  # all but the carrier at site p


@settings(max_examples=60, deadline=None)
@given(chains(), st.sampled_from(("left", "right")))
def test_two_site_sweep_property(m, direction):
    """A sweep keeps the contracted vector (to rounding, against the same
    contraction over entrywise magnitudes) and gauges every site but the
    carrier within EPS_GAUGE."""
    x = to_vector(m)
    scale = np.linalg.norm(to_vector(MPSState([abs(site) for site in m.sites], boundary=m.boundary)))
    m2 = two_site_sweep(m, direction)
    assert m2.boundary == m.boundary
    assert np.linalg.norm(to_vector(m2) - x) <= 1e-10 * scale
    rep = check_gauge(m2)
    if direction == "left":
        residuals = rep.left[:-1]
    elif m.boundary == "open":
        residuals = rep.right[1:]  # the carrier ends at site 1
    else:
        residuals = rep.right[:-1]
    assert all(r <= EPS_GAUGE for r in residuals)


def test_sweep_rank_one_product(rng):
    sites = [(np.array([[0.6]]), np.array([[0.8]]))] * 3
    m2 = two_site_sweep(MPSState(sites, boundary="open"), "left")
    for a0, a1 in m2.sites[:-1]:
        assert abs(abs(a0[0, 0]) ** 2 + abs(a1[0, 0]) ** 2 - 1.0) < 1e-12


# ------------------------------------------------------------ strong form

def test_strong_normalize_site1_exact(rng):
    x = random_unit_vector(rng, 2**6)
    sn = strong_normalize(from_vector(x))
    a0, a1 = sn.sites[0]
    assert np.array_equal(a0, np.array([[1.0, 0.0]], dtype=complex))
    assert np.array_equal(a1, np.array([[0.0, 1.0]], dtype=complex))


def test_strong_normalize_preserves_and_diagonalizes(rng):
    for _ in range(5):
        x = random_unit_vector(rng, 2**6)
        m = from_vector(x)
        sn = strong_normalize(m)
        assert np.linalg.norm(to_vector(sn) - x) < 1e-12
        rep = check_gauge(sn)
        assert max(rep.strong) < 1e-10


def test_strong_normalize_product_state(rng):
    amps = random_unit_vector(rng, 2)
    x = np.kron(np.kron(amps, amps), amps)
    sn = strong_normalize(from_vector(x))
    for a0, a1 in sn.sites:
        g = dagger(a0) @ a0
        assert abs(g[0, 0].imag) < 1e-14
    assert np.linalg.norm(to_vector(sn) - x) < 1e-12


def test_strong_normalize_rejects_unnormalized(rng):
    m = random_mps(rng, 4, 2)
    with pytest.raises(GaugeViolationError):
        strong_normalize(m)


# -------------------------------------------------------------- truncation

def test_truncate_identity(rng):
    x = random_complex(rng, 2**5)
    m = from_vector(x)
    m2 = truncate(m, tol=0.0)
    assert np.linalg.norm(to_vector(m2) - x) < 1e-12 * np.linalg.norm(x)


def test_truncate_tol_zero_keeps_rank_floor():
    # |0...0> + 1e-13 |1...1> as a bond-2 chain: the weight sits on site 1, so
    # the right sweep keeps bond 2 at the interior bonds, while the Schmidt
    # value there is 1e-13 relative, under the EPS_RANK floor
    p = 5
    first = (np.array([[1.0, 0.0]]), np.array([[0.0, 1e-13]]))
    inner = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    last = (np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    m = MPSState([first] + [inner] * (p - 2) + [last], boundary="open")
    assert max(two_site_sweep(m, "right").dims) == 2
    m2 = truncate(m, tol=0.0)
    assert m2.dims == (1,) * (p + 1)
    assert np.linalg.norm(to_vector(m2) - to_vector(m)) <= 1e-12


def test_truncate_ghz_to_rank_one():
    x = ghz(4)
    m2 = truncate(from_vector(x), d_max=1)
    err = np.linalg.norm(to_vector(m2) - x)
    assert abs(err - 1 / np.sqrt(2)) < 1e-12


def test_truncate_monotone_and_bounded(rng):
    x = random_unit_vector(rng, 2**6)
    m = from_vector(x)
    errors = []
    for d_max in (1, 2, 3, 4, 8):
        m2 = truncate(m, d_max=d_max)
        err = np.linalg.norm(to_vector(m2) - x)
        # oracle bound: discarded Schmidt weight across all bit splits
        disc = 0.0
        for j in range(1, 6):
            svals = matricization_svals(x, j)
            disc += float(np.sum(svals[d_max:] ** 2))
        assert err <= np.sqrt(disc) + 1e-12
        errors.append(err)
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errors, errors[1:]))


# ------------------------------------------------------------ trace identities

def test_trace_identities(rng):
    a = random_complex(rng, 4, 4)
    b = random_complex(rng, 4, 4)
    assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12
    ar, br = np.real(a), np.real(b)
    assert abs(np.trace(ar @ br) - np.trace(br.T @ ar.T)) < 1e-12
    assert abs(np.trace(a @ b) - np.conj(np.trace(dagger(b) @ dagger(a)))) < 1e-12


def test_tt_core_singular_values_are_matricization_svals(rng):
    x = random_unit_vector(rng, 2**5)
    _, lambdas = _tt_cores(x, 0.0)
    for j, lam in enumerate(lambdas, start=1):
        oracle = matricization_svals(x, j)[: len(lam)]
        assert np.allclose(lam, oracle, atol=1e-12)
