import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symtt import EPS_LIN, MPSState, assemble, dof_count, eigh, exchange_matrix, fourier_matrix, from_vector, kron, model, orbits, reverse_construct, reverse_normal_form, schur, svd, ti_construct, to_vector
from symtt import errors, linalg
import symtt
from symtt.errors import NotHermitianError, ResidualError, TooLargeError, require_bytes
from symtt.fileio import write_mps
from symtt.hamiltonian import ground_state, pauli
from symtt.linalg import dagger, frob, rank_from_sigma, split

from conftest import SCALES, random_complex, random_hermitian, scaled


def test_kron_pauli_x_gives_anti_identity():
    j4 = kron(pauli("x"), pauli("x"))
    assert np.array_equal(j4, exchange_matrix(4))


def test_kron_identity_block_diagonal(rng):
    a = random_complex(rng, 3, 3)
    out = kron(np.eye(2), a)
    expect = np.zeros((6, 6), complex)
    expect[:3, :3] = a
    expect[3:, 3:] = a
    assert np.array_equal(out, expect)


def test_kron_pauli_y_squared_real_antidiagonal():
    out = kron(pauli("y"), pauli("y"))
    expect = np.zeros((4, 4), complex)
    expect[0, 3], expect[1, 2], expect[2, 1], expect[3, 0] = -1, 1, 1, -1
    assert np.allclose(out, expect, atol=0)
    assert np.max(np.abs(out.imag)) == 0


def test_kron_associative_bilinear(rng):
    a, b, c = (random_complex(rng, 2, 3), random_complex(rng, 3, 2), random_complex(rng, 2, 2))
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert frob(left - right) <= EPS_LIN * frob(left)
    z = 0.7 - 0.3j
    assert np.allclose(kron(z * a, b), z * kron(a, b))
    a2 = random_complex(rng, 2, 3)
    assert np.allclose(kron(a + a2, b), kron(a, b) + kron(a2, b))


def test_exchange_kron_identity():
    for m in range(1, 17):
        for n in range(1, 17):
            assert np.array_equal(kron(exchange_matrix(m), exchange_matrix(n)), exchange_matrix(m * n))


def test_exchange_basics():
    assert np.array_equal(exchange_matrix(2), pauli("x"))
    assert np.array_equal(exchange_matrix(1), np.eye(1))
    j8 = exchange_matrix(8)
    assert np.array_equal(j8 @ j8, np.eye(8))


def test_svd_identity_and_diagonal():
    assert np.allclose(svd(np.eye(3)).sigma, [1, 1, 1])
    assert np.allclose(svd(np.diag([3.0, 0.0])).sigma, [3, 0])


def test_svd_gram_oracle(rng):
    a = random_complex(rng, 4, 3)
    sigma = svd(a).sigma
    gram_eigs = np.sort(np.linalg.eigvalsh(dagger(a) @ a))[::-1]
    assert np.allclose(sigma**2, gram_eigs, atol=1e-12)


def test_svd_phase_convention(rng):
    a = random_complex(rng, 5, 4)
    u, s, vh = svd(a)
    assert frob(u @ np.diag(s) @ vh - a) <= EPS_LIN * frob(a)
    for k in range(u.shape[1]):
        z = u[np.argmax(np.abs(u[:, k])), k]
        assert abs(z.imag) < 1e-13 and z.real >= 0


def test_rank_cutoff():
    assert rank_from_sigma(np.array([1.0, 0.5, 1e-14])) == 2
    assert rank_from_sigma(np.array([1.0, 0.5, 1e-14]), tol=0.6) == 1
    assert rank_from_sigma(np.array([0.0])) == 1


def test_split_cutoff(rng):
    a = random_complex(rng, 8, 3) @ random_complex(rng, 3, 6)
    sigma = svd(a).sigma
    for tol in (0.0, 0.3, 0.9):
        r = rank_from_sigma(sigma, tol)
        u, s, vh = split(a, tol)
        assert (u.shape, s.shape, vh.shape) == ((8, r), (r,), (r, 6))
        assert np.array_equal(s, sigma[:r])
    assert len(split(a).sigma) == 3
    for d_max in (1, 2, 5):
        assert len(split(a, d_max=d_max).sigma) == min(3, d_max)
    u, s, vh = split(np.zeros((4, 3)))
    assert (u.shape, s.shape, vh.shape) == ((4, 1), (1,), (1, 3))


def test_eigh_pauli():
    res = eigh(pauli("x"))
    assert np.allclose(res.values, [-1, 1])
    res = eigh(pauli("z"))
    assert np.allclose(res.values, [-1, 1])
    # already diagonal: eigenvectors are the flipped standard basis
    assert np.allclose(np.abs(res.vectors), [[0, 1], [1, 0]])


def test_eigh_rejects_non_hermitian(rng):
    with pytest.raises(NotHermitianError):
        eigh(random_complex(rng, 3, 3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_relative_checks_do_not_depend_on_scale(rng):
    # frob of a times 2^k is frob(a) times 2^k, rounded once, where the
    # plain sum of squares under- or overflows; eigh refuses the scaled
    # non-Hermitian [[1, 2], [0, 1]] and accepts the scaled Hermitian one
    a = rng.integers(-9, 10, (5, 5)) + 1j * rng.integers(-9, 10, (5, 5))
    upper = np.array([[1.0, 2.0], [0.0, 1.0]])
    for k in SCALES:
        assert frob(scaled(a, k)) == math.ldexp(frob(a), k)
        assert frob(scaled(a.real, k)) == math.ldexp(frob(a.real), k)
        with pytest.raises(NotHermitianError):
            eigh(scaled(upper, k))
        w = eigh(scaled(upper + upper.T, k)).values
        assert abs(math.ldexp(w[1], -k) - 4.0) < 1e-3  # subnormal at k = -1060
    assert frob(np.zeros((3, 3))) == 0.0
    assert frob(np.full((2, 2), 1e308)) == math.inf  # past float64's range, without an error
    # past float64's range eigh refuses a non-Hermitian matrix, also where
    # a - a^H itself overflows; LAPACK solves a Hermitian one, and an
    # eigenvalue past that range reads inf
    broken = np.full((4, 4), 1e308)
    broken[0, 1] = 0
    for m in (broken, np.array([[0, 1e308], [-0.9e308, 0]]), np.diag([1e308j, 0])):
        with pytest.raises(NotHermitianError):
            eigh(m)
    assert np.array_equal(eigh(np.diag([1e308] * 4)).values, [1e308] * 4)
    w = eigh(np.full((4, 4), 1e308)).values
    assert w[-1] == math.inf and np.all(np.abs(w[:-1]) < 1e-14 * 1e308)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.integers(-399, 400), st.integers(0, 2**32 - 1))
def test_unit_scale_is_exact_and_copies_nothing_in_range(rows, cols, is_complex, j, seed):
    """a with its largest real or imaginary part in [1/2, 1) (small integers
    times a power of two, so every scaling below is exact): a times 2^k is
    brought back to a's bits with e = k at scales where squares of its
    entries under- or overflow, and returned itself, with e = 0, at every
    scale 2^j that keeps that part within the norm range, as an all-zero
    array is."""
    rng = np.random.default_rng(seed)
    a = rng.integers(-1000, 1001, (rows, cols)) + (1j * rng.integers(-1000, 1001, (rows, cols)) if is_complex else 0)
    top = max(np.abs(a.real).max(), np.abs(np.imag(a)).max())
    assume(top > 0)
    a = scaled(a, -math.frexp(top)[1])
    for k in SCALES:
        s, e = linalg._unit(scaled(a, k))
        assert e == k and s.dtype == a.dtype and s.tobytes() == a.tobytes(), k
    for b in (scaled(a, j), np.zeros_like(a)):
        s, e = linalg._unit(b)
        assert s is b and e == 0


def test_eigh_residual_oracle(rng):
    a = random_hermitian(rng, 8)
    w, v = eigh(a)
    assert frob(a @ v - v * w[None, :]) <= EPS_LIN * frob(a) * 10
    assert frob(dagger(v) @ v - np.eye(8)) <= 1e-13
    assert np.all(np.diff(w) >= 0)


def test_eigh_real_symmetric_real_vectors(rng):
    a = rng.standard_normal((6, 6))
    a = 0.5 * (a + a.T)
    _, v = eigh(a)
    assert np.max(np.abs(v.imag)) < EPS_LIN


def test_eigh_exactly_real_input_runs_real_lapack(rng, monkeypatch):
    drivers = []
    numpy_eigh = np.linalg.eigh

    def spy(m):
        drivers.append(m.dtype)
        return numpy_eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    a = rng.standard_normal((9, 9))
    a = a + a.T
    w, v = eigh(a.astype(np.complex128))
    herm = random_hermitian(rng, 9)
    eigh(herm)
    assert drivers == [np.float64, np.complex128]
    assert v.dtype == np.complex128 and not v.imag.any()
    want_w, want_v = numpy_eigh(a.astype(np.complex128))
    assert np.max(np.abs(w - want_w)) <= 1e-12 * np.max(np.abs(want_w))
    # distinct eigenvalues: the same vectors up to sign, with the largest
    # entry of each positive
    assert np.allclose(np.abs(np.sum(v.conj() * want_v, axis=0)), 1.0, atol=1e-12)
    for k in range(9):
        assert v[np.argmax(np.abs(v[:, k])), k].real > 0


def test_schur_cases(rng):
    q, t = schur(np.diag([2.0, 5.0]))
    assert set(np.round(np.diag(t).real, 12)) == {2.0, 5.0}
    q, t = schur(pauli("x"))
    assert {round(z.real, 12) for z in np.diag(t)} == {1.0, -1.0}
    assert frob(np.tril(t, -1)) < EPS_LIN
    a = random_complex(rng, 6, 6)
    q, t = schur(a)
    assert frob(dagger(q) @ t @ q - a) <= EPS_LIN * frob(a) * 10
    assert frob(np.tril(t, -1)) <= EPS_LIN * frob(a)


_SCHUR_VS_SCIPY = """
import sys
import numpy as np
import scipy.linalg
from symtt import linalg
if linalg._zgees() is None:
    sys.exit(3)
rng = np.random.default_rng(1301)
differ = []
for n in (1, 2, 3, 5, 17, 64, 320):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for kind, x in (("complex", a), ("real", a.real), ("hermitian", a + a.conj().T), ("triangular", np.triu(a))):
        q, t = linalg.schur(x)
        ts, zs = scipy.linalg.schur(np.asarray(x, dtype=np.complex128), output="complex")
        if not (np.array_equal(t, ts) and np.array_equal(q, linalg.dagger(zs))):
            differ.append((n, kind))
print(differ)
"""


def test_schur_is_scipy_bit_for_bit():
    # numpy's and scipy's OpenBLAS both read the thread count when they load;
    # at two threads the larger sizes may give another, equally valid form
    src = str(Path(symtt.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _SCHUR_VS_SCIPY], env=env, capture_output=True, text=True)
    if run.returncode == 3:
        pytest.skip("numpy's LAPACK has no scipy_LAPACKE_zgees64_")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_schur_without_numpys_zgees_falls_back_to_scipy(monkeypatch, rng):
    cases = [random_complex(rng, n, n) for n in (1, 2, 6, 17)] + [pauli("x"), np.triu(random_complex(rng, 5, 5))]
    want = [schur(a) for a in cases]
    monkeypatch.setattr(linalg, "_zgees", lambda: None)
    for a, (q, t) in zip(cases, want):
        got_q, got_t = schur(a)
        assert np.array_equal(got_q, q) and np.array_equal(got_t, t)


def test_schur_unconverged_is_a_residual_error(monkeypatch):
    monkeypatch.setattr(linalg, "_zgees", lambda: lambda *args: 2)  # info > 0: the QR iteration failed
    with pytest.raises(ResidualError, match=r"^Schur iteration did not converge: zgees returned info = 2$"):
        schur(np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_fourier_matrix():
    assert np.allclose(fourier_matrix(1), [[1]])
    f2 = fourier_matrix(2)
    assert np.allclose(f2, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    f4 = fourier_matrix(4)
    assert frob(dagger(f4) @ f4 - np.eye(4)) <= EPS_LIN


def test_reconstruction_sweep(rng):
    for _ in range(100):
        n = int(rng.integers(2, 33))
        m = int(rng.integers(2, 33))
        a = random_complex(rng, n, m)
        u, s, vh = svd(a)
        assert frob(u @ np.diag(s) @ vh - a) <= EPS_LIN * frob(a)
        h = random_hermitian(rng, n)
        w, v = eigh(h)
        assert frob(v @ np.diag(w) @ dagger(v) - h) <= EPS_LIN * frob(h) * 10
        sq = random_complex(rng, n, n)
        q, t = schur(sq)
        assert frob(dagger(q) @ t @ q - sq) <= EPS_LIN * frob(sq) * 10


def test_require_bytes_names_the_allocation():
    require_bytes(2**30, "a buffer of 1073741824 bytes")
    with pytest.raises(TooLargeError) as exc:
        require_bytes(2**30 + 1, "a buffer of 1073741825 bytes")
    assert str(exc.value) == "a buffer of 1073741825 bytes, over the MAX_DENSE_BYTES guard of 1073741824 bytes"
    # the limit lives in errors alone, so patching linalg's name fails loudly
    assert not hasattr(linalg, "MAX_DENSE_BYTES")


_ONES = MPSState([np.ones((2, 1, 1))] * 2, boundary="open")


@pytest.mark.parametrize(
    "call",
    [
        lambda tmp: assemble(model("hx", 2)),
        lambda tmp: to_vector(_ONES),
        lambda tmp: orbits("10"),
        lambda tmp: dof_count(2, ["bitflip"]),
        lambda tmp: ti_construct(_ONES),
        lambda tmp: write_mps(tmp / "m.mps", _ONES),
        lambda tmp: reverse_normal_form(np.ones(4)),
        lambda tmp: ground_state(model("hx", 1)),
        lambda tmp: reverse_construct(_ONES),
        lambda tmp: from_vector(np.ones(4)),
    ],
    ids=["assemble", "to_vector", "orbits", "dof_count", "ti_construct", "write_mps", "reverse_normal_form",
         "ground_state_solve", "construct_invariance", "from_vector_tt_svd"],
)
def test_every_size_guard_reads_max_dense_bytes(call, tmp_path, monkeypatch):
    # each guard passes at the default limit and trips below its allocation
    call(tmp_path)
    monkeypatch.setattr(errors, "MAX_DENSE_BYTES", 3)
    with pytest.raises(TooLargeError, match="over the MAX_DENSE_BYTES guard of 3 bytes$"):
        call(tmp_path)
