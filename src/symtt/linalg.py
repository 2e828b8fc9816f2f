"""Dense complex linear-algebra kernels shared by every other module.

Matrices are plain ``numpy.ndarray`` objects of dtype complex128; vectors are
1-D arrays.  The one exception is a float64 matrix given to ``eigh`` or
``structured.classify``: both keep it float64 (``_as_matrix``), so a real
Hamiltonian never gets a complex128 n x n copy.  The factorizations wrap
LAPACK (via numpy) and add the conventions the rest of the package relies
on:

* singular values descending, with the largest-magnitude entry of each left
  singular vector rotated to the real non-negative axis (reproducible factors),
* Hermitian eigenvalues ascending, eigenvector phases fixed the same way,
* strict Hermiticity checks before ``eigh``.

One scale rule serves every relative check of the package: ``_unit`` takes
an array to unit scale, times 2^-e with e the exponent of its largest real
or imaginary part (exact for every entry that stays normal), and returns the
array itself, with e = 0, when that part is 0 or within ``_NORM_RANGE``.  So
no flag, symmetry or Hermiticity decision depends on the input's scale.

``eigh`` runs a float64 input, or a complex one whose imaginary part is
exactly zero, through real LAPACK, several times faster than the complex
routine, and still returns complex128 vectors.  ``schur`` calls LAPACK's
zgees in the OpenBLAS that numpy's wheel bundles; only on a numpy without
that routine does it import ``scipy.linalg``, so on numpy's own wheels
nothing in this package loads scipy.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import BadParamsError, NotHermitianError, ResidualError, ShapeMismatchError, TooLargeError

#: relative residual tolerance the kernels are required to meet
EPS_LIN = 1e-12
#: relative singular-value cutoff defining numerical rank
EPS_RANK = 1e-12
#: the one size limit: bytes of each guarded dense allocation, and of the
#: entries an MPS1 file holds; compared only in ``require_bytes``
MAX_DENSE_BYTES = 2**30
#: a plain norm (a sum of squares) outside this range may have lost squares
#: to underflow or overflow; ``frob`` and ``_unit`` read it, nothing else
_NORM_RANGE = (2.0**-400, 2.0**400)


def as_cmatrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array with finite entries."""
    return _as_matrix(np.asarray(a, dtype=np.complex128))


def _as_matrix(a) -> np.ndarray:
    """A float64 ndarray as it is, anything else coerced to complex128; the
    result must be a 2-D array with finite entries, as in ``as_cmatrix``."""
    is_real = isinstance(a, np.ndarray) and a.dtype == np.float64
    m = a if is_real else np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a matrix, got array of ndim {m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatchError(f"matrix dimensions must be >= 1, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise BadParamsError("matrix entries must be finite (no NaN/Inf)")
    return m


def as_cvector(x) -> np.ndarray:
    """Coerce ``x`` to a 1-D complex128 array with finite entries."""
    v = np.asarray(x, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise BadParamsError("vector entries must be finite (no NaN/Inf)")
    return v


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack such as an MPS site)."""
    return a.conj().swapaxes(-1, -2)


def frob(a: np.ndarray) -> float:
    """Frobenius norm at any scale: a plain norm outside ``_NORM_RANGE`` is
    taken again at unit scale (the scale rule above) and scaled back, exactly."""
    with np.errstate(over="ignore"):  # taken again below; inf only past float64's range
        norm = float(np.linalg.norm(a))
        if _NORM_RANGE[0] <= norm <= _NORM_RANGE[1]:
            return norm
        s, e = _unit(np.asarray(a))
        return float(np.ldexp(np.linalg.norm(s), e)) if e else norm


def _unit(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a times 2^-e, e) by the scale rule of the module docstring."""
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    top = max(max(x.max(initial=0.0), -x.min(initial=0.0)) for x in parts)
    if top == 0 or _NORM_RANGE[0] <= top <= _NORM_RANGE[1]:
        return a, 0
    e = math.frexp(top)[1]
    if len(parts) == 1:
        return np.ldexp(a, -e), e
    out = np.empty(a.shape, dtype=np.complex128)
    out.real, out.imag = np.ldexp(a.real, -e), np.ldexp(a.imag, -e)
    return out, e


def _is_hermitian(a: np.ndarray, tol: float) -> bool:
    """||s - s^H||_F <= tol ||s||_F for s = a at unit scale (``_unit``)."""
    s = _unit(a)[0]
    return frob(s - dagger(s)) <= tol * frob(s)


def require_tol(tol: float) -> None:
    """Reject a tolerance that is not a finite number >= 0 (NaN included)."""
    if not 0.0 <= tol < np.inf:
        raise BadParamsError(f"tol must be a finite number >= 0, got {tol!r}")


def require_site_count(p) -> None:
    """Reject a site count that is not an int >= 1 (bools included)."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 1:
        raise BadParamsError(f"site count p must be an int >= 1, got {p!r}")


def require_bytes(nbytes: int, allocation: str) -> None:
    """Raise TooLargeError if ``nbytes`` is over MAX_DENSE_BYTES (read at call
    time); ``allocation`` names the allocation and its size."""
    if nbytes > MAX_DENSE_BYTES:
        raise TooLargeError(f"{allocation}, over the MAX_DENSE_BYTES guard of {MAX_DENSE_BYTES} bytes")


def require_square(a: np.ndarray) -> int:
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def kron(a, b) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    return np.kron(as_cmatrix(a), as_cmatrix(b))


class SvdResult(NamedTuple):
    u: np.ndarray
    sigma: np.ndarray
    vh: np.ndarray


class EighResult(NamedTuple):
    values: np.ndarray
    vectors: np.ndarray


def _fix_phases(u: np.ndarray, vh: np.ndarray | None) -> None:
    """Rotate each column of ``u`` so its largest-|entry| is real >= 0.

    The compensating phase goes into the paired row of ``vh`` (when that row
    exists), keeping the factorization product unchanged.  Operates in place.
    """
    for k in range(u.shape[1]):
        col = u[:, k]
        idx = int(np.argmax(np.abs(col)))
        z = col[idx]
        mag = abs(z)
        if mag == 0.0:
            continue
        phase = z / mag
        u[:, k] *= np.conj(phase)
        if vh is not None and k < vh.shape[0]:
            vh[k, :] *= phase


def svd(a, full_matrices: bool = False) -> SvdResult:
    """SVD with descending singular values and fixed left-vector phases."""
    m = as_cmatrix(a)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ResidualError(f"SVD did not converge: {exc}") from exc
    u = np.ascontiguousarray(u)
    vh = np.ascontiguousarray(vh)
    _fix_phases(u, vh)
    return SvdResult(u, s, vh)


def rank_from_sigma(sigma: np.ndarray, tol: float = 0.0) -> int:
    """Numerical rank: count of sigma above max(tol, EPS_RANK) * sigma[0]."""
    require_tol(tol)
    if len(sigma) == 0 or sigma[0] <= 0.0:
        return 1
    cutoff = max(tol, EPS_RANK) * sigma[0]
    return max(1, int(np.sum(sigma > cutoff)))


def split(a, tol: float = 0.0, d_max: int | None = None) -> SvdResult:
    """Thin SVD cut to rank_from_sigma(sigma, tol) columns, at most d_max."""
    u, s, vh = svd(a)
    r = rank_from_sigma(s, tol)
    if d_max is not None:
        r = min(r, d_max)
    return SvdResult(u[:, :r], s[:r], vh[:r])


def eigh(a) -> EighResult:
    """Hermitian eigendecomposition, eigenvalues ascending.

    A float64 input is solved as it is, and a complex one whose imaginary
    part is exactly zero through its real part, both in real arithmetic; the
    vectors come back as complex128 either way.  Raises NotHermitianError
    when ||a - a^H||_F > EPS_LIN * ||a||_F, compared at unit scale (the
    scale rule above); LAPACK scales a Hermitian a itself, and eigenvalues
    past float64's range come back inf.
    """
    m = _as_matrix(a)
    require_square(m)
    if not _is_hermitian(m, EPS_LIN):
        raise NotHermitianError(
            f"matrix is not Hermitian within {EPS_LIN:g} relative tolerance"
        )
    if np.iscomplexobj(m) and m.imag.any():
        w, v = np.linalg.eigh(m)
    else:
        w, v = np.linalg.eigh(m.real)
    v = np.ascontiguousarray(v, dtype=np.complex128)
    _fix_phases(v, None)
    return EighResult(w, v)


@functools.cache
def _zgees():
    """``LAPACKE_zgees`` of the ILP64 OpenBLAS bundled in numpy's wheel (every
    ``lapack_int`` 64-bit), or None for a numpy linked against another LAPACK."""
    import ctypes

    try:
        f = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_LAPACKE_zgees64_
    except AttributeError:
        return None
    i64, mat = ctypes.c_int64, np.ctypeslib.ndpointer(np.complex128, flags="F_CONTIGUOUS")
    f.restype = i64
    f.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_void_p, i64, mat, i64,
                  np.ctypeslib.ndpointer(np.int64), mat, mat, i64]
    return f


def schur(a) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form: returns (q, t) with a = q^H t q, t upper triangular.

    zgees with Schur vectors and no sorting, the routine and arguments
    ``scipy.linalg.schur(output="complex")`` uses; scipy is imported only
    when numpy lacks the routine (``_zgees``).
    """
    m = as_cmatrix(a)
    n = require_square(m)
    zgees = _zgees()
    if zgees is None:
        import scipy.linalg  # loading it costs ~0.25 s

        try:
            t, z = scipy.linalg.schur(m, output="complex")
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise ResidualError(f"Schur iteration did not converge: {exc}") from exc
        return dagger(z), t
    t, z = np.array(m, order="F"), np.empty((n, n), np.complex128, order="F")
    # column-major layout, jobvs, sort, select, then n, a, lda, sdim, w, vs, ldvs
    info = zgees(102, b"V", b"N", None, n, t, n, np.zeros(1, np.int64), np.empty(n, np.complex128), z, n)
    if info != 0:
        raise ResidualError(f"Schur iteration did not converge: zgees returned info = {info}")
    return dagger(z), t


def fourier_matrix(n: int) -> np.ndarray:
    """Unitary Fourier matrix, f[j, k] = exp(2 pi i j k / n) / sqrt(n)."""
    if n < 1:
        raise BadParamsError(f"order must be >= 1, got {n}")
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def exchange_matrix(n: int) -> np.ndarray:
    """Anti-identity permutation matrix of size n (entries exactly 0/1)."""
    if n < 1:
        raise BadParamsError(f"order must be >= 1, got {n}")
    return np.fliplr(np.eye(n, dtype=np.complex128))


def _flip2(a: np.ndarray) -> np.ndarray:
    """J a J as an exact entry permutation (reverse both axes)."""
    return a[::-1, ::-1]
