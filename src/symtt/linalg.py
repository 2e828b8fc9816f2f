"""Dense complex linear-algebra kernels shared by every other module.

Matrices are plain ``numpy.ndarray`` objects of dtype complex128; vectors are
1-D arrays.  The one exception is a float64 matrix given to ``eigh`` or
``structured.classify``: both keep it float64 (``_as_matrix``), so a real
Hamiltonian never gets a complex128 n x n copy.  The factorizations wrap
LAPACK (via numpy/scipy) and add the conventions the rest of the package
relies on:

* singular values descending, with the largest-magnitude entry of each left
  singular vector rotated to the real non-negative axis (reproducible factors),
* Hermitian eigenvalues ascending, eigenvector phases fixed the same way,
* strict Hermiticity checks before ``eigh``.

``eigh`` runs a float64 input, or a complex one whose imaginary part is
exactly zero, through real LAPACK, several times faster than the complex
routine, and still returns complex128 vectors.  Only ``schur`` needs scipy,
and it imports ``scipy.linalg`` itself, so importing this package (and
starting the CLI) never loads scipy.
"""

from __future__ import annotations

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
    """Frobenius norm."""
    return float(np.linalg.norm(a))


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


def kron_chain(factors) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


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
    when ||a - a^H||_F > EPS_LIN * ||a||_F.
    """
    m = _as_matrix(a)
    require_square(m)
    scale = frob(m)
    if frob(m - dagger(m)) > EPS_LIN * scale:
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


def schur(a) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form: returns (q, t) with a = q^H t q, t upper triangular."""
    import scipy.linalg  # the one scipy user; loading it costs ~0.25 s

    m = as_cmatrix(a)
    require_square(m)
    try:
        t, z = scipy.linalg.schur(m, output="complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ResidualError(f"Schur iteration did not converge: {exc}") from exc
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
