"""Structure classification and transforms for symmetric persymmetric matrices.

Covers the split of a symmetric matrix into persymmetric and skew-persymmetric
parts, the orthogonal half-size block-diagonalization, eigenbases classified by
their behaviour under the exchange matrix, and circulant / omega-circulant
spectral transforms.

J, q = [[I, J], [I, -J]] / sqrt(2) and the Fourier matrix are applied, never
built: J A J is the index reversal ``_flip2``, ``_half_blocks`` gives the
blocks B + JC and B - JC, ``_lift`` takes their eigenvectors back to full
order, ``BlockPair.q`` is built when read, and circulant spectra are an FFT.

``classify`` decides every structure flag, and returns the residual behind
each, in one pass over blocks of 32 rows.  A float64 input stays float64,
and a complex one whose imaginary part is exactly zero is checked through
its float64 view; the results are the same either way.  The pass needs
O(32 n) temporaries, and reads only the blocks it is given:
``hamiltonian.certify_structure`` feeds it blocks scattered from a model's
nonzeros, with no n x n matrix.  The symmetry and omega-circulant checks of
the transforms use the same pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._constants import EPS_STRUCT
from .errors import (
    BadParamsError,
    NotOmegaCirculantError,
    NotSymmetricError,
    NotSymPersymError,
    OddSizeError,
    ShapeMismatchError,
)
from .linalg import (
    _as_matrix,
    as_cmatrix,
    as_cvector,
    eigh,
    frob,
    require_tol,
)

#: eigenvalue gap below which the two half-size blocks count as degenerate
EPS_GAP = 1e-8
#: rows per block of the residual pass
_BLOCK_ROWS = 32
#: the boolean flags of StructureFlags, each decided by one residual
_FLAG_NAMES = ("symmetric", "skew_symmetric", "hermitian", "persymmetric", "skew_persymmetric",
               "centrosymmetric", "toeplitz", "circulant", "skew_circulant", "diagonal")


@dataclass(frozen=True)
class StructureFlags:
    """Structure flags of a square matrix; ``residuals`` maps each flag name
    (and ``omega`` when it is set) to the Frobenius norm of the residual that
    decided it.  Equality and hashing ignore ``residuals``."""

    symmetric: bool = False
    skew_symmetric: bool = False
    hermitian: bool = False
    persymmetric: bool = False
    skew_persymmetric: bool = False
    centrosymmetric: bool = False
    toeplitz: bool = False
    circulant: bool = False
    skew_circulant: bool = False
    diagonal: bool = False
    omega: complex | None = None
    residuals: dict[str, float] = field(default_factory=dict, compare=False)


def _flip2(a: np.ndarray) -> np.ndarray:
    """J a J as an exact entry permutation (reverse both axes)."""
    return a[::-1, ::-1]


def _band(v: np.ndarray) -> np.ndarray:
    """The n x n matrix with entries v[n - 1 + j - i], as a zero-copy view of
    the length-(2n - 1) vector ``v``."""
    return sliding_window_view(v, (len(v) + 1) // 2)[::-1]


def _toeplitz_band(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    return _band(np.concatenate([c[::-1], r[1:]]))


def _omega_band(r: np.ndarray, omega) -> np.ndarray:
    return _band(np.concatenate([omega * r[1:], r]))


def toeplitz_from(first_row, first_col) -> np.ndarray:
    """Toeplitz matrix with the given first row and first column.

    Entry (i, j) is first_row[j - i] above the diagonal and first_col[i - j]
    on and below it, so the diagonal is first_col[0] and first_row[0] is not
    read.
    """
    r = as_cvector(first_row)
    c = as_cvector(first_col)
    if len(r) == 0 or len(c) != len(r):
        raise ShapeMismatchError(
            f"first row and column must be nonempty and of equal length, got {len(r)} and {len(c)}"
        )
    return _toeplitz_band(r, c).copy()


def circulant(first_row) -> np.ndarray:
    """Circulant matrix with the given first row."""
    return omega_circulant(first_row, 1.0)


def omega_circulant(first_row, omega: complex) -> np.ndarray:
    """omega-circulant matrix: wrapped entries pick up the factor omega."""
    r = as_cvector(first_row)
    if len(r) == 0:
        raise ShapeMismatchError("first row must be nonempty")
    if not np.isfinite(omega):
        raise BadParamsError(f"omega must be finite, got {omega!r}")
    return _omega_band(r, omega).copy()


#: residuals on one block of rows: a of m, at of m^T and jaj of J m J
_BLOCK_RESIDUALS = {
    "symmetric": lambda a, at, jaj: a - at,
    "skew_symmetric": lambda a, at, jaj: a + at,
    "hermitian": lambda a, at, jaj: a - at.conj(),
    "persymmetric": lambda a, at, jaj: jaj - at,
    "skew_persymmetric": lambda a, at, jaj: jaj + at,
    "centrosymmetric": lambda a, at, jaj: jaj - a,
}


def _dense_views(m: np.ndarray):
    """First row, first column and row blocks of a dense square ``m`` for
    ``_residual_norms``: a complex128 ``m`` whose imaginary part is exactly
    zero is read through its float64 view, every block row is a view, and
    each block's columns are one contiguous copy."""
    if np.iscomplexobj(m) and not m.imag.any():
        m = m.real
    mjj = _flip2(m)
    blocks = ((i, m[i : i + _BLOCK_ROWS], m[:, i : i + _BLOCK_ROWS].T.copy(), mjj[i : i + _BLOCK_ROWS])
              for i in range(0, len(m), _BLOCK_ROWS))
    return m[0], m[:, 0], blocks


def _residual_norms(r: np.ndarray, c: np.ndarray, blocks, names, omega=None) -> dict[str, float]:
    """Frobenius norm of each named structure residual of a square matrix m,
    given its first row ``r``, first column ``c`` and ``blocks``.

    The names are those of ``_FLAG_NAMES`` and ``"omega"`` (m minus the
    omega-circulant of its first row).  ``blocks`` yields, for consecutive
    blocks of rows from row i on, (i, rows of m, the same rows of m^T, the
    same rows of J m J), as dense arrays of equal shape; ``_dense_views``
    gives them for a dense m, ``hamiltonian.certify_structure`` scatters
    them from a model's nonzeros.  One pass over the blocks adds up every
    squared residual; the Toeplitz and circulant rows are views of bands
    built from r and c.  The norms depend only on the blocks' values, so
    equal blocks give bit-identical norms however they were made.
    """
    bands = {
        "toeplitz": _toeplitz_band(r, c),
        "circulant": _omega_band(r, 1.0),
        "skew_circulant": _omega_band(r, -1.0),
    }
    if omega is not None:
        bands["omega"] = _omega_band(r, omega)
    sums = dict.fromkeys(names, 0.0)
    for i, a, at, jaj in blocks:
        blk = slice(i, i + len(a))
        for name in names:
            if name in bands:
                res = a - bands[name][blk]
            elif name == "diagonal":
                res = a.copy()
                np.fill_diagonal(res[:, i:], 0)
            else:
                res = _BLOCK_RESIDUALS[name](a, at, jaj)
            sums[name] += np.vdot(res, res).real
    return {name: math.sqrt(s) for name, s in sums.items()}


def _estimate_omega(r: np.ndarray, c: np.ndarray, thresh: float) -> complex | None:
    """Ratio c[k] / r[n - k] of a wrapped entry a[k, 0] to its first-row
    partner a[0, n - k], at the first k with the largest |r[n - k]| above
    ``thresh``; None if there is no such k."""
    wrapped = r[:0:-1]  # a[0, n - k] for k = 1 .. n - 1
    if len(wrapped) == 0:
        return None
    # np.hypot rounds like the scalar abs; np.abs(complex) may differ in the
    # last bit and so break ties between equal magnitudes differently
    mags = np.hypot(wrapped.real, wrapped.imag)
    k = int(np.argmax(mags)) + 1
    if mags[k - 1] <= thresh:
        return None
    # a complex division, also for float64 entries: it rounds unlike a / b
    return np.complex128(c[k]) / wrapped[k - 1]


def classify(a, tol: float = EPS_STRUCT) -> StructureFlags:
    """Decide every structure flag of ``a`` against ``tol`` (relative).

    A flag holds when the Frobenius norm of its residual is at most
    ``tol * ||a||_F``; all residuals come from one pass over the rows (see
    ``_residual_norms``).  Non-square input yields all-false flags rather
    than an error.  A float64 ``a`` is not copied to complex128.
    """
    require_tol(tol)
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        return StructureFlags()
    return _classify(*_dense_views(m), frob(m), tol)


def _classify(r: np.ndarray, c: np.ndarray, blocks, norm: float, tol: float) -> StructureFlags:
    """``classify`` of the square matrix with first row ``r``, first column
    ``c``, residual blocks ``blocks`` (see ``_residual_norms``) and
    Frobenius norm ``norm``."""
    thresh = tol * norm
    cand = _estimate_omega(r, c, thresh)
    if cand is not None and abs(abs(cand) - 1.0) > max(tol, 1e-8):
        cand = None
    res = _residual_norms(r, c, blocks, _FLAG_NAMES if cand is None else (*_FLAG_NAMES, "omega"), cand)
    flags = {name: res[name] <= thresh for name in _FLAG_NAMES}

    omega: complex | None = None
    if flags["circulant"]:
        omega, res["omega"] = 1.0 + 0.0j, res["circulant"]
    elif flags["skew_circulant"]:
        omega, res["omega"] = -1.0 + 0.0j, res["skew_circulant"]
    elif cand is not None and res["omega"] <= thresh:
        omega = complex(cand)
    else:
        res.pop("omega", None)
    return StructureFlags(omega=omega, residuals=res, **flags)


def persym_split(a) -> tuple[np.ndarray, np.ndarray]:
    """Split a symmetric matrix into persymmetric plus skew-persymmetric parts.

    Returns (p, s) with p symmetric persymmetric, s symmetric
    skew-persymmetric, and p + s reproducing a up to one rounding per entry
    (exact whenever the entry averages are representable).
    """
    m = as_cmatrix(a)
    square = m.shape[0] == m.shape[1]
    if not square or _residual_norms(*_dense_views(m), ("symmetric",))["symmetric"] > EPS_STRUCT * frob(m):
        raise NotSymmetricError("persym_split requires a symmetric square matrix")
    p = 0.5 * (m + _flip2(m))
    s = m - p
    return p, s


def _require_sym_persym(m: np.ndarray, caller: str, real: bool = False) -> int:
    """Half the order of a symmetric persymmetric (and ``real``) even-order m."""
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise NotSymPersymError(f"expected a square matrix, got shape {m.shape}")
    thresh = EPS_STRUCT * frob(m)
    if max(_residual_norms(*_dense_views(m), ("symmetric", "centrosymmetric")).values()) > thresh:
        raise NotSymPersymError("matrix is not symmetric persymmetric")
    if real and frob(m.imag) > thresh:
        raise NotSymPersymError("matrix is not real")
    if n % 2:
        raise OddSizeError(f"{caller} requires even size, got {n}")
    return n // 2


def corner_blocks(a) -> tuple[np.ndarray, np.ndarray]:
    """Top-left and bottom-left m x m blocks of a symmetric persymmetric matrix.

    The returned pair (b, c) determines the whole matrix: the top-right block
    is c^T and the bottom-right block is J b J.
    """
    m = as_cmatrix(a)
    h = _require_sym_persym(m, "corner_blocks")
    return m[:h, :h].copy(), m[h:, :h].copy()


@dataclass(frozen=True)
class BlockPair:
    b_plus: np.ndarray
    b_minus: np.ndarray

    @property
    def q(self) -> np.ndarray:
        """The orthogonal q = [[I, J], [I, -J]] / sqrt(2), built on access."""
        eye = np.eye(len(self.b_plus), dtype=np.complex128)
        j = eye[::-1]
        return np.block([[eye, j], [eye, -j]]) / np.sqrt(2.0)


def block_diagonalize(a) -> BlockPair:
    """Orthogonal transform of a real symmetric persymmetric matrix to
    block-diagonal form diag(B + JC, B - JC) of half size.

    q @ a @ q.T == diag(b_plus, b_minus) within EPS_STRUCT, with orthogonal
    q = [[I, J], [I, -J]] / sqrt(2).
    """
    m = as_cmatrix(a)
    _require_sym_persym(m, "block_diagonalize", real=True)
    return BlockPair(*_half_blocks(m))


def _half_blocks(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B + JC and B - JC of an even-order matrix, with B its top-left and C
    its bottom-left quarter; no structure check."""
    h = m.shape[0] // 2
    b, jc = m[:h, :h], m[h:, :h][::-1]  # jc = J @ C
    return b + jc, b - jc


def _lift(u: np.ndarray, sign: float) -> np.ndarray:
    """(u; sign * J u) / sqrt(2) for a vector u or each column of u: B + JC
    (sign 1) or B - JC (sign -1) eigenvectors as ones of the whole matrix."""
    return np.concatenate([u, sign * u[::-1]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class ClassifiedEigenbasis:
    sym_pairs: tuple[tuple[float, np.ndarray], ...]
    skew_pairs: tuple[tuple[float, np.ndarray], ...]
    degenerate_flag: bool


def classified_eigenbasis(a) -> ClassifiedEigenbasis:
    """Eigenbasis of a real symmetric persymmetric matrix, split into
    exchange-symmetric vectors (J v = v) and exchange-skew vectors (J v = -v).

    Eigenpairs of the B + JC block lift to (v; Jv)/sqrt(2); eigenpairs of
    B - JC lift to (u; -Ju)/sqrt(2).  When the two blocks share an eigenvalue
    closer than ``EPS_GAP`` the classification is not reliable and
    ``degenerate_flag`` is set.
    """
    m = as_cmatrix(a)
    _require_sym_persym(m, "classified_eigenbasis", real=True)
    ep, em = (eigh(b) for b in _half_blocks(m))
    sym = tuple(zip(ep.values.tolist(), _lift(ep.vectors, 1.0).T))
    skew = tuple(zip(em.values.tolist(), _lift(em.vectors, -1.0).T))
    degenerate = bool(np.min(np.abs(ep.values[:, None] - em.values[None, :])) < EPS_GAP)
    return ClassifiedEigenbasis(sym_pairs=sym, skew_pairs=skew, degenerate_flag=degenerate)


def circulant_eigenvalues(first_row) -> np.ndarray:
    """Spectrum of the circulant matrix with the given first row:
    sqrt(n) * (F_n @ r) = n * ifft(r), with F_n the unitary Fourier matrix."""
    r = as_cvector(first_row)
    if len(r) == 0:
        raise ShapeMismatchError("first row must be nonempty")
    return len(r) * np.fft.ifft(r)


def omega_to_circulant(c, omega: complex) -> tuple[np.ndarray, np.ndarray]:
    """Transform an omega-circulant matrix to a plain circulant one.

    Returns (circ, d) with d = diag(omega^(j/n)) unitary diagonal (principal
    branch of the n-th root) and circ = d^H @ c @ d circulant; the first row
    of circ is omega^(k/n) * r_k.
    """
    m = as_cmatrix(c)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise NotOmegaCirculantError(f"expected a square matrix, got shape {m.shape}")
    if not abs(abs(omega) - 1.0) <= 1e-8:
        raise NotOmegaCirculantError(f"omega must have unit modulus, got |omega|={abs(omega):g}")
    if _residual_norms(*_dense_views(m), ("omega",), omega)["omega"] > EPS_STRUCT * frob(m):
        raise NotOmegaCirculantError("matrix does not match the omega-circulant pattern")
    root = np.exp(1j * np.angle(omega) / n)
    phases = root ** np.arange(n)
    d = np.diag(phases)
    circ = (np.conj(phases)[:, None] * m) * phases[None, :]
    return circ, d
