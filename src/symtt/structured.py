"""Structure classification and transforms for symmetric persymmetric matrices.

Covers the split of a symmetric matrix into persymmetric and skew-persymmetric
parts, the orthogonal half-size block-diagonalization, eigenbases classified by
their behaviour under the exchange matrix, and circulant / omega-circulant
spectral transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotOmegaCirculantError,
    NotSymmetricError,
    NotSymPersymError,
    OddSizeError,
    ShapeMismatchError,
)
from .linalg import (
    as_cmatrix,
    as_cvector,
    dagger,
    eigh,
    exchange_matrix,
    fourier_matrix,
    frob,
    require_tol,
)

#: default relative tolerance for structure decisions
EPS_STRUCT = 1e-10
#: eigenvalue gap below which the two half-size blocks count as degenerate
EPS_GAP = 1e-8


@dataclass(frozen=True)
class StructureFlags:
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


def _flip2(a: np.ndarray) -> np.ndarray:
    """J a J as an exact entry permutation (reverse both axes)."""
    return a[::-1, ::-1]


def toeplitz_from(first_row, first_col) -> np.ndarray:
    r = as_cvector(first_row)
    c = as_cvector(first_col)
    n = len(r)
    out = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        out[i, i:] = r[: n - i]
        out[i:, i] = c[: n - i]
    return out


def circulant(first_row) -> np.ndarray:
    """Circulant matrix with the given first row."""
    return omega_circulant(first_row, 1.0)


def omega_circulant(first_row, omega: complex) -> np.ndarray:
    """omega-circulant matrix: wrapped entries pick up the factor omega."""
    r = as_cvector(first_row)
    n = len(r)
    out = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        out[i, i:] = r[: n - i]
        if i:
            out[i, :i] = omega * r[n - i :]
    return out


def _estimate_omega(a: np.ndarray, r: np.ndarray, thresh: float) -> complex | None:
    """Ratio of a wrapped entry to its first-row partner, or None."""
    n = len(r)
    best = None
    best_mag = thresh
    for k in range(1, n):
        if abs(r[n - k]) > best_mag:
            best_mag = abs(r[n - k])
            best = a[k, 0] / r[n - k]
    return best


def classify(a, tol: float = EPS_STRUCT) -> StructureFlags:
    """Decide every structure flag of ``a`` against ``tol`` (relative).

    Non-square input yields all-false flags rather than an error.
    """
    require_tol(tol)
    m = as_cmatrix(a)
    if m.shape[0] != m.shape[1]:
        return StructureFlags()
    n = m.shape[0]
    scale = frob(m)
    thresh = tol * scale

    def ok(res: np.ndarray) -> bool:
        return frob(res) <= thresh

    mt = m.T
    mjj = _flip2(m)
    r = m[0, :]
    flags = {
        "symmetric": ok(m - mt),
        "skew_symmetric": ok(m + mt),
        "hermitian": ok(m - dagger(m)),
        "persymmetric": ok(mjj - mt),
        "skew_persymmetric": ok(mjj + mt),
        "centrosymmetric": ok(mjj - m),
        "toeplitz": ok(m - toeplitz_from(r, m[:, 0])),
        "circulant": ok(m - circulant(r)),
        "skew_circulant": ok(m - omega_circulant(r, -1.0)),
        "diagonal": ok(m - np.diag(np.diag(m))),
    }

    omega: complex | None = None
    if flags["circulant"]:
        omega = 1.0 + 0.0j
    elif flags["skew_circulant"]:
        omega = -1.0 + 0.0j
    elif n > 1:
        cand = _estimate_omega(m, r, thresh)
        if (
            cand is not None
            and abs(abs(cand) - 1.0) <= max(tol, 1e-8)
            and ok(m - omega_circulant(r, cand))
        ):
            omega = complex(cand)
    return StructureFlags(omega=omega, **flags)


def persym_split(a) -> tuple[np.ndarray, np.ndarray]:
    """Split a symmetric matrix into persymmetric plus skew-persymmetric parts.

    Returns (p, s) with p symmetric persymmetric, s symmetric
    skew-persymmetric, and p + s reproducing a up to one rounding per entry
    (exact whenever the entry averages are representable).
    """
    m = as_cmatrix(a)
    if m.shape[0] != m.shape[1] or frob(m - m.T) > EPS_STRUCT * frob(m):
        raise NotSymmetricError("persym_split requires a symmetric square matrix")
    p = 0.5 * (m + _flip2(m))
    s = m - p
    return p, s


def _require_sym_persym(m: np.ndarray, real: bool = False) -> int:
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise NotSymPersymError(f"expected a square matrix, got shape {m.shape}")
    thresh = EPS_STRUCT * frob(m)
    if frob(m - m.T) > thresh or frob(_flip2(m) - m) > thresh:
        raise NotSymPersymError("matrix is not symmetric persymmetric")
    if real and frob(m.imag) > thresh:
        raise NotSymPersymError("matrix is not real")
    return n


def corner_blocks(a) -> tuple[np.ndarray, np.ndarray]:
    """Top-left and bottom-left m x m blocks of a symmetric persymmetric matrix.

    The returned pair (b, c) determines the whole matrix: the top-right block
    is c^T and the bottom-right block is J b J.
    """
    m = as_cmatrix(a)
    n = _require_sym_persym(m)
    if n % 2:
        raise OddSizeError(f"corner_blocks requires even size, got {n}")
    h = n // 2
    return m[:h, :h].copy(), m[h:, :h].copy()


@dataclass(frozen=True)
class BlockPair:
    b_plus: np.ndarray
    b_minus: np.ndarray
    q: np.ndarray


def block_diagonalize(a) -> BlockPair:
    """Orthogonal transform of a real symmetric persymmetric matrix to
    block-diagonal form diag(B + JC, B - JC) of half size.

    q @ a @ q.T == diag(b_plus, b_minus) within EPS_STRUCT, with orthogonal
    q = [[I, J], [I, -J]] / sqrt(2).
    """
    m = as_cmatrix(a)
    n = _require_sym_persym(m, real=True)
    if n % 2:
        raise OddSizeError(f"block_diagonalize requires even size, got {n}")
    h = n // 2
    eye = np.eye(h, dtype=np.complex128)
    j = exchange_matrix(h)
    q = np.block([[eye, j], [eye, -j]]) / np.sqrt(2.0)
    b_plus, b_minus = _half_blocks(m)
    return BlockPair(b_plus=b_plus, b_minus=b_minus, q=q)


def _half_blocks(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B + JC and B - JC of an even-order matrix, with B its top-left and C
    its bottom-left quarter; no structure check."""
    h = m.shape[0] // 2
    b, jc = m[:h, :h], m[h:, :h][::-1]  # jc = J @ C
    return b + jc, b - jc


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
    pair = block_diagonalize(a)
    ep = eigh(pair.b_plus)
    em = eigh(pair.b_minus)
    s2 = np.sqrt(2.0)
    sym = tuple(
        (float(w), np.concatenate([v, v[::-1]]) / s2)
        for w, v in zip(ep.values, ep.vectors.T)
    )
    skew = tuple(
        (float(w), np.concatenate([u, -u[::-1]]) / s2)
        for w, u in zip(em.values, em.vectors.T)
    )
    degenerate = bool(
        len(ep.values) > 0
        and len(em.values) > 0
        and np.min(np.abs(ep.values[:, None] - em.values[None, :])) < EPS_GAP
    )
    return ClassifiedEigenbasis(sym_pairs=sym, skew_pairs=skew, degenerate_flag=degenerate)


def circulant_eigenvalues(first_row) -> np.ndarray:
    """Spectrum of the circulant matrix with the given first row:
    sqrt(n) * (F_n @ r)."""
    r = as_cvector(first_row)
    if len(r) == 0:
        raise ShapeMismatchError("first row must be nonempty")
    n = len(r)
    return np.sqrt(n) * (fourier_matrix(n) @ r)


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
    if abs(abs(omega) - 1.0) > 1e-8:
        raise NotOmegaCirculantError(f"omega must have unit modulus, got |omega|={abs(omega):g}")
    if frob(m - omega_circulant(m[0, :], omega)) > EPS_STRUCT * frob(m):
        raise NotOmegaCirculantError("matrix does not match the omega-circulant pattern")
    root = np.exp(1j * np.angle(omega) / n)
    phases = root ** np.arange(n)
    d = np.diag(phases)
    circ = (np.conj(phases)[:, None] * m) * phases[None, :]
    return circ, d
