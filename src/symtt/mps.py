"""Matrix product state / tensor train representations of 2^p-vectors.

Conventions used throughout:

* component i of the represented vector is the trace of
  A_1^(i_1) A_2^(i_2) ... A_p^(i_p), where (i_1, ..., i_p) are the bits of i
  with i_1 most significant;
* site j is one C-contiguous complex128 array of shape (2, D_j, D_{j+1}),
  the three-index core of a tensor train: ``site[b]`` is the matrix
  A_j^(b), and ``a0, a1 = m.sites[j]`` unpacks the pair; open boundary means
  D_1 = D_{p+1} = 1, periodic means D_1 = D_{p+1} (trace then matters);
* "left gauge" at a site: A0^H A0 + A1^H A1 = I; "right gauge":
  A0 A0^H + A1 A1^H = I.

Every contraction to components (``eval_component``, ``to_vector`` and the
reverse normal form's vector) goes through one fold, ``_contract``; every
rank cut (TT-SVD, sweeps, truncation) goes through ``linalg.split``, whose
factors are reshaped into sites without splitting them into matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParamsError,
    GaugeViolationError,
    NotNormalizedError,
    ShapeMismatchError,
    ZeroVectorError,
    require_bytes,
)
from .linalg import as_cvector, dagger, frob, require_tol, split, svd

#: largest left-gauge residual strong_normalize accepts on its input
EPS_GAUGE = 1e-8
#: complex128 arrays of length 2^p that the TT-SVD holds: on full-rank inputs
#: at p = 16 to 20 its tracemalloc peak is 4.2 to 4.6 (5.35 by ``vidal_from_vector``),
#: its max RSS with LAPACK's work arrays 15.7 at p = 16 and 11.1 at p = 20
_TT_SVD_ARRAYS = 16


class MPSState:
    """Immutable chain of MPS sites.

    Each site is stored as one read-only C-contiguous complex128 array of
    shape (2, D_j, D_{j+1}) holding the pair (A_j^(0), A_j^(1)), so
    ``a0, a1 = m.sites[j]`` still unpacks it.  Sites passed as the same
    object share one core, so a site-independent chain such as
    ``MPSState([(a0, a1)] * p)`` holds one site's numbers.

    Parameters
    ----------
    sites : sequence of (a0, a1) pairs or (2, D_j, D_{j+1}) arrays, one per
        physical site; each distinct object is copied once
    boundary : "open" or "periodic"
    """

    __slots__ = ("sites", "boundary")

    def __init__(self, sites, boundary: str = "open"):
        if boundary not in ("open", "periodic"):
            raise BadParamsError(f"boundary must be 'open' or 'periodic', got {boundary!r}")
        cores = []
        copied = {}  # id(pair) -> (pair, core); holding the pair keeps its id unique
        for j, pair in enumerate(sites):
            if id(pair) in copied:
                cores.append(copied[id(pair)][1])
                continue
            try:
                core = np.array(pair, dtype=np.complex128, order="C")
            except ValueError:  # numpy's error for matrices of unequal shape
                core = None
            if core is None or core.ndim != 3 or len(core) != 2:
                raise ShapeMismatchError(f"site {j + 1}: the two matrices must share a 2-D shape")
            core.flags.writeable = False
            copied[id(pair)] = (pair, core)
            cores.append(core)
        if not cores:
            raise ShapeMismatchError("an MPS needs at least one site")
        for j in range(len(cores) - 1):
            if cores[j].shape[2] != cores[j + 1].shape[1]:
                raise ShapeMismatchError(
                    f"bond mismatch between sites {j + 1} and {j + 2}: "
                    f"{cores[j].shape[1:]} -> {cores[j + 1].shape[1:]}"
                )
        first, last = cores[0].shape[1], cores[-1].shape[2]
        if boundary == "open" and (first != 1 or last != 1):
            raise ShapeMismatchError("open boundary requires D_1 = D_{p+1} = 1")
        if boundary == "periodic" and first != last:
            raise ShapeMismatchError("periodic boundary requires D_1 = D_{p+1}")
        self.sites = tuple(cores)
        self.boundary = boundary

    @property
    def p(self) -> int:
        return len(self.sites)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.shape[1] for s in self.sites) + (self.sites[-1].shape[2],)

    def __repr__(self):
        return f"MPSState(p={self.p}, boundary={self.boundary!r}, dims={self.dims})"


def _contract(choices) -> np.ndarray:
    """Traces of all products C_1 C_2 ... C_p, C_j taken from ``choices[j]``.

    ``choices[j]`` stacks the k_j candidate matrices of site j as an array of
    shape (k_j, D_j, D_{j+1}).  The fold runs from the right, one stacked
    matmul per site, so the site-1 choice varies slowest in the result (the
    binary index convention when every k_j = 2).
    """
    d = choices[-1].shape[2]
    acc = np.eye(d, dtype=np.complex128)[None]
    for c in reversed(choices):
        acc = np.matmul(c[:, None], acc[None]).reshape(-1, c.shape[1], d)
    return np.trace(acc, axis1=1, axis2=2)


def eval_component(m: MPSState, bits) -> complex:
    """Trace of the site-matrix product selected by ``bits`` (0/1 integers
    or a string of '0' and '1')."""
    bits = list(bits)
    if len(bits) != m.p:
        raise ShapeMismatchError(f"need {m.p} bits, got {len(bits)}")
    if any(str(b) not in ("0", "1") for b in bits):
        raise BadParamsError(f"bits must be 0 or 1, got {bits}")
    picked = [site[int(b)][None] for site, b in zip(m.sites, bits)]
    return complex(_contract(picked)[0])


def to_vector(m: MPSState) -> np.ndarray:
    """Dense vector of all 2^p components, index bit i_1 most significant.

    ``_contract`` holds 2^(p-j+1) D_j x D_{p+1} matrices after folding sites
    j..p, beside the previous accumulator (the last one beside the 2^p
    output), so twice the largest must fit in MAX_DENSE_BYTES.
    """
    dims = m.dims
    nbytes = 16 * dims[-1] * max(2 ** (m.p - j) * dims[j] for j in range(m.p))
    require_bytes(2 * nbytes, f"contraction needs {2 * nbytes} bytes for two {nbytes}-byte accumulators")
    return _contract(m.sites)


def _tt_cores(x: np.ndarray, tol: float) -> tuple[list, list]:
    """TT-SVD sweep; returns (sites, per-bond singular values)."""
    n = len(x)
    p = n.bit_length() - 1
    if 2**p != n:
        raise ShapeMismatchError(f"vector length {n} is not a power of two")
    nbytes = _TT_SVD_ARRAYS * 16 * n
    require_bytes(nbytes, f"the TT-SVD of 2^{p} components needs {nbytes} bytes")
    sites = []
    lambdas = []
    c = x.reshape(1, n)
    for _ in range(p - 1):
        c = c.reshape(c.shape[0] * 2, -1)
        u, s, vh = split(c, tol)
        if s[0] == 0.0:
            raise ZeroVectorError("vector must be nonzero")
        # row index of c is (bond, bit) with the bit fastest
        sites.append(u.reshape(-1, 2, len(s)).swapaxes(0, 1))
        lambdas.append(s)
        c = s[:, None] * vh
    sites.append(c.T[:, :, None])
    return sites, lambdas


def from_vector(x, tol: float = 0.0) -> MPSState:
    """Exact (tol = 0) or rank-truncated open-boundary decomposition of x.

    Bond dimension D_{j+1} is the numerical rank of the matricization that
    splits bits (i_1..i_j) from (i_{j+1}..i_p), at relative cutoff
    max(tol, EPS_RANK).  The result is left-normalized at every site except
    the last.
    """
    require_tol(tol)
    v = as_cvector(x)
    if len(v) < 2 or not np.any(v):
        raise ZeroVectorError("vector must be nonzero, of length 2^p with p >= 1")
    sites, _ = _tt_cores(v, tol)
    return MPSState(sites, boundary="open")


@dataclass(frozen=True)
class GaugeReport:
    """Per-site Frobenius residuals of the gauge conditions.

    ``left``/``right`` are the usual one-condition residuals; ``strong`` adds
    the off-diagonal mass of A0^H A0.  ``vidal_left``/``vidal_right`` are only
    filled by :func:`check_vidal` (both conditions per site).  ``max_residual``
    is the maximum over everything that was evaluated.
    """

    left: tuple[float, ...] | None = None
    right: tuple[float, ...] | None = None
    strong: tuple[float, ...] | None = None
    vidal_left: tuple[float, ...] | None = None
    vidal_right: tuple[float, ...] | None = None

    @property
    def max_residual(self) -> float:
        parts = [v for v in (self.left, self.right, self.strong, self.vidal_left, self.vidal_right) if v]
        return max((max(v) for v in parts), default=0.0)


def _left_residual(site) -> float:
    g = (dagger(site) @ site).sum(axis=0)
    return frob(g - np.eye(g.shape[0]))


def _right_residual(site) -> float:
    g = (site @ dagger(site)).sum(axis=0)
    return frob(g - np.eye(g.shape[0]))


def _strong_residual(site) -> float:
    g0 = dagger(site[0]) @ site[0]
    off = frob(g0 - np.diag(np.diag(g0)))
    return max(_left_residual(site), off)


def check_gauge(m: MPSState) -> GaugeReport:
    """Left, right, and strong gauge residuals at every site."""
    left = tuple(map(_left_residual, m.sites))
    right = tuple(map(_right_residual, m.sites))
    strong = tuple(map(_strong_residual, m.sites))
    return GaugeReport(left=left, right=right, strong=strong)


@dataclass(frozen=True)
class VidalForm:
    """Gamma/Lambda factorization: p sites of shape (2, D_j, D_{j+1}) and p-1
    positive descending singular-value vectors (the Schmidt coefficients of
    each bond)."""

    gammas: tuple[np.ndarray, ...]
    lambdas: tuple[np.ndarray, ...]

    @property
    def p(self) -> int:
        return len(self.gammas)


def vidal_from_vector(x) -> VidalForm:
    """Gamma/Lambda decomposition of a unit-norm vector.

    The left-normalized cores are rescaled by the inverse bond singular
    values; only values above the rank cutoff are ever retained, so no
    division by (numerically) zero occurs.
    """
    v = as_cvector(x)
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise NotNormalizedError("vidal_from_vector requires a unit-norm vector")
    sites, lambdas = _tt_cores(v, 0.0)
    gammas = [sites[0]] + [(1.0 / lam)[:, None] * site for lam, site in zip(lambdas, sites[1:])]
    return VidalForm(gammas=tuple(gammas), lambdas=tuple(lambdas))


def vidal_to_a(v: VidalForm, side: str = "left") -> MPSState:
    """Contract the Lambda factors into the Gamma chain.

    side="left" gives A_j = Lambda_{j-1} Gamma_j (left-normalized);
    side="right" gives A_j = Gamma_j Lambda_j (right-normalized).
    """
    if side not in ("left", "right"):
        raise BadParamsError(f"side must be 'left' or 'right', got {side!r}")
    if side == "left":
        lams = [1.0] + [lam[:, None] for lam in v.lambdas]
    else:
        lams = [lam[None, :] for lam in v.lambdas] + [1.0]
    return MPSState([lam * np.asarray(g) for lam, g in zip(lams, v.gammas)], boundary="open")


def check_vidal(v: VidalForm) -> GaugeReport:
    """Residuals of both normalization conditions, in both directions.

    For each site the left pair is A^H A summing to I and A Lambda_j^2 A^H
    summing to Lambda_{j-1}^2 (A the left contraction); the right pair is the
    mirrored statement on the right contraction.
    """
    lam2 = [np.array([1.0])] + [lam**2 for lam in v.lambdas] + [np.array([1.0])]
    vidal_left = []
    vidal_right = []
    sites = zip(vidal_to_a(v, "left").sites, vidal_to_a(v, "right").sites)
    for j, (a, b) in enumerate(sites):
        g = (a @ np.diag(lam2[j + 1]) @ dagger(a)).sum(axis=0)
        vidal_left.append(max(_left_residual(a), frob(g - np.diag(lam2[j]))))
        g = (dagger(b) @ np.diag(lam2[j]) @ b).sum(axis=0)
        vidal_right.append(max(_right_residual(b), frob(g - np.diag(lam2[j + 1]))))
    return GaugeReport(vidal_left=tuple(vidal_left), vidal_right=tuple(vidal_right))


def _sweep_pair(a: np.ndarray, b: np.ndarray, direction: str):
    """SVD re-gauge of two neighboring sites; preserves all four products."""
    dl, dr = a.shape[1], b.shape[2]
    # row index of t is (left bit, D_j), column index (right bit, D_{j+2})
    t = (a[:, None] @ b[None]).swapaxes(1, 2).reshape(2 * dl, 2 * dr)
    u, s, vh = split(t)
    if direction == "left":
        vh = s[:, None] * vh
    else:
        u = u * s[None, :]
    return u.reshape(2, dl, len(s)), vh.reshape(len(s), 2, dr).swapaxes(0, 1)


def two_site_sweep(m: MPSState, direction: str) -> MPSState:
    """One full nearest-neighbor SVD sweep.

    direction="left" leaves every site but the carrier left-normalized,
    direction="right" right-normalized.  The carrier ends at the last site,
    except for the open-boundary right sweep where it ends at site 1.  The
    represented vector is preserved.
    """
    if direction not in ("left", "right"):
        raise BadParamsError(f"direction must be 'left' or 'right', got {direction!r}")
    sites = list(m.sites)
    p = len(sites)
    if direction == "left":
        for j in range(p - 1):
            sites[j], sites[j + 1] = _sweep_pair(sites[j], sites[j + 1], "left")
    else:
        for j in range(p - 2, -1, -1):
            sites[j], sites[j + 1] = _sweep_pair(sites[j], sites[j + 1], "right")
        if m.boundary == "periodic" and p > 1:
            # push the carrier through the wrap bond so it lands on site p
            sites[p - 1], sites[0] = _sweep_pair(sites[p - 1], sites[0], "right")
    return MPSState(sites, boundary=m.boundary)


def strong_normalize(m: MPSState) -> MPSState:
    """Rotate a left-normalized open chain so every A0^H A0 becomes diagonal.

    Site by site, the upper matrix is factored (through the accumulated bond
    rotation) as U Sigma V; the site keeps U Sigma while V travels into the
    next site.  Columns then stay orthogonal for both matrices of every pair,
    and the first site becomes exactly ((1, 0), (0, 1)) whenever its bond
    dimension is 2.
    """
    if m.boundary != "open":
        raise GaugeViolationError("strong normalization is defined for open chains")
    worst = max(map(_left_residual, m.sites[:-1]), default=0.0)
    if worst > EPS_GAUGE:
        raise GaugeViolationError(
            f"input must be left-normalized (worst site residual {worst:.2e})"
        )
    out = []
    prev = np.eye(1, dtype=np.complex128)
    p = m.p
    for j, site in enumerate(m.sites):
        if j == p - 1:
            out.append(prev @ site)
            break
        a0, a1 = site
        if j == 0 and a0.shape == (1, 2):
            # the stacked site-1 pair is (numerically) a 2x2 unitary; using it
            # as the outgoing bond rotation pins the site to ((1,0),(0,1))
            out.append(np.eye(2)[:, None])
            prev = site.reshape(2, 2)
            continue
        u, s, vh = svd(prev @ a0, full_matrices=True)
        sig = np.zeros(a0.shape, dtype=np.complex128)
        np.fill_diagonal(sig, s)
        out.append((u @ sig, prev @ a1 @ dagger(vh)))
        prev = vh
    return MPSState(out, boundary="open")


def truncate(m: MPSState, d_max: int | None = None, tol: float = 0.0) -> MPSState:
    """SVD truncation of an open chain to bond dimension d_max and/or relative
    singular-value cutoff tol.

    The chain is right-normalized first, so the values discarded at each bond
    are the Schmidt coefficients there and the squared vector error is bounded
    by the sum of discarded squares.  Like ``from_vector``, the cutoff never
    drops below EPS_RANK: even with tol = 0, Schmidt values at or below
    1e-12 * sigma_1 are discarded.
    """
    require_tol(tol)
    if m.boundary != "open":
        raise GaugeViolationError("truncate is defined for open chains")
    if d_max is not None and d_max < 1:
        raise BadParamsError(f"d_max must be >= 1, got {d_max}")
    sites = list(two_site_sweep(m, "right").sites)
    for j in range(len(sites) - 1):
        _, d, e = sites[j].shape
        u, s, vh = split(sites[j].reshape(2 * d, e), tol, d_max)
        sites[j] = u.reshape(2, d, len(s))
        sites[j + 1] = (s[:, None] * vh) @ sites[j + 1]
    return MPSState(sites, boundary="open")
