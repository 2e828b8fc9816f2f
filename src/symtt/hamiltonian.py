"""Builders for 1D spin-chain Hamiltonians as sums of local operator strings.

A Hamiltonian is a list of terms, each a real coefficient times a Kronecker
product of per-site d x d matrices (d = 2 for spin-1/2, d = 3 for spin-1);
identity factors are stored as ``None`` to keep term lists compact.  Dense
assembly, closed-form spectra of transverse-field strings, the diagonal
transform removing the y-component of anisotropic XY fields, structure
certification, and ground-state extraction all operate on this one term form.

``assemble`` returns a dense matrix but never forms a term's Kronecker
product densely: it folds each term's factors into the coordinates and values
of its nonzeros (a Pauli string has one per row) and adds those into the
result.  The products run left to right and the terms in order, as a dense
Kronecker fold would, and each one multiplies by a whole factor as
``np.kron`` does, so numpy rounds it the same way (fused or not) however
sparse the factor is: the entries are bit-identical to the fold for any
factors.  A guard of ``MAX_DENSE_BYTES`` bounds the one dense allocation.

Every table model and both spin-1 models (each Y meets another Y) have
exactly real term values.  ``certify_structure``, ``ground_state`` and ``ham
spectrum`` assemble those as float64, the real part of ``assemble``'s
complex128 matrix, never copied to complex128; their guard is 8 n^2 bytes
(16 n^2 for a complex model), and ``_solve`` guards ``_SOLVE_ARRAYS`` times
that with eigenvectors (checked before assembly) and ``_SPECTRUM_ARRAYS`` without.

``ground_state`` (and the CLI's ``ham spectrum``) use the paper's split where
it is exact.  The exchange J reverses the basis order, which for spin-1/2 is
the global spin flip X^{(x)p}.  An assembled h that is exactly real
symmetric, of even order and equal to J h J entry for entry (every spin-1/2
model but hy and hz) is diagonalized as its two half-size blocks B + JC and
B - JC, in real arithmetic.  Spin-1 models (odd order 3^p) and hz (odd
under the flip) take one full real ``eigh``, hy (complex) a complex one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._constants import _CHAIN_MODELS, MODEL_NAMES
from .errors import BadParamsError, ResidualError, ShapeMismatchError, UnknownModelError, UnknownNameError, ZeroSiteError
from .linalg import EPS_LIN, _fix_phases, as_cmatrix, eigh, frob, require_bytes, require_site_count
from .structured import EPS_STRUCT, StructureFlags, _half_blocks, _lift, classify

#: n x n arrays of h's dtype that ``_solve`` holds while it computes
#: eigenvectors: tracemalloc peaks 1.75 (B +- JC split), 3.0 (whole real) and
#: 2.0 (complex); max RSS with LAPACK's work arrays 2.7, 5.2 and 4.3 (n >= 729)
_SOLVE_ARRAYS = 6

#: n x n arrays of h's dtype, h included, for eigenvalues alone (max RSS 1.6 to 2.4, n >= 1024)
_SPECTRUM_ARRAYS = 3

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
    "i": np.eye(2, dtype=np.complex128),
}

_SQ2 = 1.0 / np.sqrt(2.0)
_SPIN1 = {
    "x": _SQ2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.complex128),
    "y": _SQ2 * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=np.complex128),
    "i": np.eye(3, dtype=np.complex128),
}

TABLE_MODELS = tuple(_CHAIN_MODELS)


def pauli(name: str) -> np.ndarray:
    """Pauli matrix (or 2x2 identity for name 'i')."""
    try:
        return _PAULI[name].copy()
    except KeyError:
        raise UnknownNameError(f"unknown Pauli name {name!r}; expected x, y, z or i") from None


def spin1(name: str) -> np.ndarray:
    """Spin-1 operator (or 3x3 identity for name 'i')."""
    try:
        return _SPIN1[name].copy()
    except KeyError:
        raise UnknownNameError(f"unknown spin-1 name {name!r}; expected x, y, z or i") from None


@dataclass(frozen=True)
class LocalTermSpec:
    """One Hamiltonian summand: coeff times a product of per-site factors.

    ``factors`` has one entry per site; ``None`` marks an identity factor.
    """

    coeff: float
    factors: tuple[np.ndarray | None, ...]

    def __post_init__(self):
        if not math.isfinite(self.coeff):
            raise BadParamsError("term coefficient must be finite")
        if len(self.factors) < 1:
            raise BadParamsError("a term needs at least one site")
        for f in self.factors:
            if f is None:
                continue
            if not isinstance(f, np.ndarray):
                raise BadParamsError(f"local factors must be numpy arrays or None, got {type(f).__name__}")
            if f.ndim != 2 or f.shape[0] != f.shape[1]:
                raise ShapeMismatchError(f"local factors must be square matrices, got shape {f.shape}")
            if not np.all(np.isfinite(f)):
                raise BadParamsError("local factor entries must be finite (no NaN/Inf)")
        dims = {f.shape[0] for f in self.factors if f is not None}
        if len(dims) > 1:
            raise ShapeMismatchError(f"mixed local dimensions in one term: {sorted(dims)}")


@dataclass(frozen=True)
class HamiltonianSpec:
    p: int
    d: int
    boundary: str
    terms: tuple[LocalTermSpec, ...]
    name: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.p < 1 or self.d < 1:
            raise BadParamsError(f"need p >= 1 sites of dimension d >= 1, got p = {self.p}, d = {self.d}")
        if self.boundary not in ("open", "periodic"):
            raise BadParamsError(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")
        for t in self.terms:
            if len(t.factors) != self.p:
                raise ShapeMismatchError("every term must have one factor per site")
            for f in t.factors:
                if f is not None and f.shape != (self.d, self.d):
                    raise ShapeMismatchError(f"local factors must be {self.d} x {self.d}, got shape {f.shape}")


def _one_site(p: int, k: int, op: np.ndarray, coeff: float) -> LocalTermSpec:
    factors: list[np.ndarray | None] = [None] * p
    factors[k] = op
    return LocalTermSpec(coeff, tuple(factors))


def _two_site(p: int, k: int, l: int, op_k: np.ndarray, op_l: np.ndarray, coeff: float) -> LocalTermSpec:
    factors: list[np.ndarray | None] = [None] * p
    factors[k] = op_k
    # a self-bond (k == l, the wrap-around bond of a 1-site ring) is op_k op_l
    factors[l] = op_k @ op_l if k == l else op_l
    return LocalTermSpec(coeff, tuple(factors))


def _bonds(p: int, boundary: str) -> list[tuple[int, int]]:
    bonds = [(k, k + 1) for k in range(p - 1)]
    if boundary == "periodic":
        bonds.append((0, p - 1))
    return bonds


def _pair_sum(p: int, boundary: str, op: np.ndarray, coeff: float) -> list[LocalTermSpec]:
    return [_two_site(p, k, l, op, op, coeff) for k, l in _bonds(p, boundary)]


def _field_sum(p: int, op: np.ndarray, coeff: float) -> list[LocalTermSpec]:
    return [_one_site(p, k, op, coeff) for k in range(p)]


def _spin1_bond_terms(p: int, boundary: str, lin: float, quad: float) -> list[LocalTermSpec]:
    """Bilinear and biquadratic spin-1 bond terms.

    The biquadratic square expands over operator products:
    (sum_mu A_mu x B_mu)^2 = sum_{mu,nu} (A_mu A_nu) x (B_mu B_nu),
    which keeps every summand in single-factor-per-site form.
    """
    ops = [spin1("x"), spin1("y"), spin1("z")]
    terms: list[LocalTermSpec] = []
    for k, l in _bonds(p, boundary):
        if lin != 0.0:
            for s in ops:
                terms.append(_two_site(p, k, l, s, s, lin))
        if quad != 0.0:
            for s1 in ops:
                for s2 in ops:
                    prod = s1 @ s2
                    terms.append(_two_site(p, k, l, prod, prod, quad))
    return terms


_PARAM_KEYS = {"jx", "jy", "jz", "lam", "theta"}


def model(name: str, p: int, params: dict | None = None, boundary: str = "open") -> HamiltonianSpec:
    """Build the term list of a named model.

    Couplings default to jx = jy = jz = 1, the transverse field to lam = 0 for
    the named chain models and lam = 1 for the bare field strings hx/hy/hz;
    theta defaults to 0.  Spin-1 models (aklt, bilinear_biquadratic) take no
    field term.
    """
    if name not in MODEL_NAMES:
        raise UnknownModelError(f"unknown model {name!r}; expected one of {', '.join(MODEL_NAMES)}")
    require_site_count(p)
    if boundary not in ("open", "periodic"):
        raise BadParamsError(f"boundary must be 'open' or 'periodic', got {boundary!r}")
    params = dict(params or {})
    unknown = set(params) - _PARAM_KEYS
    if unknown:
        raise BadParamsError(f"unknown parameters: {sorted(unknown)}")
    for key, val in params.items():
        if not math.isfinite(float(val)):
            raise BadParamsError(f"parameter {key} must be finite")
    coupling = {key: float(params.get(key, 1.0)) for key in ("jx", "jy", "jz")}
    theta = float(params.get("theta", 0.0))

    terms: list[LocalTermSpec] = []
    d = 2
    if name in _CHAIN_MODELS:
        for axis, key in _CHAIN_MODELS[name]:
            terms += _pair_sum(p, boundary, pauli(axis), coupling[key])
        terms += _field_sum(p, pauli("x"), float(params.get("lam", 0.0)))
    elif name in ("hx", "hy", "hz"):
        terms += _field_sum(p, pauli(name[1]), float(params.get("lam", 1.0)))
    elif name in ("hxx", "hyy", "hzz"):
        terms += _pair_sum(p, boundary, pauli(name[1]), coupling["j" + name[1]])
    elif name == "aklt":
        d = 3
        terms += _spin1_bond_terms(p, boundary, 1.0, 1.0 / 3.0)
    elif name == "bilinear_biquadratic":
        d = 3
        terms += _spin1_bond_terms(p, boundary, math.cos(theta), math.sin(theta))
    if not terms:
        terms = [_one_site(p, 0, np.zeros((d, d), dtype=np.complex128), 0.0)]
    return HamiltonianSpec(p=p, d=d, boundary=boundary, terms=tuple(terms), name=name, params=params)


def _term_nonzeros(factors, ident: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzeros of one term's Kronecker
    product, multiplied left to right like a dense Kronecker fold.

    Each value row is multiplied by the whole flattened factor before the
    nonzeros are picked: numpy's complex multiply skips FMA only in a
    length-1 inner loop, and rows of d^2 entries hit one exactly when
    ``np.kron``'s rows of d do (d = 1), whatever the factor's sparsity.
    """
    d = ident.shape[0]
    rows = np.zeros(1, dtype=np.intp)
    cols = np.zeros(1, dtype=np.intp)
    vals = np.ones(1, dtype=np.complex128)
    for f in factors:
        if f is None:
            f = ident
        r, c = np.nonzero(f)
        rows = (rows[:, None] * d + r).ravel()
        cols = (cols[:, None] * d + c).ravel()
        vals = (vals[:, None] * f.reshape(-1))[:, r * d + c].ravel()
    return rows, cols, vals


def assemble(spec: HamiltonianSpec) -> np.ndarray:
    """Dense d^p x d^p complex128 matrix of the term sum, added up from each
    term's nonzeros."""
    return _assemble(spec, real=False)


def _assemble(spec: HamiltonianSpec, real: bool) -> np.ndarray:
    """``assemble``, but with ``real`` a float64 matrix, the real part of
    ``assemble``'s bit for bit, as long as every term's values are exactly
    real; the first complex term starts the assembly over in complex128.

    The guard counts 8 bytes per entry with ``real`` and 16 without.
    """
    dim = spec.d**spec.p
    nbytes = (8 if real else 16) * dim * dim
    require_bytes(nbytes, f"dense assembly of dimension {dim} needs {nbytes} bytes")
    ident = np.eye(spec.d, dtype=np.complex128)
    h = np.zeros((dim, dim), dtype=np.float64 if real else np.complex128)
    for term in spec.terms:
        rows, cols, vals = _term_nonzeros(term.factors, ident)
        vals = term.coeff * vals
        if real and vals.imag.any():
            del h  # freed before the complex128 matrix is allocated
            return _assemble(spec, real=False)
        # the (row, col) pairs of one Kronecker product are distinct, so the
        # buffered fancy-index add is exact; its real part is the same add
        # on the real parts
        h[rows, cols] += vals.real if real else vals
    return h


def closed_form_hx_spectrum(p: int, r=None) -> np.ndarray:
    """All 2^p signed sums +-r_1 +-r_2 ... +-r_p, sorted ascending.

    With r omitted (all ones) this is the exact spectrum of the uniform
    transverse string; with site weights it covers the anisotropic case.
    """
    require_site_count(p)
    if r is None:
        r = np.ones(p)
    r = np.asarray(r, dtype=float)
    if len(r) != p:
        raise ShapeMismatchError(f"need {p} site weights, got {len(r)}")
    if not np.all(np.isfinite(r)):
        raise BadParamsError("site weights r must be finite (no NaN/Inf)")
    sums = np.zeros(1)
    for rk in r:
        sums = np.concatenate([sums - rk, sums + rk])
    return np.sort(sums)


def anisotropic_xy_transform(a, b) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-site diagonal unitaries turning an anisotropic XY field string into
    a pure X string with weights r_k = sqrt(a_k^2 + b_k^2).

    Conjugating the assembled field sum of a_k X_k + b_k Y_k by the Kronecker
    product of the returned 2x2 diagonals yields the assembled sum of
    r_k X_k.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape or av.ndim != 1:
        raise ShapeMismatchError("site weight lists a and b must be 1-D of equal length")
    if not (np.all(np.isfinite(av)) and np.all(np.isfinite(bv))):
        raise BadParamsError("site weights a and b must be finite (no NaN/Inf)")
    r = np.hypot(av, bv)
    if np.any(r == 0.0):
        raise ZeroSiteError("every site needs (a_k, b_k) != (0, 0)")
    d_list = [np.diag([1.0, np.exp(1j * np.arctan2(bk, ak))]) for ak, bk in zip(av, bv)]
    return d_list, r


def fourier_conjugate(h, p: int) -> np.ndarray:
    """Conjugate a 2^p-dimensional operator by the p-fold Kronecker power F of
    the 2x2 Fourier matrix [[1, 1], [1, -1]]/sqrt(2) (real symmetric
    involutory).

    F is symmetric, so F h F is the 2p-fold Kronecker power applied to the
    row-major entries of h: one butterfly (a + b, a - b) per bit of the row
    and column index, O(p 4^p) operations in two 4^p buffers, without forming
    F.  The 2^(-1/2) of every butterfly is applied once, as 2^(-p).
    """
    require_site_count(p)
    m = as_cmatrix(h)
    n = 2**p
    if m.shape != (n, n):
        raise ShapeMismatchError(f"expected shape {(n, n)}, got {m.shape}")
    x = m.reshape(-1)
    bufs = (np.empty(n * n, dtype=np.complex128), np.empty(n * n, dtype=np.complex128))
    for bit in range(2 * p):
        v, w = x.reshape(2**bit, 2, -1), bufs[bit % 2].reshape(2**bit, 2, -1)
        np.add(v[:, 0], v[:, 1], out=w[:, 0])
        np.subtract(v[:, 0], v[:, 1], out=w[:, 1])
        x = bufs[bit % 2]
    x *= 0.5**p
    return x.reshape(n, n)


def certify_structure(spec: HamiltonianSpec, tol: float = EPS_STRUCT) -> StructureFlags:
    """Classify the assembled matrix of the model (float64 when exactly real,
    see the module docstring)."""
    return classify(_assemble(spec, real=True), tol=tol)


@dataclass(frozen=True)
class SpectrumReport:
    values: np.ndarray
    ground_energy: float
    ground_vector: np.ndarray
    gap: float
    #: orders of the blocks diagonalized: (n/2, n/2) for the B +- JC split,
    #: (n,) for one full eigh
    sector_sizes: tuple[int, ...]
    #: ||h v - E v||_F of the returned ground pair, against the full h
    residual: float


def _solve(h: np.ndarray, lowest: bool = True) -> tuple[np.ndarray, np.ndarray | None, tuple[int, ...]]:
    """All eigenvalues of an assembled Hamiltonian h, ascending, its lowest
    eigenvector (None unless ``lowest``) and the orders of the blocks solved.

    An exactly real symmetric h of even order with h == J h J splits into
    the blocks B + JC and B - JC (``structured._half_blocks``).  The two
    blocks are solved on their own, in real arithmetic, their values merged,
    and only the lowest eigenvector u is lifted back by ``structured._lift``:
    to (u; Ju)/sqrt(2) from B + JC, to (u; -Ju)/sqrt(2) from B - JC.  Any
    other h is solved whole, and its lowest vector is returned as ``eigh``
    gave it.  Without ``lowest`` no eigenvectors are computed.
    """
    n = h.shape[0]
    nbytes = (_SOLVE_ARRAYS if lowest else _SPECTRUM_ARRAYS) * h.itemsize * n * n
    require_bytes(nbytes, f"{'full eigendecomposition' if lowest else 'eigenvalue solve'} of dimension {n} needs {nbytes} bytes")
    # a float64 h's .imag would be n^2 fresh zeros
    real = not (np.iscomplexobj(h) and h.imag.any())
    split = n % 2 == 0 and real and np.array_equal(h, h.T) and np.array_equal(h, h[::-1, ::-1])
    blocks = _half_blocks(h.real) if split else (h,)
    sizes = tuple(len(b) for b in blocks)
    if not lowest:
        return np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks])), None, sizes
    if not split:
        res = eigh(h)
        return res.values, np.ascontiguousarray(res.vectors[:, 0]), sizes
    plus, minus = (eigh(b) for b in blocks)
    sign = 1.0 if plus.values[0] <= minus.values[0] else -1.0
    u = (plus if sign > 0 else minus).vectors[:, 0]
    vec = _lift(u, sign)
    _fix_phases(vec[:, None], None)
    return np.sort(np.concatenate([plus.values, minus.values])), vec, sizes


def ground_state(spec: HamiltonianSpec) -> SpectrumReport:
    """Full spectrum plus the lowest eigenpair of a model, within the solve's byte guard.

    The spectrum comes from the B +- JC blocks when the assembled matrix
    allows the split exactly (see the module docstring), else from one full
    ``eigh``; the ground vector has ``eigh``'s phase convention either way.
    Raises ``ResidualError`` when the eigenpair misses its residual bound
    against the full matrix.
    """
    n = spec.d**spec.p  # _solve's guard on a float64 h, before assembly; _solve checks a complex h
    nbytes = _SOLVE_ARRAYS * 8 * n * n
    require_bytes(nbytes, f"full eigendecomposition of dimension {n} needs {nbytes} bytes")
    h = _assemble(spec, real=True)
    values, vec, sizes = _solve(h)
    gap = float(values[1] - values[0]) if len(values) > 1 else 0.0
    # h @ vec would copy a float64 h to complex128; row blocks give the same
    # bits unless one is a lone row of several (numpy's plain dot), which an
    # even split into ~32-row blocks never makes
    hv = np.concatenate([b.astype(np.complex128) @ vec for b in np.array_split(h, -(-len(h) // 32))])
    residual = frob(hv - values[0] * vec)
    bound = max(EPS_LIN * frob(h) * 10, 1e-9)
    if not residual <= bound:  # also rejects a NaN residual
        raise ResidualError(f"ground eigenpair residual {residual:.3e} exceeds its bound {bound:.3e}")
    return SpectrumReport(values=values, ground_energy=float(values[0]), ground_vector=vec, gap=gap,
                          sector_sizes=sizes, residual=residual)
