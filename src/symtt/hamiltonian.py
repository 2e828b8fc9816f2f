"""Builders for 1D spin-chain Hamiltonians as sums of local operator strings.

A Hamiltonian is a list of terms, each a real coefficient times a Kronecker
product of per-site d x d matrices (d = 2 for spin-1/2, d = 3 for spin-1);
identity factors are stored as ``None`` to keep term lists compact.  Dense
assembly, closed-form spectra of transverse-field strings, the diagonal
transform removing the y-component of anisotropic XY fields, structure
certification, and ground-state extraction all operate on this one term form.

A model becomes numbers only through ``_nonzeros``: each term's nonzeros,
folded left to right by whole factors as ``np.kron`` multiplies, added per
entry in term order from 0.0 by ``np.add.at`` (as every sum here is),
bit-identical to a dense Kronecker fold for any factors, with sums that
cancel to 0 dropped.  ``assemble`` scatters them into the dense matrix
(``ham build``); nothing else forms a d^p x d^p matrix.  ``certify_structure``
alone reads them through ``structured`` (its residual pass and
``_nonzero_view``), and ``ground_state`` and ``ham spectrum`` solve, at unit
scale (``linalg._unit``), the symmetry sectors of ``_Sectors`` (translations
or mirror, times the global flip: the paper's J), whose generators are
admitted, and ground residual checked, at any scale of the couplings.  A model whose entries or eigenvalues are past float64's
range is refused.  Each path guards its measured peak before it allocates:
per term nonzero and per basis state before the nonzeros are built, and the
largest sector block on top before any block is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import structured
from ._constants import _MODELS, EPS_STRUCT, MODEL_NAMES, MODEL_PARAMS
from .errors import BadParamsError, NotHermitianError, ResidualError, ShapeMismatchError, UnknownModelError, UnknownNameError, ZeroSiteError, require_bytes, require_site_count
from .linalg import EPS_LIN, _fix_phases, _unit, as_cmatrix, eigh, frob, require_tol

#: bytes per term nonzero held while a model's nonzeros are built and used:
#: traced peaks 12-57 where terms share entries, 79 (hx) and 119 (the
#: complex hy) with one nonzero per term and row
_NONZERO_BYTES = 128
#: bytes per basis state of the sector solve's index arrays and its lift
_INDEX_BYTES = 128
#: m x m matrices of the largest sector block's dtype that ``eigh`` holds on
#: it (traced peaks up to 3.9, LAPACK's work arrays on top), and eigenvalues alone
_EIGH_ARRAYS, _EIGVALSH_ARRAYS = 6, 3

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

TABLE_MODELS = tuple(name for name, (sums, fld) in _MODELS.items() if sums and fld)


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
    unknown = params.keys() - MODEL_PARAMS
    if unknown:
        raise BadParamsError(f"unknown parameters: {sorted(unknown)}")
    for key, val in params.items():
        if not math.isfinite(float(val)):
            raise BadParamsError(f"parameter {key} must be finite")
    coupling = {key: float(params.get(key, 1.0)) for key in ("jx", "jy", "jz")}
    theta = float(params.get("theta", 0.0))

    terms: list[LocalTermSpec] = []
    d = 2
    if name in _MODELS:
        sums, fld = _MODELS[name]
        for axis, key in sums:
            op = pauli(axis)
            terms += [_two_site(p, k, l, op, op, coupling[key]) for k, l in _bonds(p, boundary)]
        if fld:
            op, lam = pauli(fld[0]), float(params.get("lam", fld[1]))
            terms += [_one_site(p, k, op, lam) for k in range(p)]
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


def _nonzero_bytes(spec: HamiltonianSpec, state_bytes: int) -> tuple[int, int]:
    """The count of term nonzeros and the bytes ``_nonzeros`` guards."""
    count = sum(math.prod(spec.d if f is None else int(np.count_nonzero(f)) for f in t.factors) for t in spec.terms)
    return count, _NONZERO_BYTES * count + state_bytes * spec.d**spec.p


@np.errstate(over="ignore", invalid="ignore")  # a value past float64's range is refused below
def _nonzeros(spec: HamiltonianSpec, state_bytes: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the model's nonzeros, in row-major order:
    the one way a model becomes numbers.

    Each term's ``_term_nonzeros`` times its coefficient are added per (row,
    col) in term order from 0.0 by ``np.add.at``, as a dense assembly adds
    them, so every value is bit for bit that matrix's entry.  Sums that
    cancel to exactly 0 are dropped: a sum from 0.0 is never -0.0, and adding
    +-0 to a block entry that starts at 0.0 changes nothing.  The values are
    float64 when every imaginary part is zero, else complex128.  The guard
    counts ``_NONZERO_BYTES`` per term nonzero plus the caller's
    ``state_bytes`` per basis state, before anything is built.  A value or a
    sum past float64's range is refused.
    """
    n = spec.d**spec.p
    count, nbytes = _nonzero_bytes(spec, state_bytes)
    require_bytes(nbytes, f"{count} term nonzeros and {n} basis states need {nbytes} bytes")
    ident = np.eye(spec.d, dtype=np.complex128)
    keys, vals = [], []
    for term in spec.terms:
        rows, cols, v = _term_nonzeros(term.factors, ident)
        v = term.coeff * v
        keys.append(rows * n + cols)
        # an all-zero imaginary part adds nothing to sums that start at +0.0
        vals.append(v if v.imag.any() else v.real.copy())
    keys = np.concatenate(keys)
    uniq = np.sort(keys)  # not np.unique, whose first call imports numpy.ma (~20 ms)
    uniq = uniq[np.concatenate((uniq[:1] == uniq[:1], uniq[1:] != uniq[:-1]))]  # first and changed keys; bools only
    inv = np.searchsorted(uniq, keys)
    del keys
    vals = np.concatenate(vals)  # complex128 when any term is
    out = np.zeros(len(uniq), dtype=vals.dtype)
    np.add.at(out, inv, vals)
    del inv, vals
    if not np.isfinite(out).all():
        raise BadParamsError("a matrix entry of the model overflows float64")
    if np.iscomplexobj(out) and not out.imag.any():
        out = out.real
    nonzero = out != 0
    rows, cols = np.divmod(uniq[nonzero], n)
    return rows, cols, out[nonzero]


def assemble(spec: HamiltonianSpec) -> np.ndarray:
    """Dense d^p x d^p complex128 matrix of the term sum: ``_nonzeros``
    scattered into zeros, guarded at 16 bytes per entry."""
    dim = spec.d**spec.p
    nbytes = 16 * dim * dim
    require_bytes(nbytes, f"dense assembly of dimension {dim} needs {nbytes} bytes")
    rows, cols, vals = _nonzeros(spec)
    h = np.zeros((dim, dim), dtype=np.complex128)
    h[rows, cols] = vals
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


def certify_structure(spec: HamiltonianSpec, tol: float = EPS_STRUCT) -> structured.StructureFlags:
    """Classify the model's matrix from its nonzeros, with no n x n matrix.

    ``structured._residual_norms`` reads ``_nonzeros`` through
    ``_nonzero_view``, so flags, omega and residuals are those of
    ``classify(assemble(spec))``; the tolerance scales with the norm of the
    nonzeros.
    """
    require_tol(tol)
    rows, cols, vals = _nonzeros(spec, structured._NONZERO_STATE_BYTES)
    vals, e = _unit(vals)
    return structured._classify(structured._nonzero_view(rows, cols, vals, spec.d**spec.p), frob(vals), tol, e)


@dataclass(frozen=True)
class SpectrumReport:
    values: np.ndarray
    ground_energy: float
    ground_vector: np.ndarray
    gap: float
    #: orders of the symmetry sectors with a nonempty block, in character
    #: order (``_Sectors``); they sum to d^p
    sector_sizes: tuple[int, ...]
    #: ||h v - E v||_F of the returned ground pair, against the full h
    residual: float
    #: characters of the sector the ground vector was solved in: "momentum"
    #: k with ``symmetry.shifted(v) == exp(2 pi i k / p) v`` on a ring,
    #: "mirror" +-1 (v at digit-reversed indices) on an open chain, and
    #: "flip" +-1 with v[::-1] == +-v; each only when the model has it
    ground_sector: dict[str, int] = field(default_factory=dict)


def _maps_onto(rows, cols, vals, n: int, g: np.ndarray | None) -> bool:
    """True when moving each nonzero (i, j) to (g[i], g[j]), or with g None
    to (j, i) conjugated, gives a matrix within EPS_LIN of the nonzeros' in
    the Frobenius norm (another order of the same terms rounds differently);
    an entry missing on either side counts as zero."""
    keys = rows * n + cols
    moved = cols * n + rows if g is None else g[rows] * n + g[cols]
    at = np.argsort(moved)
    moved = moved[at]
    pos = np.searchsorted(keys, moved).clip(max=len(keys) - 1)  # where each moved entry lands
    hit = keys[pos] == moved
    del keys, moved
    moved_vals = vals[at].conj() if g is None else vals[at]
    covered = np.zeros(len(vals), dtype=bool)
    covered[pos[hit]] = True
    # frob and hypot, not a sum of squares, which under- or overflows at some scales
    parts = (vals[pos[hit]] - moved_vals[hit], moved_vals[~hit], vals[~covered])
    return math.hypot(*map(frob, parts)) <= EPS_LIN * frob(vals)


def _root(m: int, order: int) -> complex:
    """exp(2 pi i m / order), exact at quarter turns."""
    quarter, rest = divmod(4 * (m % order), order)
    angle = 2 * math.pi * m / order
    return (1.0, 1j, -1.0, -1j)[quarter] if rest == 0 else complex(math.cos(angle), math.sin(angle))


class _Sectors:
    """The symmetry sectors of a model's matrix, from its nonzeros.

    The group is generated by the translation of ``symmetry.shifted`` on a
    ring or the site mirror on an open chain, and the global flip (digit i ->
    d - 1 - i, the exchange J), each admitted when it maps the nonzeros onto
    themselves (``_maps_onto``); H must be Hermitian in the same sense.
    Element e = a + o1 * b is g1^a g2^b; character c = (c1, c2) has
    chi_c(e) = exp(2 pi i (a c1 / o1 + b c2 / o2)).

    The group is folded over index arrays one element at a time: every index
    t gets its representative, the least index of its orbit, and the first
    element u_t that maps t there.  Representative r is in sector c when
    chi_c is 1 on r's stabilizer, as the state
    |r, c> = O_r^(-1/2) sum_t conj(chi_c(u_t)) |t> over its orbit of O_r
    indices, and the block entries come from the columns at representatives:
    <s,c|H|r,c> = sqrt(O_r / O_s) sum_t h_tr chi_c(u_t), t in s's orbit.
    """

    def __init__(self, spec: HamiltonianSpec, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
        p, d = spec.p, spec.d
        n = d**p
        self.real = not np.iscomplexobj(vals)  # H is
        idx = np.arange(n)
        if spec.boundary == "periodic":
            moves = [("momentum", p, idx % d ** (p - 1) * d + idx // d ** (p - 1))]
        else:
            moves = [("mirror", 2, idx.reshape((d,) * p).transpose().ravel())]
        moves.append(("flip", 2, idx[::-1]))
        if not _maps_onto(rows, cols, vals, n, None):
            raise NotHermitianError(f"matrix is not Hermitian within {EPS_LIN:g} relative tolerance")
        self.gens = [(name, order, g) for name, order, g in moves if _maps_onto(rows, cols, vals, n, g)]
        (_, o1, _), (_, o2, _) = self.gens + [("", 1, None)] * (2 - len(self.gens))
        self.orders, self.size = (o1, o2), o1 * o2
        rep, best = idx.copy(), np.zeros(n, dtype=np.int16)
        for e, img in self._images(idx):
            lower = img < rep
            rep[lower], best[lower] = img[lower], e
        self.reps = np.flatnonzero(rep == idx)
        del idx, lower
        self.rep_of, self.best = np.searchsorted(self.reps, rep), best
        del rep
        stab = np.zeros((len(self.reps), self.size), dtype=bool)
        for e, img in self._images(self.reps):
            stab[:, e] = img == self.reps
        self.orbit = self.size / stab.sum(axis=1)
        # character -> which representatives are in its sector
        self.members = {(c1, c2): ~(stab & (self._chi((c1, c2)) != 1.0)).any(axis=1)
                        for c1 in range(o1) for c2 in range(o2)}
        # the nonzeros in columns at representatives: (row's representative,
        # row's element, column's representative, value)
        k = np.flatnonzero(self.reps[self.rep_of[cols]] == cols)
        self.nz = (self.rep_of[rows[k]], self.best[rows[k]], self.rep_of[cols[k]], vals[k])

    def _images(self, start: np.ndarray):
        """(e, image of ``start`` under element e) for every element e."""
        maps = [g for _, _, g in self.gens]
        (o1, o2), outer = self.orders, start
        for b in range(o2):
            img = outer
            for a in range(o1):
                yield a + o1 * b, img
                if a + 1 < o1:
                    img = maps[0][img]
            if b + 1 < o2:
                outer = maps[1][outer]

    def _chi(self, c) -> np.ndarray:
        """chi_c of every element, a product of one root per generator, so
        exactly +-1 where it is real and exactly negated by the flip."""
        (o1, o2), (c1, c2) = self.orders, c
        return np.outer([_root(b * c2, o2) for b in range(o2)], [_root(a * c1, o1) for a in range(o1)]).ravel()

    def order(self, c) -> int:
        return int(self.members[c].sum())

    def is_real(self, c) -> bool:
        """True when the block of sector c is real: H and chi_c are."""
        return self.real and not self._chi(c).imag.any()

    def twin(self, c) -> tuple[int, int] | None:
        """For a real H, the other character whose block is the complex
        conjugate of c's, with the same eigenvalues; else None."""
        conj = (-c[0] % self.orders[0], c[1])
        return conj if self.real and conj != c else None

    def block(self, c) -> np.ndarray:
        """The sector block of character c, added up per entry by ``np.add.at``."""
        member, m = self.members[c], self.order(c)
        chi = self._chi(c)
        if self.is_real(c):
            chi = chi.real
        loc = np.cumsum(member) - 1
        s, e, r, h = self.nz
        keep = member[s] & member[r]
        s, e, r, h = s[keep], e[keep], r[keep], h[keep]
        w = h * chi[e] * np.sqrt(self.orbit[r] / self.orbit[s])
        out = np.zeros(m * m, dtype=w.dtype)
        np.add.at(out, loc[s] * m + loc[r], w)
        return out.reshape(m, m)

    def lift(self, c, u: np.ndarray) -> np.ndarray:
        """The d^p-vector of the sector-c coefficients ``u``."""
        member, j = self.members[c], self.rep_of
        chi = np.conj(self._chi(c))
        if np.isrealobj(u):
            chi = chi.real
        loc = np.cumsum(member) - 1
        return np.where(member[j], u[loc[j]] * chi[self.best] / np.sqrt(self.orbit[j]), 0.0)

    def characters(self, c) -> dict[str, int]:
        return {name: cj if name == "momentum" else 1 - 2 * cj for (name, _, _), cj in zip(self.gens, c)}


@np.errstate(over="ignore")  # only scaling back can overflow: a value is refused, a bound may read inf
def _solve_sectors(spec: HamiltonianSpec, vector: bool):
    """Every eigenvalue of the model, ascending, the sector sizes and, with
    ``vector``, (ground vector, its sector's characters, residual).

    ``eigvalsh`` runs on every sector block, but for a real H on only one of
    each conjugate pair (momenta k and -k), whose values count twice; ``eigh``
    runs on the block holding the lowest value alone.  Its vector is lifted,
    phase-fixed like ``eigh``'s, and for a real H made real (the real part of
    a ground space vector is one too); its residual comes from the nonzeros.
    The guards: nonzeros and index arrays before they are built, and with
    them ``_EIGH_ARRAYS`` (``_EIGVALSH_ARRAYS`` without ``vector``) matrices
    of the largest block before any block is.

    The nonzeros are solved at unit scale (``linalg._unit``), times 2^-e.
    There a residual over 10 EPS_LIN ||h||_F raises ``ResidualError``, whose
    message gives both relative to ||h||_F, and the values and residual are
    scaled back by 2^e.
    """
    n = spec.d**spec.p
    rows, cols, vals = _nonzeros(spec, _INDEX_BYTES)
    vals, e = _unit(vals)
    sectors = _Sectors(spec, rows, cols, vals)
    order, c = max((sectors.order(c), c) for c in sectors.members)
    arrays = _EIGH_ARRAYS if vector else _EIGVALSH_ARRAYS
    nbytes = _nonzero_bytes(spec, _INDEX_BYTES)[1] + arrays * (8 if sectors.is_real(c) else 16) * order**2
    require_bytes(nbytes, f"the sector solve of dimension {n}, largest block {order}, needs {nbytes} bytes")
    values, lowest = [], None
    for c in sectors.members:
        twin = sectors.twin(c)
        if sectors.order(c) == 0 or (twin and twin < c):  # empty, or solved as its twin
            continue
        w = np.linalg.eigvalsh(sectors.block(c))
        values += [w, w] if twin else [w]
        if lowest is None or w[0] < lowest[0]:
            lowest = (w[0], c)
    values = np.ldexp(np.sort(np.concatenate(values)), e)
    if not np.isfinite(values).all():
        raise BadParamsError("an eigenvalue of the model overflows float64")
    sizes = tuple(m for m in map(sectors.order, sectors.members) if m)
    if not vector:
        return values, sizes, None
    c = lowest[1]
    u = eigh(sectors.block(c)).vectors[:, 0].copy()  # not a view that keeps all vectors
    vec = sectors.lift(c, u.real if sectors.is_real(c) else u).astype(np.complex128)
    _fix_phases(vec[:, None], None)
    if sectors.real and vec.imag.any():
        vec = (vec.real / frob(vec.real)).astype(np.complex128)
    vec += 0.0  # turns the -0.0 that a phase of -1 leaves on zeros into 0.0
    hv = np.zeros(n, dtype=np.complex128)  # h v from the nonzeros
    np.add.at(hv, rows, vals * vec[cols])
    residual = frob(hv - lowest[0] * vec)  # values[0] scaled back to a subnormal has lost bits
    norm = frob(vals)
    if not residual <= EPS_LIN * norm * 10:  # also rejects a NaN residual
        raise ResidualError(f"ground eigenpair residual {residual / norm:.3e} exceeds its bound "
                            f"{EPS_LIN * 10:.3e}, both relative to ||h||_F")
    return values, sizes, (vec, sectors.characters(c), float(np.ldexp(residual, e)))


def ground_state(spec: HamiltonianSpec) -> SpectrumReport:
    """Full spectrum plus the lowest eigenpair of a model, from its symmetry
    sectors (``_solve_sectors``, which raises ``ResidualError`` when the
    eigenpair misses its residual bound against the full matrix, at unit
    scale); the ground vector has ``eigh``'s phase convention.
    """
    values, sizes, (vec, sector, residual) = _solve_sectors(spec, vector=True)
    gap = float(values[1] - values[0]) if len(values) > 1 else 0.0
    return SpectrumReport(values=values, ground_energy=float(values[0]), ground_vector=vec, gap=gap,
                          sector_sizes=sizes, residual=residual, ground_sector=sector)
