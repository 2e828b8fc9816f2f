"""Vector symmetries, their MPS-level witnesses, and symmetry-adapted forms.

A component index is read as a bit string (i_1 ... i_p), i_1 most significant.
Three index actions generate everything here:

* cyclic shift      (i_1 ... i_p) -> (i_2 ... i_p i_1),
* global bit flip   i_k -> 1 - i_k  (the exchange matrix J on the vector),
* reversal          (i_1 ... i_p) -> (i_p ... i_1), combined with conjugation.

Each symmetry of the represented vector corresponds to relations between the
site matrices, certified by explicit witness matrices; the constructions below
build relation-satisfying representations from arbitrary ones and reduce the
witnesses to canonical (diagonal / triangular / Hermitian) form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._constants import EPS_SYM, SYMMETRY_KINDS
# orbits and their counts need neither numpy nor dataclasses; they live apart
# so the CLI runs them without loading either
from . import _orbits
from .errors import (
    BadParamsError,
    NotDiagonalizableError,
    NotHermitianError,
    ShapeMismatchError,
    SymmetryMismatchError,
    UnknownNameError,
    WitnessViolationError,
    ZeroVectorError,
    require_bytes,
    require_site_count,
)
from .linalg import EPS_LIN, _flip2, _is_hermitian, _unit, as_cmatrix, as_cvector, dagger, eigh, exchange_matrix, frob, require_tol, schur, svd
from .mps import MPSState, from_vector, to_vector

#: complex128 arrays of length 2^p that reverse_normal_form holds at once (its
#: tracemalloc peak at p = 14 to 18, a real input's complex copy included, is 5.0)
_REVERSE_NF_ARRAYS = 6

#: complex128 2^p-vectors a construct's invariance test holds, ``to_vector``
#: included: on bond-1 chains at p = 16 to 20, 3.0 traced and 3.2 to 3.8 by RSS
_INVARIANCE_ARRAYS = 4


# ---------------------------------------------------------------- index maps

def _check_pow2(x: np.ndarray) -> int:
    n = len(x)
    p = n.bit_length() - 1
    if n < 2 or 2**p != n:
        raise ShapeMismatchError(f"vector length {n} is not a power of two >= 2")
    return p


def shifted(x: np.ndarray, r: int = 1) -> np.ndarray:
    """Vector with component (i_1 .. i_p) read at x's (i_{r+1} .. i_p i_1 .. i_r): x as 2^(p-r) x 2^r, transposed."""
    return x.reshape(-1, 2 ** (r % _check_pow2(x))).T.flatten()


def bit_reversed(x: np.ndarray) -> np.ndarray:
    """Vector with components re-read at reversed bit indices: x's p axes of size 2, transposed."""
    return x.reshape((2,) * _check_pow2(x)).transpose().flatten()


def symmetrize_shift(x, r: int = 1) -> np.ndarray:
    """Average over the cyclic group of r-bit shifts."""
    v = as_cvector(x)
    p = _check_pow2(v)
    if r < 1 or p % r:
        raise ShapeMismatchError(f"block length {r} must divide p = {p}")
    out = np.zeros_like(v)
    for k in range(0, p, r):
        out += shifted(v, k)
    return out * (r / p)


def symmetrize_flip(x, sign: int = 1) -> np.ndarray:
    """Project onto J x = sign * x."""
    v = as_cvector(x)
    return 0.5 * (v + sign * v[::-1])


def symmetrize_reverse(x) -> np.ndarray:
    """Project onto x = conj(bit-reversed x)."""
    v = as_cvector(x)
    return 0.5 * (v + np.conj(bit_reversed(v)))


def detect_vector_symmetries(x, tol: float = EPS_SYM) -> set[str]:
    """Kinds present in x, by direct index checks within tol (relative).

    Possible entries: bitshift, reverse, bitflip+, bitflip-, firstsite+,
    firstsite-, lastsite+, lastsite-.
    """
    require_tol(tol)
    v = _unit(as_cvector(x))[0]
    thresh = tol * frob(v)
    found = set()
    if frob(v - shifted(v)) <= thresh:
        found.add("bitshift")
    if frob(v - np.conj(bit_reversed(v))) <= thresh:
        found.add("reverse")
    for sign, tag in ((1, "bitflip+"), (-1, "bitflip-")):
        if frob(v - sign * v[::-1]) <= thresh:
            found.add(tag)
    half = len(v) // 2
    for sign, tag in ((1, "firstsite+"), (-1, "firstsite-")):
        if frob(v[half:] - sign * v[:half]) <= thresh:
            found.add(tag)
    for sign, tag in ((1, "lastsite+"), (-1, "lastsite-")):
        if frob(v[1::2] - sign * v[0::2]) <= thresh:
            found.add(tag)
    return found


# -------------------------------------------------------------------- orbits

@dataclass(frozen=True)
class OrbitReport:
    base: str
    shift_orbit: frozenset[str]
    flip_orbit: frozenset[str]
    reverse_orbit: frozenset[str]


def orbits(bits: str) -> OrbitReport:
    """Index sets sharing a component value under each symmetry
    (``_orbits.orbit_sets``, refused when a shift orbit's p rotations of p
    bits exceed MAX_DENSE_BYTES)."""
    return OrbitReport(bits, *_orbits.orbit_sets(bits))


@dataclass(frozen=True)
class DofReport:
    p: int
    counts: dict[str, int]
    reduction_factors: dict[str, float]


def dof_count(p: int, kinds) -> DofReport:
    """Exact orbit counts of p-bit strings under the chosen symmetries and
    their reduction factors (``_orbits.dof_counts``: Burnside's lemma, no 2^p
    array, refused when the 2^p-entry vectors counted exceed MAX_DENSE_BYTES)."""
    return DofReport(p, *_orbits.dof_counts(p, kinds))


# ----------------------------------------------------------------- witnesses

@dataclass(frozen=True)
class SymmetryWitness:
    """A symmetry kind with the matrices certifying its site relations.

    ``matrices`` holds one witness per bond (S_j or U_j or D_j, j = 1..p) for
    the reverse/bitflip families; the other kinds carry none.
    """

    kind: str
    sign: int = 1
    block_len: int = 1
    matrices: tuple[np.ndarray, ...] | None = None
    heuristic: bool = False

    def __post_init__(self):
        if self.kind not in SYMMETRY_KINDS:
            raise UnknownNameError(f"unknown symmetry kind {self.kind!r}")
        if self.sign not in (1, -1):
            raise BadParamsError(f"sign must be +1 or -1, got {self.sign!r}")


def _swap_block(top: int, bottom: int) -> np.ndarray:
    """[[0, I_top], [I_bottom, 0]] of size (top + bottom)."""
    n = top + bottom
    s = np.zeros((n, n), dtype=np.complex128)
    s[:top, bottom:] = np.eye(top)
    s[top:, :bottom] = np.eye(bottom)
    return s


def _direct_sum(m: MPSState, partner) -> list[np.ndarray]:
    """Sites of the chain of (x + x')/2, x the vector of m and x' that of the
    partner sites: site j is B_j (+) C_j, side by side at an open site 1,
    stacked at an open site p and block diagonal elsewhere, each scaled by
    2^(-1/p); a single open site is the plain average."""
    p = m.p
    obc = m.boundary == "open"
    if obc and p == 1:
        return [0.5 * (m.sites[0] + partner[0])]
    scale = 2.0 ** (-1.0 / p)
    sites = []
    for j, (b, c) in enumerate(zip(m.sites, partner)):
        if obc and j == 0:
            site = np.concatenate([b, c], axis=2)
        elif obc and j == p - 1:
            site = np.concatenate([b, c], axis=1)
        else:
            (_, rows, cols), (_, c_rows, c_cols) = b.shape, c.shape
            site = np.zeros((2, rows + c_rows, cols + c_cols), dtype=np.complex128)
            site[:, :rows, :cols] = b
            site[:, rows:, cols:] = c
        sites.append(scale * site)
    return sites


# -------------------------------------------------- bit-shift / TI constructs

def _require_invariant(m: MPSState, image, message: str) -> None:
    """Raise SymmetryMismatchError(message) unless x = to_vector(m) is image(x) within EPS_SYM ||x||, at unit scale."""
    nbytes = _INVARIANCE_ARRAYS * 16 * 2**m.p
    require_bytes(nbytes, f"the invariance test at p = {m.p} needs {nbytes} bytes")
    x = _unit(to_vector(m))[0]
    if frob(x - image(x)) > EPS_SYM * frob(x):
        raise SymmetryMismatchError(message)


def ti_shape(m: MPSState, block_len: int = 1) -> tuple[int, int]:
    """(q, D) of ``ti_construct(m, block_len)``: q = p / block_len cyclic
    copies of sites zero-padded to size D, so the bond dimension is q * D."""
    if block_len < 1 or m.p % block_len:
        raise ShapeMismatchError(f"block length {block_len} must divide p = {m.p}")
    return m.p // block_len, max(max(site.shape[1:]) for site in m.sites)


def ti_construct(m: MPSState, block_len: int = 1) -> MPSState:
    """Site-independent periodic representation of a shift-symmetric vector.

    Embeds the input site matrices (zero-padded to a common size D) on the
    cyclic superdiagonal of a block companion matrix, scaled per site so that
    the q = p / block_len cyclic copies sum back to the vector.  Bond
    dimension of the result is q * D.  With block_len = r > 1 the output
    repeats with period r and covers block-shift symmetric vectors.
    """
    p = m.p
    r = block_len
    q, d = ti_shape(m, r)
    # the output repeats its r distinct sites q times, and MPSState stores
    # each distinct site once
    nbytes = 16 * r * 2 * (q * d) ** 2
    require_bytes(nbytes, f"the site-independent chain of bond dimension {q * d} needs {nbytes} bytes")
    _require_invariant(m, lambda x: shifted(x, r), "vector is not invariant under the cyclic bit shift (within EPS_SYM)")
    scale = q ** (-1.0 / p)
    period = []
    for j in range(r):
        big = np.zeros((2, q * d, q * d), dtype=np.complex128)
        for k in range(q):
            # only the last site of each block advances the companion
            # index; interior sites stay block diagonal
            kk = (k + 1) % q if j == r - 1 else k
            site = m.sites[k * r + j]
            big[:, k * d : k * d + site.shape[1], kk * d : kk * d + site.shape[2]] = site
        big *= scale
        period.append(big)
    return MPSState(period * q, boundary="periodic")


def ti_normal_form(a0, a1) -> tuple[np.ndarray, np.ndarray]:
    """Triangularize the first matrix of a site-independent pair.

    Conjugates both matrices by the Schur basis of a0, which leaves the
    periodic vector of the repeated pair unchanged.  Hermitian a0 comes out
    as a real diagonal (eigendecomposition branch), so a Hermitian partner
    stays Hermitian.
    """
    m0 = as_cmatrix(a0)
    m1 = as_cmatrix(a1)
    if m0.shape != m1.shape or m0.shape[0] != m0.shape[1]:
        raise ShapeMismatchError("need two square matrices of equal size")
    if _is_hermitian(m0, EPS_LIN):
        # symmetrized at unit scale, where the sum stays finite and halving
        # it is exact; the eigenvalues are scaled back by 2^e
        s, e = _unit(m0)
        w, v = eigh((s + dagger(s)) / 2.0)
        q = dagger(v)
        nf0 = np.diag(np.ldexp(w, e).astype(np.complex128))
    else:
        q, nf0 = schur(m0)
    return nf0, q @ m1 @ dagger(q)


def ti_chain_normal_form(m: MPSState) -> MPSState:
    """The periodic chain of ``m``'s site pair in ``ti_normal_form``.

    ``m`` must be site-independent: its bitshift relation residual may not
    exceed EPS_SYM times its sites' scale, the test ``bitflip_normal_form``
    applies to its witness relations.
    """
    rep = verify_relation(m, SymmetryWitness(kind="bitshift"))
    if rep.max_residual > EPS_SYM * _state_scale(m):
        raise SymmetryMismatchError(
            f"ti normal form needs a site-independent chain (site residual {rep.max_residual:.2e})"
        )
    nf0, nf1 = ti_normal_form(*m.sites[0])
    return MPSState([(nf0, nf1)] * m.p, boundary="periodic")


# ------------------------------------------------------------------- reverse

def reverse_construct(m: MPSState) -> tuple[MPSState, SymmetryWitness]:
    """Block-diagonal doubling that pairs each site with the conjugate
    transpose of its mirror site, certified by swap witnesses.

    The output satisfies A_j^H = S_{p-j}^{-1} A_{p+1-j} S_{p+1-j} with
    S_j = [[0, I], [I, 0]] on bond j+1 (a scalar 1 at the open ends), and the
    witness list fulfills the consistency conditions S_j^H = S_{p-j},
    S_0 = S_p.
    """
    _require_invariant(m, lambda x: np.conj(bit_reversed(x)), "vector is not reverse symmetric (within EPS_SYM)")
    p = m.p
    dims = m.dims
    mirrored = [dagger(site) for site in m.sites[::-1]]
    if p == 1:
        # mirror site is the site itself: averaging with its conjugate
        # transpose keeps the (real) components, witnessed by the identity
        site = 0.5 * (m.sites[0] + mirrored[0])
        wit = (np.eye(site.shape[2], dtype=np.complex128),)
        return MPSState([site], boundary=m.boundary), SymmetryWitness(kind="reverse", matrices=wit)
    # S_j acts on bond j+1, which stacks D_{j+1} over D_{p+1-j}
    witnesses = [_swap_block(dims[j], dims[p - j]) for j in range(1, p + 1)]
    if m.boundary == "open":
        witnesses[-1] = np.eye(1, dtype=np.complex128)
    out = MPSState(_direct_sum(m, mirrored), boundary=m.boundary)
    return out, SymmetryWitness(kind="reverse", matrices=tuple(witnesses))


@dataclass(frozen=True)
class ReverseNormalForm:
    """Mirror-factored representation of a reverse symmetric vector.

    For p = 2m the components are
    trace(U_1^(i_1) .. U_m^(i_m) Sigma U_m^(i_{m+1})^H .. U_1^(i_p)^H Lambda);
    odd p = 2m+1 inserts one extra stacked factor U_{m+1} before Sigma.  Each
    ``us`` entry is the stacked pair [U^(0); U^(1)] with orthonormal columns
    (square for j <= m); ``sigma`` and ``lam`` are real diagonals.
    """

    p: int
    us: tuple[np.ndarray, ...]
    sigma: np.ndarray
    lam: np.ndarray

    def factor(self, j: int, bit: int) -> np.ndarray:
        stacked = self.us[j]
        d = stacked.shape[0] // 2
        return stacked[d:] if bit else stacked[:d]

    def state(self) -> MPSState:
        """The form as a periodic chain: U_1 .. U_m (and U_{m+1} for odd p),
        then the mirrored adjoints U_m^H .. U_1^H, with Sigma folded into the
        first mirrored site and Lambda into the last."""
        sig = np.diag(self.sigma.astype(np.complex128))
        lam = np.diag(self.lam.astype(np.complex128))
        ascending = [u.reshape(2, -1, u.shape[1]) for u in self.us]
        mirrored = [dagger(a) for a in ascending[: self.p // 2][::-1]]
        if not mirrored:  # p = 1: the interior factor carries both diagonals
            ascending[0] = ascending[0] @ sig @ lam
        else:
            mirrored[0] = sig @ mirrored[0]
            mirrored[-1] = mirrored[-1] @ lam
        return MPSState(ascending + mirrored, boundary="periodic")

    def to_vector(self) -> np.ndarray:
        return to_vector(self.state())


def reverse_normal_form(x) -> ReverseNormalForm:
    """Mirror-factored normal form of a reverse symmetric vector.

    With its last m = p // 2 bits read in reverse, x = conj(R x) is a
    Hermitian 2^m x 2^m matrix C, or a Hermitian pair C_0, C_1 picked by the
    middle bit at odd p.  Even p: C = W diag(Sigma) W^H by ``eigh``.  Odd p:
    the thin SVD [C_0; C_1] = u diag(Sigma) vh gives W = vh^H and the
    interior factor [vh u_0; vh u_1].  A left SVD sweep cuts the unitary W,
    its rows (i_1 .. i_m), into the stacked factors U_1 .. U_m; Lambda is [1].
    """
    v = as_cvector(x)
    p = _check_pow2(v)
    if not np.any(v):
        raise ZeroVectorError("vector must be nonzero, of length 2^p with p >= 1")
    nbytes = _REVERSE_NF_ARRAYS * 16 * 2**p
    require_bytes(nbytes, f"the reverse normal form at p = {p} needs {nbytes} bytes")
    # the form of v at unit scale (the scale rule of linalg), whose Sigma is
    # scaled back by 2^e; an out-of-range v is dropped for its scaled copy
    v, e = _unit(v)
    if frob(v - np.conj(bit_reversed(v))) > EPS_SYM * frob(v):
        raise SymmetryMismatchError("vector is not reverse symmetric (within EPS_SYM)")
    m = p // 2
    n = 2**m
    cores = v.reshape((n, -1) + (2,) * m).transpose(0, 1, *range(m + 1, 1, -1)).reshape(n, -1, n).swapaxes(0, 1)
    # C, or C_0 stacked over C_1, made exactly Hermitian
    cores = (0.5 * (cores + dagger(cores))).reshape(-1, n)
    if p % 2 == 0:
        sigma, carry = eigh(cores)
        interior = []
    else:
        u, sigma, vh = svd(cores)
        carry = dagger(vh)
        interior = [(vh @ u.reshape(2, n, n)).reshape(2 * n, n)]
    del cores
    # carry is what is left of W once U_1 .. U_j are split off its rows
    us: list[np.ndarray] = []
    for j in range(m):
        # rows (bit, bond) with the bit slowest, as ReverseNormalForm.factor reads them
        u = carry.reshape(2**j, 2, -1).swapaxes(0, 1).reshape(2 ** (j + 1), -1)
        if j < m - 1:  # the last carry is absorbed: U_m is the unitary remainder
            u, s, carry = svd(u)
            carry *= s[:, None]
        us.append(u)
    return ReverseNormalForm(p=p, us=tuple(us + interior), sigma=np.ldexp(sigma, e), lam=np.ones(1))


# ------------------------------------------------------------------- bitflip

def bitflip_construct(m: MPSState, sign: int = 1) -> tuple[MPSState, SymmetryWitness]:
    """Block-diagonal doubling pairing each site with its flipped partner.

    The output satisfies A_j^(i) = s_j U_j A_j^(1-i) U_{(j mod p)+1} with
    exact 0/1 swap involutions U_j (a scalar 1 at an open bond 1), where
    s_1 = sign and s_j = 1 otherwise.
    """
    if sign not in (1, -1):
        raise BadParamsError(f"sign must be +1 or -1, got {sign!r}")
    _require_invariant(m, lambda x: sign * x[::-1], f"vector does not satisfy J x = {sign:+d} x (within EPS_SYM)")
    leads = [sign] + [1] * (m.p - 1)
    swapped = [lead * site[::-1] for lead, site in zip(leads, m.sites)]
    witnesses = [_swap_block(d, d) for d in m.dims[:-1]]
    if m.boundary == "open":
        witnesses[0] = np.eye(1, dtype=np.complex128)
    out = MPSState(_direct_sum(m, swapped), boundary=m.boundary)
    return out, SymmetryWitness(kind="bitflip", sign=sign, matrices=tuple(witnesses))


def _involution_eigenbasis(u: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize an involution: returns (d, s) with u = s^{-1} d s, d a
    +-1 diagonal with the +1 entries leading."""
    n = u.shape[0]
    if frob(u @ u - np.eye(n)) > tol * max(frob(u) ** 2, 1.0):
        raise NotDiagonalizableError("witness is not an involution (U^2 != I)")
    if _is_hermitian(u, tol):
        w, v = eigh(u)
        order = np.argsort(-w)
        w, v = w[order], v[:, order]
        s = dagger(v)
    else:
        w, v = np.linalg.eig(u)
        order = np.argsort(-w.real)
        w, v = w[order], v[:, order]
        s = np.linalg.inv(v)
    d = np.diag(np.where(w.real >= 0, 1.0, -1.0).astype(np.complex128))
    return d, s


def bitflip_normal_form(m: MPSState, w: SymmetryWitness) -> tuple[MPSState, SymmetryWitness]:
    """Conjugate each bond by the eigenbasis of its involution witness so the
    relations use only +-1 diagonal witnesses; the vector is preserved."""
    if w.kind != "bitflip" or w.matrices is None:
        raise WitnessViolationError("need a bitflip witness with matrices")
    rep = verify_relation(m, w)
    if rep.max_residual > EPS_SYM * _state_scale(m):
        raise WitnessViolationError(
            f"witness relations fail on the input (residual {rep.max_residual:.2e})"
        )
    p = m.p
    ds = []
    ss = []
    for u in w.matrices:
        d, s = _involution_eigenbasis(np.asarray(u, dtype=np.complex128), 1e-9)
        ds.append(d)
        ss.append(s)
    inv_next = [np.linalg.inv(ss[(j + 1) % p]) for j in range(p)]
    sites = [ss[j] @ site @ inv_next[j] for j, site in enumerate(m.sites)]
    out = MPSState(sites, boundary=m.boundary)
    return out, SymmetryWitness(kind="bitflip", sign=w.sign, matrices=tuple(ds))


# ------------------------------------------------------------------- fullbit

def fullbit_state(a, p: int) -> MPSState:
    """Site-independent periodic state with the pair (A, J A J), A Hermitian."""
    require_site_count(p)
    m = as_cmatrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatchError("need a square matrix")
    if not _is_hermitian(m, EPS_LIN):
        raise NotHermitianError("fullbit states require a Hermitian matrix")
    return MPSState([(m, _flip2(m))] * p, boundary="periodic")


def fullbit_normal_form(a) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize the pair (A, J A J): returns (Lambda, B) with Lambda the
    real diagonal eigenvalue matrix of A and B the Hermitian rotated partner.
    The periodic vector of the repeated pair is unchanged for every p."""
    m = as_cmatrix(a)
    w, v = eigh(m)
    lam = np.diag(w.astype(np.complex128))
    b = dagger(v) @ _flip2(m) @ v
    return lam, b


# ------------------------------------------------ first / last site duplication

def _duplicated_end(b, sign: int, first: bool) -> MPSState:
    """Open MPS of b with the site (1, sign) inserted first or last."""
    if sign not in (1, -1):
        raise BadParamsError(f"sign must be +1 or -1, got {sign!r}")
    vb = as_cvector(b)
    if not np.any(vb):
        raise ZeroVectorError("b must be nonzero")
    sites = list(from_vector(vb).sites)
    one = np.array([[1.0]], dtype=np.complex128)
    sites.insert(0 if first else len(sites), (one, sign * one))
    return MPSState(sites, boundary="open")


def firstsite_construct(b, sign: int = 1) -> MPSState:
    """Open MPS for x = (b; sign * b): site 1 carries the pair (1, sign)."""
    return _duplicated_end(b, sign, first=True)


def lastsite_construct(b, sign: int = 1) -> MPSState:
    """Open MPS for the interleaved vector x_{..., i_p} = sign^{i_p} b_{...}."""
    return _duplicated_end(b, sign, first=False)


# --------------------------------------------------------------- verification

@dataclass(frozen=True)
class RelationReport:
    kind: str
    site_residuals: tuple[float, ...]
    consistency_residuals: tuple[float, ...] = ()

    @property
    def max_residual(self) -> float:
        return max(
            max(self.site_residuals, default=0.0),
            max(self.consistency_residuals, default=0.0),
        )


def _state_scale(m: MPSState) -> float:
    return max(max(frob(a0), frob(a1)) for a0, a1 in m.sites) or 1.0


def _witness_list(w: SymmetryWitness, p: int) -> list[np.ndarray]:
    if w.matrices is None or len(w.matrices) != p:
        got = 0 if w.matrices is None else len(w.matrices)
        raise ShapeMismatchError(f"witness needs {p} matrices, got {got}")
    return [np.asarray(u, dtype=np.complex128) for u in w.matrices]


def verify_relation(m: MPSState, w: SymmetryWitness) -> RelationReport:
    """Frobenius residuals of the defining site relations of a witness.

    Reverse witnesses additionally report the consistency residuals
    S_j^H = S_{p-j} (with S_0 = S_p).  Shape-incompatible witnesses raise
    ShapeMismatchError; mere numeric violation only shows in the report,
    which callers threshold themselves.
    """
    p = m.p
    kind = w.kind
    res: list[float] = []
    cons: list[float] = []
    if kind == "bitshift":
        r = w.block_len
        if r < 1 or p % r:
            raise ShapeMismatchError(f"block length {r} must divide p = {p}")
        for j in range(p):
            if m.sites[j] is m.sites[j % r]:  # one shared core: the residual is exactly 0
                res.append(0.0)
                continue
            a0, a1 = m.sites[j]
            b0, b1 = m.sites[j % r]
            if a0.shape != b0.shape:
                raise ShapeMismatchError(f"sites {j % r + 1} and {j + 1} differ in shape")
            res.append(max(frob(a0 - b0), frob(a1 - b1)))
    elif kind == "reverse":
        s = _witness_list(w, p)

        def s_at(j: int) -> np.ndarray:  # S_j with S_0 = S_p
            return s[j - 1] if j >= 1 else s[p - 1]

        for j in range(1, p + 1):
            a0, a1 = m.sites[j - 1]
            o0, o1 = m.sites[p - j]
            s_left = s_at(p - j)
            s_right = s_at(p + 1 - j)
            if s_left.shape[0] != o0.shape[0] or s_right.shape[0] != o0.shape[1]:
                raise ShapeMismatchError(f"reverse witness shapes do not match the chain at site {j}")
            try:
                t0 = np.linalg.solve(s_left, o0 @ s_right)
                t1 = np.linalg.solve(s_left, o1 @ s_right)
            except np.linalg.LinAlgError as exc:
                raise ShapeMismatchError(f"singular reverse witness S_{p - j}: {exc}") from exc
            res.append(max(frob(dagger(a0) - t0), frob(dagger(a1) - t1)))
        for j in range(1, p + 1):
            cons.append(frob(dagger(s_at(j)) - s_at(p - j)))
    elif kind == "bitflip":
        u = _witness_list(w, p)
        for j in range(p):
            a0, a1 = m.sites[j]
            lead = w.sign if j == 0 else 1
            u_next = u[(j + 1) % p]
            if u[j].shape[0] != a0.shape[0] or u_next.shape[0] != a0.shape[1]:
                raise ShapeMismatchError(f"bitflip witness shapes do not match the chain at site {j + 1}")
            res.append(frob(a1 - lead * (u[j] @ a0 @ u_next)))
    elif kind == "fullbit":
        a0, a1 = m.sites[0]
        for k in range(p):
            b0, b1 = m.sites[k]
            if b0.shape != a0.shape:
                raise ShapeMismatchError("fullbit states must be site-independent")
            res.append(max(frob(b0 - a0), frob(b1 - a1), frob(b1 - _flip2(b0))))
        cons.append(frob(a0 - dagger(a0)))
    elif kind == "firstsite":
        a0, a1 = m.sites[0]
        res.append(frob(a1 - w.sign * a0))
    elif kind == "lastsite":
        a0, a1 = m.sites[-1]
        res.append(frob(a1 - w.sign * a0))
    else:  # pragma: no cover - guarded by SymmetryWitness.__post_init__
        raise UnknownNameError(f"unknown witness kind {kind!r}")
    return RelationReport(kind=kind, site_residuals=tuple(res), consistency_residuals=tuple(cons))


def heuristic_bitflip_witness(m: MPSState, sign: int = 1) -> SymmetryWitness:
    """Exchange-matrix ansatz for unknown sign patterns: U_j = J on bond j.

    Purely heuristic; whether it certifies anything must be read off
    verify_relation.
    """
    dims = m.dims
    mats = tuple(exchange_matrix(dims[j]) for j in range(m.p))
    return SymmetryWitness(kind="bitflip", sign=sign, matrices=mats, heuristic=True)
