"""Reference computations the benchmark checks the symtt CLI against.

Nothing here imports symtt: the file formats, the model Hamiltonians, the
chain contraction and the orbit counts are written again from their
definitions, so a defect in the layer under test cannot hide in its oracle.
"""

from __future__ import annotations

import math
from functools import reduce
from pathlib import Path

import numpy as np
import scipy.sparse as sp

# ------------------------------------------------------------------ formats


def _fmt_lines(values) -> str:
    z = np.asarray(values, dtype=np.complex128).reshape(-1)
    return "\n".join([f"{a:.17g} {b:.17g}" for a, b in zip(z.real.tolist(), z.imag.tolist())])


def write_vec(path: Path, x) -> None:
    """VEC1 writer: ``VEC1 <p>`` then one ``<re> <im>`` line per entry."""
    p = len(x).bit_length() - 1
    Path(path).write_text(f"VEC1 {p}\n{_fmt_lines(x)}\n", encoding="utf-8")


def write_mat(path: Path, a) -> None:
    """MAT1 writer: ``MAT1 <rows> <cols>`` then the entries row-major."""
    rows, cols = np.shape(a)
    Path(path).write_text(f"MAT1 {rows} {cols}\n{_fmt_lines(a)}\n", encoding="utf-8")


def _complex(tokens: list[str]) -> np.ndarray:
    pairs = np.array(tokens, dtype=float).reshape(-1, 2)
    return pairs[:, 0] + 1j * pairs[:, 1]


def read_vec(path: Path) -> np.ndarray:
    tok = Path(path).read_text(encoding="utf-8").split()
    if tok[0] != "VEC1" or len(tok) != 2 + 2 * 2 ** int(tok[1]):
        raise ValueError(f"{path}: not a VEC1 file of the size its header states")
    return _complex(tok[2:])


def read_mat(path: Path) -> np.ndarray:
    tok = Path(path).read_text(encoding="utf-8").split()
    rows, cols = int(tok[1]), int(tok[2])
    if tok[0] != "MAT1" or len(tok) != 3 + 2 * rows * cols:
        raise ValueError(f"{path}: not a MAT1 file of the size its header states")
    return _complex(tok[3:]).reshape(rows, cols)


def read_mps(path: Path) -> tuple[list[tuple[np.ndarray, np.ndarray]], str]:
    """(sites, boundary) of an MPS1 file; each site is its (A0, A1) pair."""
    tok = Path(path).read_text(encoding="utf-8").split()
    if tok[0] != "MPS1" or tok[3] != "DIMS":
        raise ValueError(f"{path}: not an MPS1 file")
    p, boundary = int(tok[1]), tok[2]
    k = 4 + p + 1
    sites = []
    for j in range(1, p + 1):
        if tok[k : k + 2] != ["SITE", str(j)]:
            raise ValueError(f"{path}: expected SITE {j}")
        k += 2
        pair = []
        for tag in ("A0", "A1"):
            if tok[k] != tag:
                raise ValueError(f"{path}: expected {tag} at site {j}")
            rows, cols = int(tok[k + 1]), int(tok[k + 2])
            k += 3
            pair.append(_complex(tok[k : k + 2 * rows * cols]).reshape(rows, cols))
            k += 2 * rows * cols
        sites.append((pair[0], pair[1]))
    if k != len(tok):
        raise ValueError(f"{path}: trailing tokens after site {p}")
    return sites, boundary


def read_witness(path: Path) -> tuple[str, int, list[np.ndarray]]:
    """(kind, sign, matrices) of a WIT file."""
    tok = Path(path).read_text(encoding="utf-8").split()
    if tok[0] != "WITS":
        raise ValueError(f"{path}: not a WIT file")
    kind, sign, count = tok[1], int(tok[2]), int(tok[4])
    k = 5
    mats = []
    for j in range(1, count + 1):
        if tok[k : k + 3] != ["WIT", kind, str(j)]:
            raise ValueError(f"{path}: expected WIT {kind} {j}")
        rows, cols = int(tok[k + 3]), int(tok[k + 4])
        k += 5
        mats.append(_complex(tok[k : k + 2 * rows * cols]).reshape(rows, cols))
        k += 2 * rows * cols
    return kind, sign, mats


def parse_report(text: str) -> dict[str, str]:
    """key=value report lines of the CLI."""
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def floats(field: str) -> np.ndarray:
    return np.array([float(v) for v in field.split(",")])


# ------------------------------------------------------------ contraction


def _half(tensors: list[np.ndarray]) -> np.ndarray:
    """Products of a run of site tensors, one per bit string, first bit slowest."""
    out = tensors[0]
    for t in tensors[1:]:
        n, dl, _ = out.shape
        out = np.matmul(out[:, None], t[None]).reshape(n * 2, dl, t.shape[2])
    return out


def contract(sites) -> np.ndarray:
    """Dense vector of a chain: component i is trace(A_1^(i_1) ... A_p^(i_p))."""
    tensors = [np.stack(pair) for pair in sites]
    if len(tensors) == 1:
        return np.einsum("iaa->i", tensors[0])
    mid = len(tensors) // 2
    left, right = _half(tensors[:mid]), _half(tensors[mid:])
    # trace(L_i R_j) = sum_ab L_i[a, b] R_j[b, a]
    return (left.reshape(len(left), -1) @ right.transpose(0, 2, 1).reshape(len(right), -1).T).reshape(-1)


def gauge_residuals(sites, gauge: str) -> list[float]:
    """Per-site Frobenius residuals of the left, right or strong conditions."""
    out = []
    for a0, a1 in sites:
        if gauge == "right":
            g = a0 @ a0.conj().T + a1 @ a1.conj().T
            out.append(float(np.linalg.norm(g - np.eye(len(g)))))
            continue
        g = a0.conj().T @ a0 + a1.conj().T @ a1
        res = float(np.linalg.norm(g - np.eye(len(g))))
        if gauge == "strong":
            g0 = a0.conj().T @ a0
            res = max(res, float(np.linalg.norm(g0 - np.diag(np.diag(g0)))))
        out.append(res)
    return out


def schmidt_values(x: np.ndarray) -> list[np.ndarray]:
    """Singular values of every bipartition (i_1..i_j | i_j+1..i_p)."""
    p = len(x).bit_length() - 1
    return [np.linalg.svd(x.reshape(2**j, -1), compute_uv=False) for j in range(1, p)]


def product_sum_schmidt(factors: np.ndarray, coeffs: np.ndarray) -> list[np.ndarray]:
    """Schmidt values of sum_k coeffs[k] * kron(factors[k, 0], ..., factors[k, p-1]).

    At each cut the matricization is L diag(coeffs) R^T with one column per
    product state, so a QR of both sides leaves an r x r core.
    """
    r, p, _ = factors.shape
    out = []
    for j in range(1, p):
        left = np.stack([reduce(np.kron, factors[k, :j]) for k in range(r)], axis=1)
        right = np.stack([reduce(np.kron, factors[k, j:]) for k in range(r)], axis=1)
        core = np.linalg.qr(left)[1] @ np.diag(coeffs) @ np.linalg.qr(right)[1].T
        out.append(np.linalg.svd(core, compute_uv=False))
    return out


# ---------------------------------------------------------------- models

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]])
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_S1 = [
    np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2),
    np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / math.sqrt(2),
    np.diag([1.0, 0.0, -1.0]).astype(complex),
]

#: pair operators and their coupling per spin-1/2 table model; every model
#: also carries the transverse field lam * sum_k X_k
_PAIRS = {
    "ising_zz": (("z", "jz"),),
    "heis_xx": (("x", "jx"), ("y", "jx")),
    "heis_xy": (("x", "jx"), ("y", "jy")),
    "heis_xz": (("x", "jx"), ("z", "jz")),
    "heis_xxx": (("x", "jx"), ("y", "jx"), ("z", "jx")),
    "heis_xxz": (("x", "jx"), ("y", "jx"), ("z", "jz")),
    "heis_xyz": (("x", "jx"), ("y", "jy"), ("z", "jz")),
}
TABLE_MODELS = tuple(_PAIRS)


def _embed(p: int, d: int, ops: dict[int, np.ndarray]) -> sp.csr_matrix:
    out = sp.identity(1, dtype=complex, format="csr")
    for k in range(p):
        out = sp.kron(out, sp.csr_matrix(ops[k]) if k in ops else sp.identity(d, dtype=complex), format="csr")
    return out


def _bonds(p: int, bc: str) -> list[tuple[int, int]]:
    return [(k, k + 1) for k in range(p - 1)] + ([(0, p - 1)] if bc == "periodic" else [])


def model_matrix(name: str, p: int, params: dict[str, float], bc: str) -> np.ndarray:
    """Dense Hamiltonian of a named chain, assembled from sparse Kronecker terms."""
    if name in _PAIRS:
        ops = {"x": _SX, "y": _SY, "z": _SZ}
        h = sp.csr_matrix((2**p, 2**p), dtype=complex)
        for k, l in _bonds(p, bc):
            for op, coupling in _PAIRS[name]:
                h = h + params.get(coupling, 1.0) * _embed(p, 2, {k: ops[op], l: ops[op]})
        for k in range(p):
            h = h + params.get("lam", 0.0) * _embed(p, 2, {k: _SX})
        return h.toarray()
    if name == "aklt":
        lin, quad = 1.0, 1.0 / 3.0
    else:  # bilinear_biquadratic
        theta = params.get("theta", 0.0)
        lin, quad = math.cos(theta), math.sin(theta)
    h = sp.csr_matrix((3**p, 3**p), dtype=complex)
    for k, l in _bonds(p, bc):
        # (S_k . S_l)^2 expands into products (S_a S_b)_k (S_a S_b)_l
        for a in _S1:
            h = h + lin * _embed(p, 3, {k: a, l: a})
            for b in _S1:
                h = h + quad * _embed(p, 3, {k: a @ b, l: a @ b})
    return h.toarray()


def eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, in real arithmetic when
    the matrix has no imaginary part."""
    return np.linalg.eigvalsh(h if h.imag.any() else h.real)


def structure_flags(m: np.ndarray, tol: float = 1e-10) -> dict[str, object]:
    """Structure flags of a square matrix, each from its defining identity.

    Returns the ten boolean flags and ``omega`` (the omega of an
    omega-circulant, or None).
    """
    thresh = tol * np.linalg.norm(m)

    def ok(res) -> bool:
        return bool(np.linalg.norm(res) <= thresh)

    flipped = m[::-1, ::-1]
    shift_same = m[1:, 1:] - m[:-1, :-1]
    wrap_in, wrap_out = m[1:, 0], m[:-1, -1]
    flags: dict[str, object] = {
        "symmetric": ok(m - m.T),
        "skew_symmetric": ok(m + m.T),
        "hermitian": ok(m - m.conj().T),
        "persymmetric": ok(flipped - m.T),
        "skew_persymmetric": ok(flipped + m.T),
        "centrosymmetric": ok(flipped - m),
        "toeplitz": ok(shift_same),
        "circulant": ok(shift_same) and ok(wrap_in - wrap_out),
        "skew_circulant": ok(shift_same) and ok(wrap_in + wrap_out),
        "diagonal": ok(m - np.diag(np.diag(m))),
    }
    omega = None
    if flags["circulant"]:
        omega = 1.0 + 0j
    elif flags["skew_circulant"]:
        omega = -1.0 + 0j
    elif flags["toeplitz"] and np.linalg.norm(wrap_out) > 0:
        cand = np.vdot(wrap_out, wrap_in) / np.vdot(wrap_out, wrap_out)
        if abs(abs(cand) - 1.0) <= 1e-8 and ok(wrap_in - cand * wrap_out):
            omega = complex(cand)
    flags["omega"] = omega
    return flags


# ----------------------------------------------------------- symmetries


def _bits(p: int) -> np.ndarray:
    return (np.arange(2**p)[:, None] >> np.arange(p - 1, -1, -1)) & 1


def _index(bits: np.ndarray) -> np.ndarray:
    p = bits.shape[1]
    return bits @ (1 << np.arange(p - 1, -1, -1))


def shift_index(p: int) -> np.ndarray:
    """Index of (i_2 ... i_p i_1) for every index (i_1 ... i_p)."""
    return _index(np.roll(_bits(p), -1, axis=1))


def reverse_index(p: int) -> np.ndarray:
    return _index(_bits(p)[:, ::-1])


def vector_symmetries(x: np.ndarray, tol: float = 1e-10) -> set[str]:
    """Symmetry kinds of x, each tested on its defining index relation."""
    p = len(x).bit_length() - 1
    thresh = tol * np.linalg.norm(x)
    half = len(x) // 2
    tests = {
        "bitshift": x - x[shift_index(p)],
        "reverse": x - np.conj(x[reverse_index(p)]),
        "bitflip+": x - x[::-1],
        "bitflip-": x + x[::-1],
        "firstsite+": x[half:] - x[:half],
        "firstsite-": x[half:] + x[:half],
        "lastsite+": x[1::2] - x[0::2],
        "lastsite-": x[1::2] + x[0::2],
    }
    return {kind for kind, res in tests.items() if np.linalg.norm(res) <= thresh}


def orbit_sets(bits: str) -> dict[str, list[str]]:
    p = len(bits)
    return {
        "shift_orbit": sorted({bits[k:] + bits[:k] for k in range(p)}),
        "flip_orbit": sorted({bits, bits.translate(str.maketrans("01", "10"))}),
        "reverse_orbit": sorted({bits, bits[::-1]}),
    }


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def dof_counts(p: int) -> dict[str, int]:
    """Orbit counts of p-bit strings by Burnside's lemma.

    bitshift is the necklace count, reverse the palindrome count, and the
    combined group (rotations, reflections, complement) counts bracelets up
    to complement.
    """
    necklaces = sum(_phi(d) * 2 ** (p // d) for d in range(1, p + 1) if p % d == 0) // p
    fixed = sum(2 ** math.gcd(k, p) for k in range(p))
    # a rotation composed with the complement fixes strings only when every
    # cycle has even length; each such cycle then has two fillings
    fixed += sum(2 ** math.gcd(k, p) for k in range(p) if (p // math.gcd(k, p)) % 2 == 0)
    if p % 2:
        fixed += p * 2 ** ((p + 1) // 2)
    else:
        half = p // 2
        # reflections through two sites (complement impossible on their fixed
        # sites), and through two bonds (with and without the complement)
        fixed += half * 2 ** (half + 1) + half * 2**half + half * 2**half
    return {
        "bitflip": 2 ** (p - 1),
        "bitshift": necklaces,
        "reverse": (2**p + 2 ** ((p + 1) // 2)) // 2,
        "combined": fixed // (4 * p),
    }
