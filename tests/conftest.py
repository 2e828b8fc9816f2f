from pathlib import Path

import numpy as np
import pytest

from symtt import MPSState
from symtt.errors import FormatError
from symtt.linalg import as_cmatrix, as_cvector, dagger, frob, kron_chain, require_tol
from symtt.structured import EPS_STRUCT, StructureFlags


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unit_vector(rng, n):
    v = random_complex(rng, n)
    return v / np.linalg.norm(v)


def random_hermitian(rng, n):
    a = random_complex(rng, n, n)
    return 0.5 * (a + a.conj().T)


def random_sym_persym(rng, n, complex_ok=False):
    """Random (real by default) symmetric persymmetric matrix."""
    a = random_complex(rng, n, n) if complex_ok else rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    return 0.5 * (a + a[::-1, ::-1])


def random_sym_skew_persym(rng, n):
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    return 0.5 * (a - a[::-1, ::-1])


def random_mps(rng, p, d, boundary="open"):
    """Random chain with uniform interior bond dimension d."""
    dims = [1] + [d] * (p - 1) + [1] if boundary == "open" else [d] * (p + 1)
    sites = [
        (random_complex(rng, dims[j], dims[j + 1]), random_complex(rng, dims[j], dims[j + 1]))
        for j in range(p)
    ]
    return MPSState(sites, boundary=boundary)


def brute_force_vector(m):
    """Oracle: every component as its own left-to-right product and trace."""
    out = np.empty(2**m.p, dtype=complex)
    for idx in range(2**m.p):
        prod = np.eye(m.dims[0], dtype=complex)
        for j, pair in enumerate(m.sites):
            prod = prod @ pair[(idx >> (m.p - 1 - j)) & 1]
        out[idx] = np.trace(prod)
    return out


def dense_reference(spec):
    """Oracle: the term sum with every term a dense left-to-right Kronecker fold."""
    ident = np.eye(spec.d, dtype=np.complex128)
    h = np.zeros((spec.d**spec.p,) * 2, dtype=np.complex128)
    for term in spec.terms:
        h += term.coeff * kron_chain(ident if f is None else f for f in term.factors)
    return h


def group_orbit_count(p, kinds):
    """Oracle: orbits of the p-bit strings under the group the kinds generate,
    found by breadth-first closure of the generators' index permutations."""
    idx = np.arange(2**p, dtype=np.int64)
    gens = []
    if "bitshift" in kinds:
        gens.append(((idx << 1) & (2**p - 1)) | (idx >> (p - 1)))
    if "bitflip" in kinds:
        gens.append(idx[::-1].copy())
    if "reverse" in kinds:
        gens.append(np.array([int(format(i, f"0{p}b")[::-1], 2) for i in range(2**p)], dtype=np.int64))
    seen = {idx.tobytes(): idx}
    frontier = [idx]
    while frontier:
        nxt = []
        for g in frontier:
            for gen in gens:
                h = g[gen]
                if h.tobytes() not in seen:
                    seen[h.tobytes()] = h
                    nxt.append(h)
        frontier = nxt
    return len(np.unique(np.stack(list(seen.values())).min(axis=0)))


def loop_toeplitz(first_row, first_col):
    """Reference builder: one row and one column per step, so the diagonal
    ends up holding first_col[0]."""
    r, c = as_cvector(first_row), as_cvector(first_col)
    n = len(r)
    out = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        out[i, i:] = r[: n - i]
        out[i:, i] = c[: n - i]
    return out


def loop_omega_circulant(first_row, omega):
    """Reference builder: row i is the first row shifted right by i, with the
    i wrapped entries multiplied by omega."""
    r = as_cvector(first_row)
    n = len(r)
    out = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        out[i, i:] = r[: n - i]
        if i:
            out[i, :i] = omega * r[n - i :]
    return out


def dense_classify(a, tol=EPS_STRUCT):
    """Oracle for ``classify``: every residual a dense n x n matrix, the
    omega candidate from a loop over the wrapped entries."""
    require_tol(tol)
    m = as_cmatrix(a)
    if m.shape[0] != m.shape[1]:
        return StructureFlags()
    n = m.shape[0]
    thresh = tol * frob(m)

    def ok(res):
        return frob(res) <= thresh

    mt, mjj, r = m.T, m[::-1, ::-1], m[0, :]
    flags = {
        "symmetric": ok(m - mt),
        "skew_symmetric": ok(m + mt),
        "hermitian": ok(m - dagger(m)),
        "persymmetric": ok(mjj - mt),
        "skew_persymmetric": ok(mjj + mt),
        "centrosymmetric": ok(mjj - m),
        "toeplitz": ok(m - loop_toeplitz(r, m[:, 0])),
        "circulant": ok(m - loop_omega_circulant(r, 1.0)),
        "skew_circulant": ok(m - loop_omega_circulant(r, -1.0)),
        "diagonal": ok(m - np.diag(np.diag(m))),
    }
    omega = None
    if flags["circulant"]:
        omega = 1.0 + 0.0j
    elif flags["skew_circulant"]:
        omega = -1.0 + 0.0j
    else:
        cand, best_mag = None, thresh
        for k in range(1, n):
            if abs(r[n - k]) > best_mag:
                best_mag = abs(r[n - k])
                cand = m[k, 0] / r[n - k]
        if (
            cand is not None
            and abs(abs(cand) - 1.0) <= max(tol, 1e-8)
            and ok(m - loop_omega_circulant(r, cand))
        ):
            omega = complex(cand)
    return StructureFlags(omega=omega, **flags)


class line_list_reader:
    """Oracle for ``fileio._Reader``: the reader that builds the list of every
    non-blank line of the file and parses each body from its lines, with no
    shared bodies.  It has ``_Reader``'s interface, so patching it in as
    ``symtt.fileio._Reader`` gives the readers' results from line lists."""

    def __init__(self, path):
        self.where = str(path)
        # undecodable bytes become U+FFFD, which no header or entry accepts
        text = Path(path).read_text(encoding="utf-8", errors="replace")
        self.lines = list(filter(str.strip, text.splitlines()))
        self.pos = 0

    def error(self, message: str) -> FormatError:
        return FormatError(f"{self.where}: {message}")

    def header(self, tag: str, count: int, usage: str) -> list[str]:
        if self.pos == len(self.lines):
            raise self.error("unexpected end of file")
        tokens = self.lines[self.pos].split()
        self.pos += 1
        lead = tag.split()
        if len(tokens) != count or tokens[: len(lead)] != lead:
            raise self.error(f"expected '{usage}', got {' '.join(tokens)!r}")
        return tokens[len(lead) :]

    def int(self, token: str, least: int) -> int:
        try:
            value = int(token)
        except ValueError:
            raise self.error(f"expected an integer in the header, got {token!r}") from None
        if value < least:
            raise self.error(f"header value {value} must be >= {least}")
        return value

    def left(self) -> int:
        return len(self.lines) - self.pos

    def done(self) -> None:
        if self.left():
            raise self.error(f"{self.left()} non-blank line(s) after the last body, the first {self.lines[self.pos].strip()!r}")

    def matrix(self, rows: int, cols: int, promised: str = "") -> np.ndarray:
        n = rows * cols
        if n > self.left():
            raise self.error(f"header promises {promised or n} entries, but only {self.left()} lines remain")
        body = self.lines[self.pos : self.pos + n]
        self.pos += n
        try:
            a = np.loadtxt(body, comments=None, ndmin=2)
        except ValueError as exc:
            raise self.error(f"entry lines must be '<re> <im>': {exc}") from None
        if a.shape != (n, 2):
            raise self.error(f"entry lines must be '<re> <im>', got {a.shape[1]} numbers per line")
        if not np.isfinite(a).all():
            raise self.error("entries must be finite (no NaN/Inf)")
        return a.view(np.complex128).reshape(rows, cols)
