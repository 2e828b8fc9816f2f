"""Text file formats: MAT1 (matrices), VEC1 (2^p vectors), MPS1 (chains),
and WIT blocks (witness matrices), all through one codec.

A file is a sequence of header lines, each header that gives a shape
followed by the body of that matrix: one ``<re> <im>`` line per entry, row
major.  Values are written with 17 significant digits, so a write/read round
trip reproduces every float64 exactly, signed zeros and subnormals included.
Readers skip blank lines, require exactly two finite numbers on every entry
line, and raise FormatError on any malformed header or entry line, and on
any non-blank line after the last body the headers promise.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import FormatError, SymttError
from .linalg import as_cmatrix, as_cvector
from .mps import MPSState
from .symmetry import SymmetryWitness


def _write(path, parts) -> None:
    """Write ``parts`` in order: a str is one header line, an array a body."""
    with open(path, "w", encoding="utf-8") as f:
        for part in parts:
            if isinstance(part, str):
                f.write(part + "\n")
            else:
                flat = np.ascontiguousarray(part, dtype=np.complex128).reshape(-1).view(np.float64)
                f.write(("%.17g %.17g\n" * (flat.size // 2)) % tuple(flat.tolist()))


class _Reader:
    """The non-blank lines of one file, consumed front to back."""

    def __init__(self, path):
        self.where = str(path)
        # undecodable bytes become U+FFFD, which no header or entry accepts
        text = Path(path).read_text(encoding="utf-8", errors="replace")
        self.lines = list(filter(str.strip, text.splitlines()))
        self.pos = 0

    def error(self, message: str) -> FormatError:
        return FormatError(f"{self.where}: {message}")

    def header(self, tag: str, count: int, usage: str) -> list[str]:
        """The tokens after ``tag`` on the next line, which must hold
        ``count`` tokens and start with the tokens of ``tag``."""
        if self.pos == len(self.lines):
            raise self.error("unexpected end of file")
        tokens = self.lines[self.pos].split()
        self.pos += 1
        lead = tag.split()
        if len(tokens) != count or tokens[: len(lead)] != lead:
            raise self.error(f"expected '{usage}', got {' '.join(tokens)!r}")
        return tokens[len(lead) :]

    def int(self, token: str, least: int) -> int:
        """A header integer, at least ``least``."""
        try:
            value = int(token)
        except ValueError:
            raise self.error(f"expected an integer in the header, got {token!r}") from None
        if value < least:
            raise self.error(f"header value {value} must be >= {least}")
        return value

    def left(self) -> int:
        """Lines not read yet: an upper bound on the entries still to come."""
        return len(self.lines) - self.pos

    def done(self) -> None:
        """Raise FormatError unless every non-blank line has been read."""
        if self.left():
            raise self.error(f"{self.left()} non-blank line(s) after the last body, the first {self.lines[self.pos].strip()!r}")

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        """The next rows*cols entry lines as a complex matrix, row major."""
        n = rows * cols
        if n > self.left():
            raise self.error(f"header promises {n} entries, but only {self.left()} lines remain")
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
        # a view keeps the sign of an imaginary -0.0, which re + 1j*im would not
        return a.view(np.complex128).reshape(rows, cols)


def write_mat(path, a) -> None:
    m = as_cmatrix(a)
    _write(path, [f"MAT1 {m.shape[0]} {m.shape[1]}", m])


def read_mat(path) -> np.ndarray:
    r = _Reader(path)
    rows, cols = r.header("MAT1", 3, "MAT1 <rows> <cols>")
    m = r.matrix(r.int(rows, 1), r.int(cols, 1))
    r.done()
    return m


def write_vec(path, x) -> None:
    v = as_cvector(x)
    p = len(v).bit_length() - 1
    if 2**p != len(v):
        raise FormatError(f"vector length {len(v)} is not a power of two")
    _write(path, [f"VEC1 {p}", v])


def read_vec(path) -> np.ndarray:
    r = _Reader(path)
    (token,) = r.header("VEC1", 2, "VEC1 <p>")
    p = r.int(token, 0)
    # compare exponents first so a huge p never builds 2**p
    if p >= r.left().bit_length():
        raise r.error(f"header promises 2^{p} entries, but only {r.left()} lines remain")
    v = r.matrix(2**p, 1).reshape(-1)
    r.done()
    return v


def write_mps(path, m: MPSState) -> None:
    parts = [f"MPS1 {m.p} {m.boundary}", "DIMS " + " ".join(map(str, m.dims))]
    for j, (a0, a1) in enumerate(m.sites, start=1):
        parts += [f"SITE {j}", f"A0 {a0.shape[0]} {a0.shape[1]}", a0, f"A1 {a1.shape[0]} {a1.shape[1]}", a1]
    _write(path, parts)


def read_mps(path) -> MPSState:
    r = _Reader(path)
    p, boundary = r.header("MPS1", 3, "MPS1 <p> <open|periodic>")
    p = r.int(p, 1)
    dims = [r.int(d, 1) for d in r.header("DIMS", p + 2, f"DIMS <{p + 1} bond dimensions>")]
    sites = []
    for j in range(1, p + 1):
        r.header(f"SITE {j}", 2, f"SITE {j}")
        pair = []
        for tag in ("A0", "A1"):
            rows, cols = (r.int(t, 1) for t in r.header(tag, 3, f"{tag} <rows> <cols>"))
            if (rows, cols) != (dims[j - 1], dims[j]):
                raise r.error(f"site {j} shape {rows}x{cols} contradicts DIMS")
            pair.append(r.matrix(rows, cols))
        sites.append(pair)
    r.done()
    try:
        return MPSState(sites, boundary=boundary)
    except SymttError as exc:
        raise r.error(str(exc)) from None


def write_witness(path, w: SymmetryWitness) -> None:
    parts = [f"WITS {w.kind} {w.sign:+d} {w.block_len} {len(w.matrices or ())}"]
    for j, u in enumerate(w.matrices or (), start=1):
        m = as_cmatrix(u)
        parts += [f"WIT {w.kind} {j}", f"{m.shape[0]} {m.shape[1]}", m]
    _write(path, parts)


def read_witness(path) -> SymmetryWitness:
    r = _Reader(path)
    kind, sign, block_len, count = r.header("WITS", 5, "WITS <kind> <sign> <block_len> <count>")
    sign, block_len, count = r.int(sign, -1), r.int(block_len, 1), r.int(count, 0)
    mats = []
    for j in range(1, count + 1):
        r.header(f"WIT {kind} {j}", 3, f"WIT {kind} {j}")
        rows, cols = (r.int(t, 1) for t in r.header("", 2, "<rows> <cols>"))
        mats.append(r.matrix(rows, cols))
    r.done()
    try:
        return SymmetryWitness(kind=kind, sign=sign, block_len=block_len, matrices=tuple(mats) or None)
    except SymttError as exc:
        raise r.error(str(exc)) from None
