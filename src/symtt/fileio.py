"""Text file formats: MAT1 (matrices), VEC1 (2^p vectors), MPS1 (chains),
and WIT blocks (witness matrices).

All values are written with 17 significant digits so a write/read round trip
reproduces every float64 exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import FormatError
from .linalg import as_cmatrix, as_cvector
from .mps import MPSState
from .symmetry import SYMMETRY_KINDS, SymmetryWitness


def _fmt(z: complex) -> str:
    return f"{z.real:.17g} {z.imag:.17g}"


def _parse_complex(line: str, where: str) -> complex:
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"{where}: expected '<re> <im>', got {line!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise FormatError(f"{where}: bad number in {line!r}") from exc


def _header_int(token: str, where: str, least: int) -> int:
    """A header integer, at least ``least``."""
    try:
        value = int(token)
    except ValueError:
        raise FormatError(f"{where}: expected an integer in the header, got {token!r}") from None
    if value < least:
        raise FormatError(f"{where}: header value {value} must be >= {least}")
    return value


class _Lines:
    def __init__(self, text: str, where: str):
        self.lines = [ln for ln in text.splitlines()]
        self.pos = 0
        self.where = where

    def next(self) -> str:
        while self.pos < len(self.lines):
            ln = self.lines[self.pos].strip()
            self.pos += 1
            if ln:
                return ln
        raise FormatError(f"{self.where}: unexpected end of file")

    def left(self) -> int:
        """Lines not read yet: an upper bound on the entries still to come."""
        return len(self.lines) - self.pos


def _matrix_body(lines: _Lines, rows: int, cols: int, where: str) -> np.ndarray:
    n = rows * cols
    if n > lines.left():
        raise FormatError(f"{where}: header promises {n} entries, but only {lines.left()} lines remain")
    out = np.empty(n, dtype=np.complex128)
    for k in range(n):
        out[k] = _parse_complex(lines.next(), where)
    if not np.all(np.isfinite(out)):
        raise FormatError(f"{where}: entries must be finite (no NaN/Inf)")
    return out.reshape(rows, cols)


def write_mat(path, a) -> None:
    m = as_cmatrix(a)
    rows, cols = m.shape
    body = "\n".join(_fmt(z) for z in m.reshape(-1))
    Path(path).write_text(f"MAT1 {rows} {cols}\n{body}\n", encoding="utf-8")


def read_mat(path) -> np.ndarray:
    where = str(path)
    lines = _Lines(Path(path).read_text(encoding="utf-8"), where)
    header = lines.next().split()
    if len(header) != 3 or header[0] != "MAT1":
        raise FormatError(f"{where}: expected 'MAT1 <rows> <cols>' header")
    rows, cols = _header_int(header[1], where, 1), _header_int(header[2], where, 1)
    return _matrix_body(lines, rows, cols, where)


def write_vec(path, x) -> None:
    v = as_cvector(x)
    n = len(v)
    p = n.bit_length() - 1
    if 2**p != n:
        raise FormatError(f"vector length {n} is not a power of two")
    body = "\n".join(_fmt(z) for z in v)
    Path(path).write_text(f"VEC1 {p}\n{body}\n", encoding="utf-8")


def read_vec(path) -> np.ndarray:
    where = str(path)
    lines = _Lines(Path(path).read_text(encoding="utf-8"), where)
    header = lines.next().split()
    if len(header) != 2 or header[0] != "VEC1":
        raise FormatError(f"{where}: expected 'VEC1 <p>' header")
    p = _header_int(header[1], where, 0)
    # compare exponents first so a huge p never builds 2**p
    if p >= lines.left().bit_length():
        raise FormatError(f"{where}: header promises 2^{p} entries, but only {lines.left()} lines remain")
    return _matrix_body(lines, 2**p, 1, where).reshape(-1)


def write_mps(path, m: MPSState) -> None:
    out = [f"MPS1 {m.p} {m.boundary}", "DIMS " + " ".join(str(d) for d in m.dims)]
    for j, (a0, a1) in enumerate(m.sites, start=1):
        out.append(f"SITE {j}")
        for tag, a in (("A0", a0), ("A1", a1)):
            out.append(f"{tag} {a.shape[0]} {a.shape[1]}")
            out.extend(_fmt(z) for z in a.reshape(-1))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def read_mps(path) -> MPSState:
    where = str(path)
    lines = _Lines(Path(path).read_text(encoding="utf-8"), where)
    header = lines.next().split()
    if len(header) != 3 or header[0] != "MPS1":
        raise FormatError(f"{where}: expected 'MPS1 <p> <open|periodic>' header")
    p = _header_int(header[1], where, 1)
    boundary = header[2]
    if boundary not in ("open", "periodic"):
        raise FormatError(f"{where}: boundary must be open or periodic")
    dims_line = lines.next().split()
    if dims_line[0] != "DIMS" or len(dims_line) != p + 2:
        raise FormatError(f"{where}: expected 'DIMS' with {p + 1} entries")
    dims = [_header_int(d, where, 1) for d in dims_line[1:]]
    sites = []
    for j in range(1, p + 1):
        site_line = lines.next().split()
        if site_line != ["SITE", str(j)]:
            raise FormatError(f"{where}: expected 'SITE {j}', got {' '.join(site_line)!r}")
        pair = []
        for tag in ("A0", "A1"):
            head = lines.next().split()
            if len(head) != 3 or head[0] != tag:
                raise FormatError(f"{where}: expected '{tag} <rows> <cols>' at site {j}")
            rows, cols = _header_int(head[1], where, 1), _header_int(head[2], where, 1)
            if rows != dims[j - 1] or cols != dims[j]:
                raise FormatError(f"{where}: site {j} shape {rows}x{cols} contradicts DIMS")
            pair.append(_matrix_body(lines, rows, cols, where))
        sites.append((pair[0], pair[1]))
    return MPSState(sites, boundary=boundary)


def write_witness(path, w: SymmetryWitness) -> None:
    out = [f"WITS {w.kind} {w.sign:+d} {w.block_len} {len(w.matrices or ())}"]
    for j, u in enumerate(w.matrices or (), start=1):
        m = as_cmatrix(u)
        out.append(f"WIT {w.kind} {j}")
        out.append(f"{m.shape[0]} {m.shape[1]}")
        out.extend(_fmt(z) for z in m.reshape(-1))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def read_witness(path) -> SymmetryWitness:
    where = str(path)
    lines = _Lines(Path(path).read_text(encoding="utf-8"), where)
    header = lines.next().split()
    if len(header) != 5 or header[0] != "WITS":
        raise FormatError(f"{where}: expected 'WITS <kind> <sign> <block_len> <count>' header")
    kind = header[1]
    sign = _header_int(header[2], where, -1)
    block_len = _header_int(header[3], where, 1)
    count = _header_int(header[4], where, 0)
    if kind not in SYMMETRY_KINDS:
        raise FormatError(f"{where}: unknown witness kind {kind!r}")
    mats = []
    for j in range(1, count + 1):
        head = lines.next().split()
        if head != ["WIT", kind, str(j)]:
            raise FormatError(f"{where}: expected 'WIT {kind} {j}'")
        shape = lines.next().split()
        if len(shape) != 2:
            raise FormatError(f"{where}: expected '<rows> <cols>' for WIT {j}")
        rows, cols = _header_int(shape[0], where, 1), _header_int(shape[1], where, 1)
        mats.append(_matrix_body(lines, rows, cols, where))
    return SymmetryWitness(kind=kind, sign=sign, block_len=block_len, matrices=tuple(mats) or None)
