"""Text file formats: MAT1 (matrices), VEC1 (2^p vectors), MPS1 (chains),
and WIT blocks (witness matrices), all through one codec.

A file is a sequence of header lines, each header that gives a shape
followed by the body of that matrix: one ``<re> <im>`` line per entry, row
major.  Values are written with 17 significant digits, so a write/read round
trip reproduces every float64 exactly, signed zeros and subnormals included.
Readers skip blank lines, require exactly two finite numbers on every entry
line, and raise FormatError on any malformed header or entry line, and on
any non-blank line after the last body the headers promise.

Repeated bodies cost one body, with the format unchanged: the writer formats
a body passed as the same array object once and writes its text again where
it recurs (``write_mps`` passes a shared core as the same two matrices), and
the reader parses each distinct body text once and returns the same
read-only array where it recurs, so a site-independent chain costs one site
both ways.  Equal bodies in separate arrays are formatted each time.
"""

from __future__ import annotations

import io
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import FormatError, SymttError
from .linalg import as_cmatrix, as_cvector, require_bytes
from .mps import MPSState
from .symmetry import SymmetryWitness

#: entries formatted per step, which bounds the temporaries of a large body
_FORMAT_CHUNK = 2**14
#: ASCII whitespace other than " " and "\n": a file holding any of it is
#: read through ``str.splitlines``
_ODD_SPACE = (b"\t", b"\v", b"\f", b"\r", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _entry_lines(body: np.ndarray):
    """The ``<re> <im>`` lines of a body, ``_FORMAT_CHUNK`` entries at a time."""
    flat = np.ascontiguousarray(body, dtype=np.complex128).reshape(-1).view(np.float64)
    for start in range(0, flat.size, 2 * _FORMAT_CHUNK):
        values = flat[start : start + 2 * _FORMAT_CHUNK].tolist()
        yield ("%.17g %.17g\n" * (len(values) // 2)) % tuple(values)


def _write(path, parts) -> None:
    """Write ``parts`` in order: a str is one header line, an array a body.

    A body whose array object recurs in ``parts`` is formatted once and its
    text written again where it recurs; any other body is written a chunk at
    a time.
    """
    repeats = Counter(map(id, parts))
    texts = {}  # id of a repeated body -> its text
    with open(path, "w", encoding="utf-8") as f:
        for part in parts:
            if isinstance(part, str):
                f.write(part + "\n")
            elif repeats[id(part)] == 1:
                f.writelines(_entry_lines(part))
            else:
                if id(part) not in texts:
                    texts[id(part)] = "".join(_entry_lines(part))
                f.write(texts[id(part)])


def _line_ends(raw: bytes) -> np.ndarray:
    """Offset of the end of every line of ``raw``: each "\\n", and the end of
    a last line that has none."""
    ends = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n"))
    return np.append(ends, len(raw)) if raw and not raw.endswith(b"\n") else ends


def _plain(raw: bytes, ends: np.ndarray) -> bool:
    """True if ``raw`` is ASCII, its only line break is "\\n", its only other
    whitespace is " ", and no line is empty or starts with " ": then every
    line is non-blank, and the lines between ``ends`` are what
    ``str.splitlines`` gives."""
    heads = np.frombuffer(raw, dtype=np.uint8)[ends[:-1] + 1]
    return (
        raw.isascii()
        and not raw.startswith((b"\n", b" "))
        and not any(c in raw for c in _ODD_SPACE)
        and not np.isin(heads, (ord("\n"), ord(" "))).any()
    )


class _Reader:
    """The non-blank lines of one file, consumed front to back.

    The lines are held as one bytes object, separated by single "\\n", and
    found through the offsets of their ends; no list of line strings is
    built.  A file that is not ``_plain`` (CR line ends, blank lines, other
    whitespace, non-ASCII or undecodable bytes) is first rewritten into that
    form from ``str.splitlines``, skipping blank lines.  Each distinct body
    text is parsed once; where it recurs (same hash, then the same bytes at
    the offsets kept for it), the same array is returned again, made
    read-only.
    """

    def __init__(self, path):
        self.where = str(path)
        raw = Path(path).read_bytes()
        ends = _line_ends(raw)
        if not _plain(raw, ends):
            # undecodable bytes become U+FFFD, which no header or entry accepts
            text = raw.decode("utf-8", errors="replace")
            raw = "\n".join(filter(str.strip, text.splitlines())).encode("utf-8")
            ends = _line_ends(raw)
        self.raw, self.ends, self.pos = raw, ends, 0
        self.parsed = {}  # (rows, cols, hash of the body) -> (start, stop, array)

    def error(self, message: str) -> FormatError:
        return FormatError(f"{self.where}: {message}")

    def span(self, n: int) -> tuple[int, int]:
        """Offsets of the next ``n`` lines, joined by "\\n"; the caller checks
        ``left``."""
        start = int(self.ends[self.pos - 1]) + 1 if self.pos else 0
        self.pos += n
        return start, int(self.ends[self.pos - 1])

    def lines(self, n: int) -> bytes:
        """The next ``n`` lines, joined by "\\n"; the caller checks ``left``."""
        start, stop = self.span(n)
        return self.raw[start:stop]

    def header(self, tag: str, count: int, usage: str) -> list[str]:
        """The tokens after ``tag`` on the next line, which must hold
        ``count`` tokens and start with the tokens of ``tag``."""
        if not self.left():
            raise self.error("unexpected end of file")
        tokens = self.lines(1).decode("utf-8").split()
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
        return len(self.ends) - self.pos

    def done(self) -> None:
        """Raise FormatError unless every non-blank line has been read."""
        if self.left():
            left = self.left()
            first = self.lines(1).decode("utf-8").strip()
            raise self.error(f"{left} non-blank line(s) after the last body, the first {first!r}")

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        """The next rows*cols entry lines as a complex matrix, row major."""
        n = rows * cols
        if n > self.left():
            raise self.error(f"header promises {n} entries, but only {self.left()} lines remain")
        start, stop = self.span(n)
        body = self.raw[start:stop]
        key = (rows, cols, hash(body))
        hit = self.parsed.get(key)
        if hit is not None and self.raw[hit[0] : hit[1]] == body:
            hit[2].flags.writeable = False  # shared from now on
            return hit[2]
        try:
            a = np.loadtxt(io.BytesIO(body), comments=None, ndmin=2, encoding="utf-8")
        except ValueError as exc:
            raise self.error(f"entry lines must be '<re> <im>': {exc}") from None
        if a.shape != (n, 2):
            raise self.error(f"entry lines must be '<re> <im>', got {a.shape[1]} numbers per line")
        if not np.isfinite(a).all():
            raise self.error("entries must be finite (no NaN/Inf)")
        # a view keeps the sign of an imaginary -0.0, which re + 1j*im would not
        m = a.view(np.complex128).reshape(rows, cols)
        self.parsed[key] = (start, stop, m)
        return m


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


def _require_writable(path, p: int, entries: int) -> None:
    """Raise TooLargeError if a chain of ``p`` sites holding ``entries``
    complex entries in all is over MAX_DENSE_BYTES: the file holds every site,
    however few distinct cores the chain shares.  Private, as every public
    function here reads or writes ``path``; the CLI calls it before building
    a chain."""
    nbytes = 16 * entries
    require_bytes(nbytes, f"{path}: the {p} sites of the chain hold {nbytes} bytes of entries")


def write_mps(path, m: MPSState) -> None:
    _require_writable(path, m.p, sum(core.size for core in m.sites))
    parts = [f"MPS1 {m.p} {m.boundary}", "DIMS " + " ".join(map(str, m.dims))]
    views = {}  # id of a core -> its two matrices, the same objects wherever the core recurs
    for j, core in enumerate(m.sites, start=1):
        a0, a1 = views.setdefault(id(core), tuple(core))
        parts += [f"SITE {j}", f"A0 {a0.shape[0]} {a0.shape[1]}", a0, f"A1 {a1.shape[0]} {a1.shape[1]}", a1]
    _write(path, parts)


def read_mps(path) -> MPSState:
    r = _Reader(path)
    p, boundary = r.header("MPS1", 3, "MPS1 <p> <open|periodic>")
    p = r.int(p, 1)
    dims = [r.int(d, 1) for d in r.header("DIMS", p + 2, f"DIMS <{p + 1} bond dimensions>")]
    sites, pairs = [], {}
    for j in range(1, p + 1):
        r.header(f"SITE {j}", 2, f"SITE {j}")
        pair = []
        for tag in ("A0", "A1"):
            rows, cols = (r.int(t, 1) for t in r.header(tag, 3, f"{tag} <rows> <cols>"))
            if (rows, cols) != (dims[j - 1], dims[j]):
                raise r.error(f"site {j} shape {rows}x{cols} contradicts DIMS")
            pair.append(r.matrix(rows, cols))
        # a site whose two bodies recur is passed as the same object, so
        # MPSState keeps one core for it
        sites.append(pairs.setdefault((id(pair[0]), id(pair[1])), pair))
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
