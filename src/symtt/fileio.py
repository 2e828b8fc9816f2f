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

A read holds the file's bytes once, the arrays it returns and O(_WINDOW)
bytes of scratch: line ends are found a window at a time, and each body is
parsed in place from the bytes, with no copy of its text.
"""

from __future__ import annotations

import io
from collections import Counter
from pathlib import Path

import numpy as np

from . import mps, symmetry
from .errors import FormatError, SymttError, require_bytes
from .linalg import as_cmatrix, as_cvector

#: entries formatted per step, which bounds the temporaries of a large body
_FORMAT_CHUNK = 2**14
#: bytes searched for line ends per step, which bounds the reader's scratch
_WINDOW = 2**16
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


def _plain(raw: bytes) -> bool:
    """True if ``raw`` is ASCII, its only line break is "\\n", its only other
    whitespace is " ", and no line is empty or starts with " ": then every
    line is non-blank, and the lines between its "\\n" are what
    ``str.splitlines`` gives."""
    if not raw.isascii() or raw.startswith((b"\n", b" ")) or any(c in raw for c in _ODD_SPACE):
        return False
    a = np.frombuffer(raw, dtype=np.uint8)
    for lo in range(0, len(a), _WINDOW):
        # each "\n" of the window against the byte after it (a substring
        # test for b"\n\n" or b"\n " takes about 8x as long)
        w = a[lo : lo + _WINDOW + 1]
        after = w[1:]
        if ((w[:-1] == ord("\n")) & ((after == ord("\n")) | (after == ord(" ")))).any():
            return False
    return True


class _Reader:
    """The non-blank lines of one file, consumed front to back.

    The lines are held as one bytes object, separated by single "\\n"; their
    ends are found one ``_WINDOW`` of bytes at a time as the reader advances,
    and only the current window's are kept.  CRLF line ends are first
    replaced by "\\n" in the bytes.  A file that is still not ``_plain`` (CR
    line ends, blank lines, other whitespace, non-ASCII or undecodable bytes)
    is then rewritten into that form from ``str.splitlines``, skipping blank
    lines; both give the lines ``str.splitlines`` gives.  Each body is parsed
    in place, and each distinct body text once; where it recurs (same length
    and hash, then the same bytes at the offset kept for it), the same array
    is returned again, made read-only.
    """

    def __init__(self, path):
        self.where = str(path)
        raw = Path(path).read_bytes()
        if not _plain(raw):
            # CRLF line ends alone keep the plain path, at one more copy of the bytes
            raw = raw.replace(b"\r\n", b"\n")
        if not _plain(raw):
            # undecodable bytes become U+FFFD, which no header or entry accepts
            text = raw.decode("utf-8", errors="replace")
            raw = "\n".join(filter(str.strip, text.splitlines())).encode("utf-8")
        self.raw, self.at = raw, 0  # at: offset of the next unread line
        # the line ends found in raw[:self.hi] and not read yet, from ends[k] on
        self.ends, self.k, self.hi = (), 0, 0
        self.parsed = {}  # (rows, cols, length, hash of the body) -> (start, array)

    def error(self, message: str) -> FormatError:
        return FormatError(f"{self.where}: {message}")

    def span(self, n: int) -> tuple[int, int] | None:
        """Offsets of the next ``n`` lines, joined by "\\n", or None if fewer
        remain."""
        raw, k = self.raw, self.k + n - 1  # k: the index in ends of the last line's end
        while k >= len(self.ends):
            if self.hi == len(raw):
                return None
            k -= len(self.ends)
            lo, self.hi = self.hi, min(self.hi + _WINDOW, len(raw))
            self.ends = np.flatnonzero(np.frombuffer(raw, np.uint8, self.hi - lo, lo) == ord("\n"))
            self.ends += lo
            if self.hi == len(raw) and not raw.endswith(b"\n"):
                self.ends = np.append(self.ends, len(raw))
        start, stop = self.at, int(self.ends[k])
        self.k, self.at = k + 1, stop + 1
        return start, stop

    def header(self, tag: str, count: int, usage: str) -> list[str]:
        """The tokens after ``tag`` on the next line, which must hold
        ``count`` tokens and start with the tokens of ``tag``."""
        span = self.span(1)
        if span is None:
            raise self.error("unexpected end of file")
        tokens = self.raw[span[0] : span[1]].decode("utf-8").split()
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
        """Lines not read yet, counted for an error message."""
        return self.raw.count(b"\n", self.at) + (self.at < len(self.raw) and not self.raw.endswith(b"\n"))

    def done(self) -> None:
        """Raise FormatError unless every non-blank line has been read."""
        if self.at < len(self.raw):
            left = self.left()
            start, stop = self.span(1)
            first = self.raw[start:stop].decode("utf-8").strip()
            raise self.error(f"{left} non-blank line(s) after the last body, the first {first!r}")

    def matrix(self, rows: int, cols: int, promised: str = "") -> np.ndarray:
        """The next rows*cols entry lines as a complex matrix, row major;
        ``promised`` is the entry count as the header states it, if not
        rows*cols."""
        n = rows * cols
        span = self.span(n)
        if span is None:
            raise self.error(f"header promises {promised or n} entries, but only {self.left()} lines remain")
        start, stop = span
        body = memoryview(self.raw)[start:stop]
        # a first body that ends the file can neither repeat nor recur: no hash
        key = (rows, cols, len(body), hash(body)) if self.parsed or self.at < len(self.raw) else None
        hit = self.parsed.get(key)
        if hit is not None and self.raw.startswith(body, hit[0]):
            hit[1].flags.writeable = False  # shared from now on
            return hit[1]
        stream = io.BytesIO(self.raw)  # shares the bytes
        stream.seek(start)
        try:
            a = np.loadtxt(stream, comments=None, ndmin=2, encoding="utf-8", max_rows=n)
        except ValueError as exc:
            raise self.error(f"entry lines must be '<re> <im>': {exc}") from None
        if a.shape != (n, 2):
            raise self.error(f"entry lines must be '<re> <im>', got {a.shape[1]} numbers per line")
        if not np.isfinite(a).all():
            raise self.error("entries must be finite (no NaN/Inf)")
        # a view keeps the sign of an imaginary -0.0, which re + 1j*im would not
        m = a.view(np.complex128).reshape(rows, cols)
        self.parsed[key] = (start, m)
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
    # no file holds 2^64 lines: a larger p is refused as that, without 2**p
    v = r.matrix(2 ** min(p, 64), 1, promised=f"2^{p}").reshape(-1)
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


def write_mps(path, m: mps.MPSState) -> None:
    _require_writable(path, m.p, sum(core.size for core in m.sites))
    parts = [f"MPS1 {m.p} {m.boundary}", "DIMS " + " ".join(map(str, m.dims))]
    views = {}  # id of a core -> its two matrices, the same objects wherever the core recurs
    for j, core in enumerate(m.sites, start=1):
        a0, a1 = views.setdefault(id(core), tuple(core))
        parts += [f"SITE {j}", f"A0 {a0.shape[0]} {a0.shape[1]}", a0, f"A1 {a1.shape[0]} {a1.shape[1]}", a1]
    _write(path, parts)


def read_mps(path) -> mps.MPSState:
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
        return mps.MPSState(sites, boundary=boundary)
    except SymttError as exc:
        raise r.error(str(exc)) from None


def write_witness(path, w: symmetry.SymmetryWitness) -> None:
    parts = [f"WITS {w.kind} {w.sign:+d} {w.block_len} {len(w.matrices or ())}"]
    for j, u in enumerate(w.matrices or (), start=1):
        m = as_cmatrix(u)
        parts += [f"WIT {w.kind} {j}", f"{m.shape[0]} {m.shape[1]}", m]
    _write(path, parts)


def read_witness(path) -> symmetry.SymmetryWitness:
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
        return symmetry.SymmetryWitness(kind=kind, sign=sign, block_len=block_len, matrices=tuple(mats) or None)
    except SymttError as exc:
        raise r.error(str(exc)) from None
