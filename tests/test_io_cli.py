import errno
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import symtt
from symtt import MPSState, SymmetryWitness, from_vector, to_vector
from symtt import fileio
from symtt.cli import main
from symtt.errors import FormatError, TooLargeError
from symtt.fileio import (
    read_mat,
    read_mps,
    read_vec,
    read_witness,
    write_mat,
    write_mps,
    write_vec,
    write_witness,
)
from symtt.linalg import dagger, frob
from symtt.symmetry import SYMMETRY_KINDS

from conftest import line_list_reader, random_complex, random_mps, scaled


def test_mat_roundtrip(tmp_path, rng):
    a = random_complex(rng, 5, 3)
    path = tmp_path / "a.mat"
    write_mat(path, a)
    back = read_mat(path)
    assert np.array_equal(back, a)


def test_vec_roundtrip(tmp_path, rng):
    x = random_complex(rng, 16)
    path = tmp_path / "x.vec"
    write_vec(path, x)
    assert np.array_equal(read_vec(path), x)


def test_mps_roundtrip(tmp_path, rng):
    m = random_mps(rng, 4, 3, boundary="periodic")
    path = tmp_path / "m.mps"
    write_mps(path, m)
    back = read_mps(path)
    assert back.boundary == "periodic"
    assert back.dims == m.dims
    for (a0, a1), (b0, b1) in zip(m.sites, back.sites):
        assert np.array_equal(a0, b0)
        assert np.array_equal(a1, b1)


def test_witness_roundtrip(tmp_path, rng):
    wit = SymmetryWitness(kind="bitflip", sign=-1, matrices=tuple(random_complex(rng, 2, 2) for _ in range(3)))
    path = tmp_path / "w.wit"
    write_witness(path, wit)
    back = read_witness(path)
    assert back.kind == "bitflip" and back.sign == -1
    for a, b in zip(wit.matrices, back.matrices):
        assert np.array_equal(a, b)


def test_golden_bytes(tmp_path):
    # -0.0, subnormals, 1e300, integer-valued entries and a negative witness sign
    write_mat(tmp_path / "g.mat", np.array([[complex(-0.0, 5e-324), complex(1e300, -0.0)], [1, complex(0.1, -2.5)]]))
    write_vec(tmp_path / "g.vec", np.array([complex(-0.0, 1e-310), 3]))
    sites = [
        (np.array([[1.0], [-0.0]]), np.array([[0.5j], [2]])),
        (np.array([[1e300, -1]]), np.array([[5e-324, 7]])),
    ]
    write_mps(tmp_path / "g.mps", MPSState(sites, boundary="periodic"))
    mats = (np.array([[1.0, -0.0]]), np.array([[0.25], [complex(-0.0, -1e-320)]]))
    write_witness(tmp_path / "g.wit", SymmetryWitness(kind="bitflip", sign=-1, matrices=mats))
    assert (tmp_path / "g.mat").read_text() == (
        "MAT1 2 2\n-0 4.9406564584124654e-324\n1.0000000000000001e+300 -0\n1 0\n0.10000000000000001 -2.5\n"
    )
    assert (tmp_path / "g.vec").read_text() == "VEC1 1\n-0 9.9999999999999694e-311\n3 0\n"
    assert (tmp_path / "g.mps").read_text() == (
        "MPS1 2 periodic\nDIMS 2 1 2\n"
        "SITE 1\nA0 2 1\n1 0\n-0 0\nA1 2 1\n0 0.5\n2 0\n"
        "SITE 2\nA0 1 2\n1.0000000000000001e+300 0\n-1 0\nA1 1 2\n4.9406564584124654e-324 0\n7 0\n"
    )
    assert (tmp_path / "g.wit").read_text() == (
        "WITS bitflip -1 1 2\nWIT bitflip 1\n1 2\n1 0\n-0 0\n"
        "WIT bitflip 2\n2 1\n0.25 0\n-0 -9.9998886718268301e-321\n"
    )


def test_reader_skips_blank_lines_and_keeps_signed_zeros(tmp_path):
    path = tmp_path / "a.mat"
    path.write_bytes(b"MAT1 1 2\r\n\r\n  1 -0\r\n\r\n\t\n-0 2\r\n")
    a = read_mat(path)
    assert a.tolist() == [[1, 2j]]
    assert np.signbit(a.imag).tolist() == [[True, False]] and np.signbit(a.real).tolist() == [[False, True]]
    write_mat(path, a)
    assert np.signbit(read_mat(path).imag[0, 0])


_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e300, -1.0, 2.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _cmatrix(rows, cols):
    return arrays(np.float64, (rows, cols, 2), elements=_ENTRIES).map(lambda a: a.view(np.complex128)[..., 0])


@st.composite
def _any_mat(draw):
    return draw(_cmatrix(draw(st.integers(1, 4)), draw(st.integers(1, 4))))


@st.composite
def _any_vec(draw):
    return draw(_cmatrix(2 ** draw(st.integers(0, 4)), 1))[:, 0]


@st.composite
def _any_mps(draw):
    p = draw(st.integers(1, 3))
    boundary = draw(st.sampled_from(["open", "periodic"]))
    end = 1 if boundary == "open" else draw(st.integers(1, 3))
    dims = [end, *draw(st.lists(st.integers(1, 3), min_size=p - 1, max_size=p - 1)), end]
    pairs = [(draw(_cmatrix(dims[j], dims[j + 1])), draw(_cmatrix(dims[j], dims[j + 1]))) for j in range(p)]
    return MPSState(pairs, boundary=boundary)


@st.composite
def _any_witness(draw):
    mats = draw(st.lists(_any_mat(), max_size=3))
    return SymmetryWitness(
        kind=draw(st.sampled_from(SYMMETRY_KINDS)),
        sign=draw(st.sampled_from([1, -1])),
        block_len=draw(st.integers(1, 3)),
        matrices=tuple(mats) or None,
    )


def _exact(obj):
    """Everything a file stores, with floats as raw bytes so -0.0 != 0.0."""
    if isinstance(obj, MPSState):
        return obj.boundary, [(a.shape, a.tobytes()) for pair in obj.sites for a in pair]
    if isinstance(obj, SymmetryWitness):
        return obj.kind, obj.sign, obj.block_len, [(m.shape, m.tobytes()) for m in obj.matrices or ()]
    return obj.shape, obj.tobytes()


_CODECS = {
    "mat": (write_mat, read_mat, _any_mat()),
    "vec": (write_vec, read_vec, _any_vec()),
    "mps": (write_mps, read_mps, _any_mps()),
    "wit": (write_witness, read_witness, _any_witness()),
}
_FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("fmt", sorted(_CODECS))
@_FUZZ
@given(data=st.data())
def test_roundtrip_is_bit_exact(tmp_path, fmt, data):
    write, read, values = _CODECS[fmt]
    value = data.draw(values)
    path = tmp_path / f"x.{fmt}"
    write(path, value)
    assert _exact(read(path)) == _exact(value)


@pytest.mark.parametrize("fmt", sorted(_CODECS))
@_FUZZ
@given(data=st.data())
def test_damaged_file_reads_or_raises_format_error(tmp_path, fmt, data):
    write, read, values = _CODECS[fmt]
    path = tmp_path / f"x.{fmt}"
    write(path, data.draw(values))
    raw = path.read_bytes()
    tokens = list(re.finditer(rb"\S+", raw))
    if data.draw(st.booleans()):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    else:
        tok = data.draw(st.sampled_from(tokens))
        known = sorted({t.group() for t in tokens} | {b"nan", b"-inf", b"1e999", b"-1", b"0", b"#", b"9" * 30, b"open"})
        new = data.draw(st.one_of(st.sampled_from(known), st.binary(max_size=6)))
        raw = raw[: tok.start()] + new + raw[tok.end() :]
    path.write_bytes(raw)
    try:
        read(path)
    except FormatError:
        pass


@st.composite
def _repeated_mps(draw):
    """A site-independent periodic chain, or one whose site j differs from
    the others in one entry."""
    p, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    pair = np.stack([draw(_cmatrix(d, d)), draw(_cmatrix(d, d))])
    sites = [pair] * p
    if draw(st.booleans()):
        j, b, r, c = draw(st.integers(0, p - 1)), draw(st.integers(0, 1)), draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        odd = pair.copy()
        odd[b, r, c] = draw(_cmatrix(1, 1))[0, 0]
        sites[j] = odd
    return MPSState(sites, boundary="periodic")


@st.composite
def _repeated_witness(draw):
    m = draw(_any_mat())
    mats = [m] * draw(st.integers(1, 4))
    if draw(st.booleans()):
        odd = m.copy()
        odd.reshape(-1)[draw(st.integers(0, m.size - 1))] = draw(_cmatrix(1, 1))[0, 0]
        mats[draw(st.integers(0, len(mats) - 1))] = odd
    return SymmetryWitness(kind="bitflip", matrices=tuple(mats))


_DIFF_CODECS = {
    **_CODECS,
    "mps_repeated": (write_mps, read_mps, _repeated_mps()),
    "wit_repeated": (write_witness, read_witness, _repeated_witness()),
}
_BLANK_LINES = [b"", b" ", b"\t", b" \t ", b"\x0c", b"\x1f", b"\r", b"\xc2\xa0", b"\xe2\x80\x83"]


def _damage(data, raw: bytes) -> bytes:
    """``raw`` after zero to three drawn edits: a cut, a replaced token, an
    inserted blank or whitespace-only line, CRLF line ends, or a line dropped
    or repeated."""
    for kind in data.draw(st.lists(st.sampled_from(["cut", "token", "blank", "crlf", "drop", "repeat"]), max_size=3)):
        lines = raw.split(b"\n")
        if kind == "cut" and raw:
            raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "token" and re.search(rb"\S", raw):
            tok = data.draw(st.sampled_from(list(re.finditer(rb"\S+", raw))))
            new = data.draw(st.one_of(st.sampled_from([b"-0", b"0", b"nan", b"1e999", b"#", b"\n", b"1 0"]), st.binary(max_size=6)))
            raw = raw[: tok.start()] + new + raw[tok.end() :]
        elif kind == "blank":
            at = data.draw(st.integers(0, len(lines)))
            raw = b"\n".join(lines[:at] + [data.draw(st.sampled_from(_BLANK_LINES))] + lines[at:])
        elif kind == "crlf":
            raw = raw.replace(b"\n", b"\r\n")
        elif kind in ("drop", "repeat"):
            at = data.draw(st.integers(0, len(lines) - 1))
            raw = b"\n".join(lines[:at] + lines[at + (kind == "drop") :])
    return raw


def _outcome(read, path):
    """Everything ``read`` gives for the file, or FormatError."""
    try:
        return _exact(read(path))
    except FormatError:
        return FormatError


@pytest.mark.parametrize("fmt", sorted(_DIFF_CODECS))
@_FUZZ
@given(data=st.data())
def test_reader_matches_line_list_reader(tmp_path, fmt, data):
    """On round trips and damaged files, the offset reader returns the
    line-list reader's values bit for bit, or both raise FormatError."""
    write, read, values = _DIFF_CODECS[fmt]
    path = tmp_path / f"x.{fmt}"
    value = data.draw(values)
    write(path, value)
    raw = path.read_bytes()
    damaged = _damage(data, raw)
    path.write_bytes(damaged)
    got = _outcome(read, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_Reader", line_list_reader)
        want = _outcome(read, path)
    assert got == want
    if damaged == raw:
        assert got == _exact(value)


def test_repeated_sites_write_the_golden_per_site_bytes(tmp_path):
    a0 = np.array([[1.0, -0.0], [5e-324, 1e300]])
    a1 = np.array([[0.5j, 2], [-2.5, complex(-0.0, 0.1)]])
    write_mps(tmp_path / "r.mps", MPSState([(a0, a1)] * 3, boundary="periodic"))
    site = (
        "A0 2 2\n1 0\n-0 0\n4.9406564584124654e-324 0\n1.0000000000000001e+300 0\n"
        "A1 2 2\n0 0.5\n2 0\n-2.5 0\n-0 0.10000000000000001\n"
    )
    assert (tmp_path / "r.mps").read_text() == "MPS1 3 periodic\nDIMS 2 2 2 2\n" + "".join(
        f"SITE {j}\n{site}" for j in (1, 2, 3)
    )


@pytest.mark.parametrize("base, other", [(0.0, -0.0), (1.0, np.nextafter(1.0, 2.0)), (0.0, 5e-324)],
                         ids=["signed_zero", "one_ulp", "one_ulp_subnormal"])
def test_sites_that_differ_in_one_bit_stay_distinct(tmp_path, base, other):
    a = np.full((2, 2, 2), base)
    b = a.copy()
    b[1, 0, 1] = other
    m = MPSState([a, b, a], boundary="periodic")
    path = tmp_path / "m.mps"
    write_mps(path, m)
    lines = path.read_text().splitlines()
    assert lines.count(f"{other:.17g} 0") == 1
    back = read_mps(path)
    assert _exact(back) == _exact(m)
    assert back.sites[0] is back.sites[2] and back.sites[1] is not back.sites[0]


def test_writer_formats_a_body_once_per_array_object(tmp_path, rng, monkeypatch):
    formatted = []
    entry_lines = fileio._entry_lines
    monkeypatch.setattr(fileio, "_entry_lines", lambda body: formatted.append(body) or entry_lines(body))
    site = random_complex(rng, 2, 3, 3)
    write_mps(tmp_path / "m.mps", MPSState([site] * 10, boundary="periodic"))
    assert len(formatted) == 2
    formatted.clear()
    m = random_complex(rng, 4, 4)
    write_witness(tmp_path / "w.wit", SymmetryWitness(kind="bitflip", matrices=(m,) * 3))
    assert len(formatted) == 1
    # equal bodies in separate arrays are each formatted, to the same text
    formatted.clear()
    write_witness(tmp_path / "c.wit", SymmetryWitness(kind="bitflip", matrices=(m, m.copy(), m.copy())))
    assert len(formatted) == 3
    assert (tmp_path / "c.wit").read_bytes() == (tmp_path / "w.wit").read_bytes()


def test_identical_bodies_read_back_into_one_read_only_core(tmp_path, rng):
    pair = (random_complex(rng, 3, 3), random_complex(rng, 3, 3))
    m = MPSState([pair] * 5, boundary="periodic")
    assert all(site is m.sites[0] for site in m.sites) and not m.sites[0].flags.writeable
    path = tmp_path / "m.mps"
    write_mps(path, m)
    back = read_mps(path)
    assert all(site is back.sites[0] for site in back.sites)
    assert not back.sites[0].flags.writeable
    with pytest.raises(ValueError):
        back.sites[3][0, 0, 0] = 1.0
    assert _exact(back) == _exact(m)
    # witness matrices with one body text are one read-only array
    write_witness(path, SymmetryWitness(kind="bitflip", matrices=(pair[0],) * 3))
    mats = read_witness(path).matrices
    assert mats[0] is mats[2] and not mats[0].flags.writeable


def test_reading_a_site_independent_chain_holds_one_site(tmp_path, rng):
    # the bond-320 chain of 10 equal sites with 1.3 % nonzeros: 2 * 10 bodies
    # of 102400 lines, 9 MB of text; a list of its 2M lines would take
    # ~130 MB, its one site takes 3.3 MB
    d = 320
    site = np.zeros((2, d, d), dtype=np.complex128)
    hit = rng.random(site.shape) < 0.013
    site[hit] = random_complex(rng, int(hit.sum()))
    path = tmp_path / "s10.mps"
    write_mps(path, MPSState([site] * 10, boundary="periodic"))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        back = read_mps(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.sites[9], site) and back.sites[9] is back.sites[0]
    # the file's bytes, the one site (3.3 MB) and one window's line ends
    assert peak < 2 * size, f"read_mps peak {peak} B for a {size} B file"


def test_reading_a_vector_holds_its_bytes_and_entries(tmp_path, rng):
    p = 16
    x = random_complex(rng, 2**p)
    path = tmp_path / "x.vec"
    write_vec(path, x)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        back = read_vec(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, x)
    # the file's bytes, the 16-byte entries and under 1 MiB of scratch: no
    # copy of the body's text and no offset per line
    assert peak < size + 16 * 2**p + 2**20, f"read_vec peak {peak} B for a {size} B file"


def test_reading_a_crlf_vector_holds_two_copies_of_its_bytes(tmp_path, rng):
    # CRLF line ends are replaced in the bytes, and the file then takes the
    # plain path: the same array, at most the file's bytes twice (plus the
    # 1 MiB of entries), where decoding its text into lines took about 5x
    p = 16
    x = random_complex(rng, 2**p)
    plain, crlf = tmp_path / "x.vec", tmp_path / "crlf.vec"
    write_vec(plain, x)
    crlf.write_bytes(plain.read_bytes().replace(b"\n", b"\r\n"))
    size = crlf.stat().st_size
    tracemalloc.start()
    try:
        back = read_vec(crlf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, x) and np.array_equal(back, read_vec(plain))
    assert peak <= 2.5 * size, f"read_vec peak {peak} B for a {size} B CRLF file"


def test_codec_keeps_no_copy_of_a_chain_of_distinct_sites(tmp_path, rng):
    # 10 distinct sites of bond 160: 8.2 MB of entries, 20.6 MB of text
    sites = [random_complex(rng, 2, 160, 160) for _ in range(10)]
    m = MPSState(sites, boundary="periodic")
    chain = sum(site.nbytes for site in m.sites)
    path = tmp_path / "distinct.mps"
    tracemalloc.start()
    try:
        write_mps(path, m)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_mps(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _exact(back) == _exact(m)
    # the writer holds references and one chunk of text, not the bodies' bytes
    assert write_peak < chain / 2, f"write_mps peak {write_peak} B for {chain} B of entries"
    # the reader holds the file's bytes and the parsed sites, not the text of
    # every body it has parsed
    size = path.stat().st_size
    assert read_peak < 2.5 * size, f"read_mps peak {read_peak} B for a {size} B file"


def test_write_mps_guards_every_site_of_a_shared_core(tmp_path, monkeypatch):
    # one 2 x 4 x 4 core shared by p sites: the file holds 16 * 2 * 16 * p bytes
    m = MPSState([np.ones((2, 4, 4))] * 3, boundary="periodic")
    monkeypatch.setattr(symtt.errors, "MAX_DENSE_BYTES", 16 * 2 * 16 * 3 - 1)
    with pytest.raises(TooLargeError, match=r"the 3 sites of the chain hold 1536 bytes.*MAX_DENSE_BYTES"):
        write_mps(tmp_path / "big.mps", m)
    assert not (tmp_path / "big.mps").exists()
    monkeypatch.setattr(symtt.errors, "MAX_DENSE_BYTES", 16 * 2 * 16 * 3)
    write_mps(tmp_path / "big.mps", m)
    assert _exact(read_mps(tmp_path / "big.mps")) == _exact(m)


def test_format_errors(tmp_path):
    with pytest.raises(FormatError, match="vector length 6 is not a power of two"):
        write_vec(tmp_path / "six.vec", np.ones(6))
    assert not (tmp_path / "six.vec").exists()
    bad = tmp_path / "bad.mat"
    bad.write_text("MAT2 2 2\n")
    with pytest.raises(FormatError):
        read_mat(bad)
    bad.write_text("MAT1 1 1\n1.0\n")
    with pytest.raises(FormatError):
        read_mat(bad)


@pytest.mark.parametrize(
    "text, match",
    [
        ("MAT1 x 2\n0 0\n", "expected an integer"),
        ("MAT1 0 2\n", "must be >= 1"),
        ("MAT1 3 3\n1 0\n", "9 entries, but only 1 lines"),
        ("MAT1 1 2\nnan 0\n1 0\n", "finite"),
        ("VEC1 40\n0 0\n", "2\\^40 entries"),
        ("VEC1 100000\n", "2\\^100000 entries"),
        ("VEC1 -1\n", "must be >= 0"),
        ("VEC1 1\n1 0\ninf 0\n", "finite"),
        ("MPS1 two open\n", "expected an integer"),
        ("MPS1 1 open\nDIMS 1 x\n", "expected an integer"),
        ("MPS1 1 open\nDIMS 1 1000000\nSITE 1\nA0 1 1000000\n0 0\n", "1000000 entries"),
        ("WITS bitflip +1 1 z\n", "expected an integer"),
        ("WITS bitflip +1 1 1\nWIT bitflip 1\n4000 4000\n", "16000000 entries"),
        ("MAT1 1 2\n1 0\n1 0 0\n", "'<re> <im>'"),
        ("MAT1 1 2\n1 0 0\n1 0 0\n", "'<re> <im>'"),
        ("MAT1 1 1\n1 x\n", "'<re> <im>'"),
        ("MAT1 1 1\n1 0 # c\n", "'<re> <im>'"),
        ("MAT1 1 1\n1 0\n5 5\n", "bad.txt: .* after the last body, the first '5 5'"),
        ("VEC1 0\n1 0\n\n2 0\n3 0\n", "bad.txt: 2 non-blank .* the first '2 0'"),
        ("MPS1 1 open\nDIMS 1 1\nSITE 1\nA0 1 1\n1 0\nA1 1 1\n0 0\nSITE 2\n", "bad.txt: .* the first 'SITE 2'"),
        ("WITS bitflip +1 1 1\nWIT bitflip 1\n1 1\n1 0\n1 0\n", "bad.txt: .* after the last body, the first '1 0'"),
    ],
    ids=lambda v: v.split("\n")[0] if "\n" in v else None,
)
def test_format_header_guards(tmp_path, text, match):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    reader = {"MAT1": read_mat, "VEC1": read_vec, "MPS1": read_mps, "WITS": read_witness}[text[:4]]
    with pytest.raises(FormatError, match=match):
        reader(bad)


def run_cli(*argv):
    return main(list(argv))


def test_cli_ham_build_certify(tmp_path, capsys):
    out = tmp_path / "H.mat"
    assert run_cli("ham", "build", "--model", "ising_zz", "--p", "4", "--lambda", "1.0", "--bc", "open", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("ham", "certify", str(out)) == 0
    text = capsys.readouterr().out
    assert "persymmetric=true" in text
    assert "symmetric=true" in text


def test_cli_mps_pipeline(tmp_path, capsys, rng):
    x = random_complex(rng, 16)
    x /= np.linalg.norm(x)
    vec = tmp_path / "x.vec"
    write_vec(vec, x)
    mpsf = tmp_path / "x.mps"
    assert run_cli("mps", "from-vector", str(vec), "--tol", "0", "--out", str(mpsf)) == 0
    capsys.readouterr()
    assert run_cli("mps", "check", str(mpsf), "--gauge", "left") == 0
    lines = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    assert float(lines["max_residual"]) < 1e-12
    back = tmp_path / "back.vec"
    assert run_cli("mps", "to-vector", str(mpsf), "--out", str(back)) == 0
    assert np.linalg.norm(read_vec(back) - x) < 1e-12


def test_cli_orbits(capsys):
    assert run_cli("sym", "orbits", "--bits", "101001000") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    shift_at = lines.index("shift_orbit")
    flip_at = lines.index("flip_orbit")
    rev_at = lines.index("reverse_orbit")
    shift = lines[shift_at + 1 : flip_at]
    assert shift == sorted(shift) and len(shift) == 9
    assert "010010001" in shift
    assert lines[flip_at + 1 : rev_at] == ["010110111", "101001000"]
    assert lines[rev_at + 1 :] == ["000100101", "101001000"]


def test_cli_orbits_json(capsys):
    assert run_cli("--json", "sym", "orbits", "--bits", "1100") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shift_orbit"] == ["0011", "0110", "1001", "1100"]


def test_cli_json_mode(tmp_path, capsys):
    out = tmp_path / "H.mat"
    run_cli("ham", "build", "--model", "hzz", "--p", "2", "--out", str(out))
    capsys.readouterr()
    assert run_cli("--json", "struct", "classify", str(out)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagonal"] == "true"
    assert payload["persymmetric"] == "true"
    assert "residuals" not in payload


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_domain_error_exit_code(tmp_path, capsys):
    vec = tmp_path / "zero.vec"
    write_vec(vec, np.zeros(8))
    out = tmp_path / "z.mps"
    assert run_cli("mps", "from-vector", str(vec), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "nonzero" in err
    # a model whose entries overflow: two bonds on one pair of sites sum to 2e308
    model = ["--model", "ising_zz", "--p", "2", "--bc", "periodic", "--jz", "1e308"]
    for verb in (["certify"], ["ground"], ["spectrum"], ["build", "--out", str(tmp_path / "h.mat")]):
        assert run_cli("ham", *verb, *model) == 1, verb
        assert "error: a matrix entry of the model overflows float64" in capsys.readouterr().err, verb


def test_cli_usage_error_exit_code(capsys):
    # an unknown model, and each verb without an argument its kind needs
    cases = [
        (["ham", "build", "--model", "not_a_model", "--p", "2", "--out", "x"], "invalid choice"),
        (["ham", "certify"], "ham certify needs a MAT1 file or --model"),
        (["sym", "construct", "--kind", "fullbit", "--mat", "m.mat", "--out", "x"], "sym construct --kind fullbit needs --mat and --p"),
        (["sym", "construct", "--kind", "reverse", "--out", "x"], "sym construct --kind reverse needs --vec"),
        (["sym", "normal-form", "--kind", "bitflip", "--mps", "m.mps", "--out", "x"], "sym normal-form --kind bitflip needs --wit"),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


def test_cli_start_up_never_loads_scipy(tmp_path, rng):
    # linalg.schur calls the zgees in numpy's OpenBLAS, so neither start-up
    # nor the ti normal form's Schur branch (a non-Hermitian site) loads scipy
    a0 = random_complex(rng, 3, 3)
    assert frob(a0 - dagger(a0)) > 1.0
    write_mps(tmp_path / "ti.mps", MPSState([(a0, random_complex(rng, 3, 3))] * 4, boundary="periodic"))
    script = (
        "import sys\n"
        "import symtt.cli\n"
        "code = symtt.cli.main(['ham', 'ground', '--model', 'heis_xxz', '--p', '4', '--out', 'g.mat'])\n"
        "code += symtt.cli.main(['sym', 'normal-form', '--kind', 'ti', '--mps', 'ti.mps', '--out', 'nf.mps'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(symtt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 []"
    assert np.linalg.norm(np.tril(read_mps(tmp_path / "nf.mps").sites[0][0], -1)) < 1e-12


@pytest.mark.parametrize("argv, idle", [
    (["ham", "ground", "--model", "heis_xxz", "--p", "4", "--out", "g.mat"], ["structured", "symmetry", "mps"]),
    (["mps", "from-vector", "x.vec", "--out", "x.mps"], ["symmetry", "structured", "hamiltonian"]),
    (["sym", "orbits", "--bits", "0110"], None),
    (["ham", "spectrum", "--model", "hx", "--p", "3"], ["structured", "symmetry", "mps", "fileio"]),
    (["sym", "dof", "--p", "8", "--kinds", "bitshift"], None),
], ids=["ham_ground", "mps_from_vector", "sym_orbits", "ham_spectrum", "sym_dof"])
def test_cli_executes_only_the_modules_its_verb_uses(tmp_path, argv, idle):
    # a module is executed once it is in sys.modules and no longer lazy; all
    # six stay registered after the import, as perfbench's tracer reads them.
    # idle None: a numpy-free verb, which executes none of the six and never
    # loads numpy
    write_vec(tmp_path / "x.vec", np.arange(16.0))
    script = (
        "import json, sys, types\n"
        "import symtt.cli\n"
        "names = ('linalg', 'structured', 'hamiltonian', 'mps', 'symmetry', 'fileio')\n"
        "def executed():\n"
        "    return sorted(n for n in names if type(sys.modules.get('symtt.' + n)) is types.ModuleType)\n"
        "registered = all('symtt.' + n in sys.modules for n in names)\n"
        "before = executed()\n"
        "code = symtt.cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([registered, before, code, executed(), 'numpy' in sys.modules]))\n"
    )
    run = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], cwd=tmp_path, env=_src_env(),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    registered, before, code, executed, numpy_loaded = json.loads(run.stdout.splitlines()[-1])
    assert registered and before == [] and code == 0
    if idle is None:
        assert executed == [] and not numpy_loaded
    else:
        assert executed and not set(idle) & set(executed)


#: symtt.__all__ as it stood when the package still imported every module
PUBLIC_NAMES = (
    "BlockPair ClassifiedEigenbasis DofReport EPS_LIN EPS_RANK EPS_STRUCT EPS_SYM EighResult GaugeReport "
    "HamiltonianSpec LocalTermSpec MPSState OrbitReport ReverseNormalForm SpectrumReport StructureFlags "
    "SvdResult SymmetryWitness SymttError VidalForm anisotropic_xy_transform assemble bitflip_construct "
    "bitflip_normal_form block_diagonalize certify_structure check_gauge check_vidal circulant_eigenvalues "
    "classified_eigenbasis classify closed_form_hx_spectrum corner_blocks detect_vector_symmetries dof_count "
    "eigh errors eval_component exchange_matrix firstsite_construct fourier_conjugate fourier_matrix "
    "from_vector fullbit_normal_form fullbit_state ground_state hamiltonian kron lastsite_construct linalg "
    "model mps omega_to_circulant orbits pauli persym_split reverse_construct reverse_normal_form schur "
    "spin1 strong_normalize structured svd symmetrize_flip symmetrize_reverse symmetrize_shift symmetry "
    "ti_construct ti_normal_form to_vector truncate two_site_sweep verify_relation vidal_from_vector vidal_to_a"
).split()


def _src_env(**extra):
    src = str(Path(symtt.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def test_package_names_load_on_first_use(tmp_path):
    script = (
        "import json, sys\n"
        "import symtt, symtt.errors\n"
        "before = 'numpy' in sys.modules\n"
        "resolved = all(getattr(symtt, name) is not None for name in symtt.__all__)\n"
        "star = {}\n"
        "exec('from symtt import *', star)\n"
        "try:\n"
        "    symtt.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps([before, symtt.__all__, resolved, sorted(set(star) - {'__builtins__'}), dir(symtt), unknown]))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=_src_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    numpy_loaded, names, resolved, star, listed, unknown = json.loads(run.stdout)
    assert not numpy_loaded
    assert names == sorted(PUBLIC_NAMES)
    assert resolved
    assert star == names
    assert set(names) <= set(listed)
    assert unknown == "module 'symtt' has no attribute 'no_such_name'"


def test_cli_pins_one_blas_thread_only_before_numpy(tmp_path):
    script = (
        "import os, sys\n"
        "if sys.argv[1] == 'numpy-first':\n"
        "    import numpy\n"
        "import symtt.cli\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    for order, expected in (("cli-first", "1"), ("numpy-first", "3")):
        run = subprocess.run([sys.executable, "-c", script, order], cwd=tmp_path, env=_src_env(OPENBLAS_NUM_THREADS="3"),
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == expected, order


def test_cli_output_is_independent_of_blas_threads(tmp_path):
    # each command differs between one and two OpenBLAS threads unless the
    # CLI pins the thread count before numpy loads
    rng = np.random.default_rng(14)
    x = random_complex(rng, 2**14)
    write_vec(tmp_path / "x.vec", x)
    write_vec(tmp_path / "f.vec", x + x[::-1])
    commands = {
        "from-vector": (["mps", "from-vector", "../x.vec", "--out", "x.mps"], ["x.mps"]),
        "bitflip": (["sym", "construct", "--kind", "bitflip", "--vec", "../f.vec", "--out", "f.mps", "--wit", "f.wit"],
                    ["f.mps", "f.wit"]),
        "ground": (["ham", "ground", "--model", "heis_xyz", "--p", "10", "--bc", "periodic", "--out", "g.mat"], ["g.mat"]),
    }
    results = {}
    for threads in ("1", "2"):
        work = tmp_path / f"threads{threads}"
        work.mkdir()
        for name, (argv, files) in commands.items():
            run = subprocess.run([sys.executable, "-m", "symtt.cli", *argv], cwd=work,
                                 env=_src_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            results[threads, name] = [run.stdout, *((work / f).read_bytes() for f in files)]
    for name in commands:
        assert results["1", name] == results["2", name], name


def _files(directory: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in directory.iterdir()}


def test_cli_process_matches_in_process_main(tmp_path, capsys, monkeypatch, rng):
    # python -m symtt.cli ends the process at its last write (run); it leaves
    # the stdout, stderr, files and exit code of main called in-process, one
    # command per verb group, a domain error and a usage error included
    x = random_complex(rng, 16)
    write_vec(tmp_path / "x.vec", x)
    write_vec(tmp_path / "f.vec", x + x[::-1])
    write_vec(tmp_path / "zero.vec", np.zeros(8))
    h = random_complex(rng, 4, 4)
    write_mat(tmp_path / "h.mat", h + dagger(h))
    commands = [
        ["ham", "ground", "--model", "heis_xxz", "--p", "4", "--out", "g.mat"],
        ["mps", "from-vector", "../x.vec", "--out", "x.mps"],
        ["sym", "construct", "--kind", "bitflip", "--vec", "../f.vec", "--out", "f.mps", "--wit", "f.wit"],
        ["sym", "dof", "--p", "12", "--kinds", "bitshift,reverse"],
        ["--json", "sym", "orbits", "--bits", "0110"],
        ["struct", "classify", "../h.mat"],
        ["mps", "from-vector", "../zero.vec", "--out", "z.mps"],
        ["ham", "certify"],
    ]
    codes = []
    for k, argv in enumerate(commands):
        spawned, in_process = tmp_path / f"spawned{k}", tmp_path / f"in_process{k}"
        spawned.mkdir()
        in_process.mkdir()
        run = subprocess.run([sys.executable, "-m", "symtt.cli", *argv], cwd=spawned, env=_src_env(),
                             capture_output=True, text=True)
        monkeypatch.chdir(in_process)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        out, err = capsys.readouterr()
        assert (run.returncode, run.stdout, run.stderr) == (code, out, err), argv
        assert _files(spawned) == _files(in_process), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 0, 0, 1, 2]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_cli_failed_stdout_write_is_an_error(tmp_path, unbuffered):
    # a full stdout and a pipe whose reader is gone: "error: ..." and exit 1,
    # whether the write fails in main (unbuffered) or in run's flush; when
    # stderr fails too, or alone, the exit is 1 and silent
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "symtt.cli", "sym", "dof", "--p", "12", "--kinds", "bitshift"]

    def status(stdout, stderr, *extra) -> int:
        return subprocess.run(argv + list(extra), cwd=tmp_path, env=env, stdout=stdout, stderr=stderr).returncode

    with open("/dev/full", "wb") as full, open(tmp_path / "err.txt", "w+b") as err:
        assert status(full, err) == 1
        r, w = os.pipe()
        os.close(r)
        try:
            assert status(w, err) == 1
        finally:
            os.close(w)
        err.seek(0)
        messages = err.read().decode().splitlines()
        assert status(full, full) == 1
        assert status(subprocess.DEVNULL, full, "--kinds", "nope") == 1
    assert [m.split("]")[0] for m in messages] == [f"error: [Errno {errno.ENOSPC}", f"error: [Errno {errno.EPIPE}"]


def test_cli_deterministic_output(tmp_path):
    vec = tmp_path / "x.vec"
    rng = np.random.default_rng(7)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    write_vec(vec, x)
    out = tmp_path / "m.mps"
    outs = []
    stdouts = []
    for _ in range(2):
        code = subprocess.run(
            [sys.executable, "-m", "symtt.cli", "--seed", "0", "mps", "from-vector", str(vec), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert code.returncode == 0
        outs.append(out.read_bytes())
        stdouts.append(code.stdout)
    assert outs[0] == outs[1]
    assert stdouts[0] == stdouts[1]


def test_cli_sym_construct_verify(tmp_path, capsys, rng):
    x = random_complex(rng, 16)
    x = 0.5 * (x + x[::-1])
    vec = tmp_path / "x.vec"
    write_vec(vec, x)
    mpsf = tmp_path / "x.mps"
    witf = tmp_path / "x.wit"
    assert run_cli("sym", "construct", "--kind", "bitflip", "--vec", str(vec), "--out", str(mpsf), "--wit", str(witf)) == 0
    capsys.readouterr()
    assert run_cli("sym", "verify", str(mpsf), "--wit", str(witf)) == 0
    lines = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    assert float(lines["max_residual"]) < 1e-12
    assert np.linalg.norm(to_vector(read_mps(mpsf)) - x) < 1e-12 * np.linalg.norm(x)


def test_cli_sym_normal_form_reverse(tmp_path, capsys, rng):
    x = random_complex(rng, 16)
    from symtt import symmetrize_reverse

    x = symmetrize_reverse(x)
    vec = tmp_path / "x.vec"
    write_vec(vec, x)
    assert run_cli("sym", "normal-form", "--kind", "reverse", "--vec", str(vec)) == 0
    lines = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    assert float(lines["reconstruction_error"]) < 1e-10


def test_cli_reverse_normal_form_is_refused_by_its_own_guard(tmp_path, capsys, rng, monkeypatch):
    from symtt import symmetry

    x = symmetry.symmetrize_reverse(random_complex(rng, 2**7))
    vec = tmp_path / "r7.vec"
    write_vec(vec, x)
    monkeypatch.setattr(symtt.errors, "MAX_DENSE_BYTES", symmetry._REVERSE_NF_ARRAYS * 16 * 2**7 - 1)
    with pytest.raises(TooLargeError, match=r"^the reverse normal form at p = 7 needs") as refused:
        symmetry.reverse_normal_form(x)
    built = []
    monkeypatch.setattr(symmetry, "ReverseNormalForm", lambda **parts: built.append(parts))
    assert run_cli("sym", "normal-form", "--kind", "reverse", "--vec", str(vec)) == 1
    assert capsys.readouterr().err == f"error: {refused.value}\n"
    assert built == []


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(x=st.integers(1, 8).flatmap(lambda p: arrays(np.complex128, 2**p, elements=st.complex_numbers(max_magnitude=1.0))))
def test_cli_writes_the_same_bytes_twice(tmp_path, capsys, x):
    # the TT-SVD verbs and the reverse normal form on a random small input:
    # two runs give the same exit code, stdout, stderr and output file
    if np.any(x):
        # a norm of tiny entries would underflow; numpy's complex division by
        # a subnormal overflows, so each part is divided on its own
        scale = np.abs(x).max()
        x = x.real / scale + 1j * (x.imag / scale)
        x = x / np.linalg.norm(x)
    write_vec(tmp_path / "x.vec", x)
    write_vec(tmp_path / "r.vec", symtt.symmetrize_reverse(x))
    commands = [
        (["mps", "from-vector", tmp_path / "x.vec", "--out", tmp_path / "a.mps"], tmp_path / "a.mps"),
        (["mps", "normalize", tmp_path / "a.mps", "--form", "vidal", "--out", tmp_path / "b.mps"], tmp_path / "b.mps"),
        (["sym", "normal-form", "--kind", "reverse", "--vec", tmp_path / "r.vec"], None),
    ]
    for argv, out in commands:
        runs = []
        for _ in range(2):
            code = run_cli(*map(str, argv))
            text = capsys.readouterr()
            runs.append((code, text.out, text.err, out.read_bytes() if out and out.exists() else None))
        assert runs[0] == runs[1], argv


def test_cli_struct_blockdiag(tmp_path, capsys, rng):
    a = rng.standard_normal((8, 8))
    a = 0.5 * (a + a.T)
    a = 0.5 * (a + a[::-1, ::-1])
    mat = tmp_path / "a.mat"
    write_mat(mat, a)
    bp = tmp_path / "bp.mat"
    bm = tmp_path / "bm.mat"
    bq = tmp_path / "q.mat"
    assert run_cli("struct", "blockdiag", str(mat), "--out-plus", str(bp), "--out-minus", str(bm), "--out-q", str(bq)) == 0
    spec = np.sort(np.concatenate([np.linalg.eigvalsh(read_mat(bp)), np.linalg.eigvalsh(read_mat(bm))]))
    assert np.allclose(spec, np.linalg.eigvalsh(a), atol=1e-10)
    q = read_mat(bq)  # q a q^T = diag(b_plus, b_minus)
    assert np.allclose(q @ a @ q.T, np.block([[read_mat(bp), np.zeros((4, 4))], [np.zeros((4, 4)), read_mat(bm)]]), atol=1e-12)
    assert f"written_q={bq}" in capsys.readouterr().out


def test_cli_dof(capsys):
    assert run_cli("sym", "dof", "--p", "9", "--kinds", "bitshift") == 0
    out = capsys.readouterr().out
    assert "count_bitshift=60" in out


def test_cli_ham_spectrum_ground(tmp_path, capsys):
    spec_file = tmp_path / "spec.txt"
    assert run_cli("ham", "spectrum", "--model", "hx", "--p", "3", "--out", str(spec_file)) == 0
    values = [float(v) for v in spec_file.read_text().split()]
    assert np.allclose(values, [-3, -1, -1, -1, 1, 1, 1, 3], atol=1e-12)
    capsys.readouterr()
    # without --out the values go to stdout, one a line, before dim
    assert run_cli("ham", "spectrum", "--model", "hx", "--p", "3") == 0
    assert capsys.readouterr().out.splitlines() == spec_file.read_text().splitlines() + ["dim=8"]
    # with --json they are the one JSON object's "values", before "dim"
    assert run_cli("--json", "ham", "spectrum", "--model", "hx", "--p", "3") == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["values", "dim"] and payload["dim"] == 8
    assert payload["values"] == [float(v) for v in spec_file.read_text().split()]
    gvec = tmp_path / "g.mat"
    assert run_cli("ham", "ground", "--model", "hx", "--p", "2", "--out", str(gvec)) == 0
    lines = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    assert abs(float(lines["energy"]) + 2.0) < 1e-12
    v = read_mat(gvec).reshape(-1)
    assert np.allclose(v, np.array([1, -1, -1, 1]) / 2.0)


def test_cli_mps_normalize_forms(tmp_path, capsys, rng):
    x = random_complex(rng, 2**4)
    x /= np.linalg.norm(x)
    vec = tmp_path / "x.vec"
    write_vec(vec, x)
    src = tmp_path / "x.mps"
    run_cli("mps", "from-vector", str(vec), "--out", str(src))
    capsys.readouterr()
    for form in ("left", "right", "strong", "vidal"):
        out = tmp_path / f"{form}.mps"
        assert run_cli("mps", "normalize", str(src), "--form", form, "--out", str(out)) == 0
        capsys.readouterr()
        assert np.linalg.norm(to_vector(read_mps(out)) - x) < 1e-11
    trunc = tmp_path / "t.mps"
    assert run_cli("mps", "truncate", str(src), "--dmax", "2", "--out", str(trunc)) == 0
    assert max(read_mps(trunc).dims) <= 2
    capsys.readouterr()
    assert run_cli("mps", "eval", str(src), "--bits", "0000") == 0
    lines = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    assert abs(complex(float(lines["re"]), float(lines["im"])) - x[0]) < 1e-12


def test_cli_sym_detect_and_constructs(tmp_path, capsys, rng):
    x = random_complex(rng, 2**4)
    x = 0.5 * (x + x[::-1])
    vec = tmp_path / "x.vec"
    write_vec(vec, x)
    assert run_cli("sym", "detect", str(vec)) == 0
    out = capsys.readouterr().out
    assert "bitflip+" in out
    # bitshift construct on a shift-symmetric vector
    from symtt import symmetrize_shift

    xs = symmetrize_shift(random_complex(rng, 2**4))
    vec2 = tmp_path / "xs.vec"
    write_vec(vec2, xs)
    out_mps = tmp_path / "ti.mps"
    assert run_cli("sym", "construct", "--kind", "bitshift", "--vec", str(vec2), "--out", str(out_mps)) == 0
    capsys.readouterr()
    assert np.linalg.norm(to_vector(read_mps(out_mps)) - xs) < 1e-11 * np.linalg.norm(xs)
    # fullbit construct + normal form
    a = random_complex(rng, 2, 2)
    a = 0.5 * (a + a.conj().T)
    mat = tmp_path / "a.mat"
    write_mat(mat, a)
    fb = tmp_path / "fb.mps"
    assert run_cli("sym", "construct", "--kind", "fullbit", "--mat", str(mat), "--p", "3", "--out", str(fb)) == 0
    capsys.readouterr()
    lam_f = tmp_path / "lam.mat"
    b_f = tmp_path / "b.mat"
    assert run_cli("sym", "normal-form", "--kind", "fullbit", "--mat", str(mat), "--out", str(lam_f), "--out2", str(b_f)) == 0
    capsys.readouterr()
    lam = read_mat(lam_f)
    assert np.allclose(lam, np.diag(np.diag(lam)))
    # firstsite construct
    b = random_complex(rng, 8)
    bvec = tmp_path / "b.vec"
    write_vec(bvec, b)
    fs = tmp_path / "fs.mps"
    assert run_cli("sym", "construct", "--kind", "firstsite", "--vec", str(bvec), "--sign", "-1", "--out", str(fs)) == 0
    capsys.readouterr()
    assert np.linalg.norm(to_vector(read_mps(fs)) - np.concatenate([b, -b])) < 1e-11


def test_cli_sym_normal_form_bitflip_and_ti(tmp_path, capsys, rng):
    x = random_complex(rng, 2**4)
    x = 0.5 * (x + x[::-1])
    vec = tmp_path / "x.vec"
    write_vec(vec, x)
    mpsf = tmp_path / "x.mps"
    witf = tmp_path / "x.wit"
    run_cli("sym", "construct", "--kind", "bitflip", "--vec", str(vec), "--out", str(mpsf), "--wit", str(witf))
    capsys.readouterr()
    nf = tmp_path / "nf.mps"
    nfw = tmp_path / "nf.wit"
    assert run_cli("sym", "normal-form", "--kind", "bitflip", "--mps", str(mpsf), "--wit", str(witf), "--out", str(nf), "--wit-out", str(nfw)) == 0
    capsys.readouterr()
    assert np.linalg.norm(to_vector(read_mps(nf)) - x) < 1e-11 * np.linalg.norm(x)
    for d in read_witness(nfw).matrices:
        assert np.allclose(d, np.diag(np.diag(d)))
    # ti normal form via CLI on a site-independent chain
    pair = (random_complex(rng, 2, 2), random_complex(rng, 2, 2))
    ti = MPSState([pair] * 3, boundary="periodic")
    ti_f = tmp_path / "ti.mps"
    write_mps(ti_f, ti)
    ti_nf = tmp_path / "ti_nf.mps"
    assert run_cli("sym", "normal-form", "--kind", "ti", "--mps", str(ti_f), "--out", str(ti_nf)) == 0
    capsys.readouterr()
    back = read_mps(ti_nf)
    assert np.linalg.norm(to_vector(back) - to_vector(ti)) < 1e-11 * np.linalg.norm(to_vector(ti))
    assert np.linalg.norm(np.tril(back.sites[0][0], -1)) < 1e-12


def test_cli_ti_normal_form_refuses_distinct_tiny_sites(tmp_path, capsys, rng):
    # four different sites of norm ~1e-12: their absolute differences are
    # below EPS_SYM, but relative to the sites they are of order one
    chain = MPSState([1e-12 * random_complex(rng, 2, 3, 3) for _ in range(4)], boundary="periodic")
    src = tmp_path / "c.mps"
    write_mps(src, chain)
    out = tmp_path / "c_nf.mps"
    assert run_cli("sym", "normal-form", "--kind", "ti", "--mps", str(src), "--out", str(out)) == 1
    assert "site-independent chain" in capsys.readouterr().err
    assert not out.exists()


def test_cli_struct_split_circulant(tmp_path, capsys, rng):
    a = rng.standard_normal((4, 4))
    a = 0.5 * (a + a.T)
    mat = tmp_path / "a.mat"
    write_mat(mat, a)
    pf = tmp_path / "p.mat"
    sf = tmp_path / "s.mat"
    assert run_cli("struct", "split", str(mat), "--out-p", str(pf), "--out-s", str(sf)) == 0
    capsys.readouterr()
    assert np.max(np.abs(read_mat(pf) + read_mat(sf) - a)) < 1e-14
    row = tmp_path / "row.mat"
    write_mat(row, np.array([[0.0, 1.0]]))
    assert run_cli("struct", "circulant-eig", str(row)) == 0
    out = capsys.readouterr().out
    assert "ev_0=1" in out and "ev_1=-1" in out


def test_cli_ham_build_too_large(tmp_path, capsys):
    # 16 * 4^14 bytes = 4 GiB: the byte guard refuses before allocating
    out = tmp_path / "H.mat"
    assert run_cli("ham", "build", "--model", "hx", "--p", "14", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "4294967296 bytes" in err and "MAX_DENSE_BYTES" in err
    assert not out.exists()


def test_cli_dense_guards_exit_1(tmp_path, capsys, rng):
    # to-vector on a periodic p = 14, D = 128 chain needs a 4 GiB accumulator
    chain = tmp_path / "wide.mps"
    write_mps(chain, MPSState([np.ones((2, 128, 128))] * 14, boundary="periodic"))
    assert run_cli("mps", "to-vector", str(chain), "--out", str(tmp_path / "wide.vec")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "4294967296-byte accumulator" in err
    # a full-rank shift-invariant p = 16 vector has bond 256: the one distinct
    # site of its site-independent chain would fit in memory, but the file
    # would hold 16 * 2 * (16 * 256)^2 * 16 bytes of entries, so the command
    # refuses before building the chain
    vec = tmp_path / "s16.vec"
    write_vec(vec, symtt.symmetrize_shift(random_complex(rng, 2**16)))
    out = tmp_path / "s16.mps"
    assert run_cli("sym", "construct", "--kind", "bitshift", "--vec", str(vec), "--out", str(out), "--wit", str(tmp_path / "s16.wit")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "8589934592 bytes" in err and "MAX_DENSE_BYTES" in err
    assert not out.exists()
    # 32769 bits: the shift orbit would hold up to 32769^2 bytes of rotations
    assert run_cli("sym", "orbits", "--bits", "1" + "0" * 32768) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1073807361 bytes" in err and "MAX_DENSE_BYTES" in err
    # 10^12 sites of the pair (A, JAJ) of 1 x 1 matrices: 32 * 10^12 bytes of
    # entries, refused before the list of sites is built
    mat = tmp_path / "a.mat"
    write_mat(mat, np.ones((1, 1)))
    out = tmp_path / "f.mps"
    assert run_cli("sym", "construct", "--kind", "fullbit", "--mat", str(mat), "--p", str(10**12), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "32000000000000 bytes" in err and "MAX_DENSE_BYTES" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, match",
    [
        (("sym", "orbits", "--bits", "012"), "0/1 string"),
        (("sym", "dof", "--p", "4", "--kinds", "foo"), "unknown symmetry kinds"),
        (("sym", "dof", "--p", "4", "--kinds", ","), "at least one symmetry kind"),
        (("sym", "dof", "--p", "0", "--kinds", "bitshift"), "site count"),
        (("mps", "truncate", "{dir}/ghz.mps", "--dmax", "0", "--out", "{dir}/out.mps"), "d_max"),
        (("mps", "eval", "{dir}/ghz.mps", "--bits", "0a1"), "bits must be 0 or 1"),
        (("struct", "classify", "{dir}/nan.mat"), "finite"),
        (("sym", "detect", "{dir}/nan.vec"), "finite"),
        (("struct", "classify", "{dir}/int.mat"), "expected an integer"),
        (("mps", "from-vector", "{dir}/big.vec", "--out", "{dir}/out.mps"), "2\\^40 entries"),
        (("struct", "classify", "{dir}/missing.mat"), "No such file"),
        (("struct", "classify", "{dir}/bytes.mat"), "'<re> <im>'"),
        (("mps", "from-vector", "{dir}/ghz.vec", "--tol", "nan", "--out", "{dir}/out.mps"), "tol .* got nan"),
        (("mps", "truncate", "{dir}/ghz.mps", "--tol", "nan", "--out", "{dir}/out.mps"), "tol .* got nan"),
        (("struct", "classify", "{dir}/eye.mat", "--tol", "nan"), "tol .* got nan"),
        (("ham", "certify", "--model", "hx", "--p", "2", "--tol", "inf"), "tol .* got inf"),
        (("sym", "detect", "{dir}/ghz.vec", "--tol", "nan"), "tol .* got nan"),
        (("sym", "detect", "{dir}/ghz.vec", "--tol", "-1"), "tol .* got -1"),
        (("struct", "circulant-eig", "{dir}/eye.mat"), "1 x n or n x 1 first row, got shape \\(2, 2\\)"),
        (("sym", "dof", "--p", "27", "--kinds", "bitshift"), "p = 27 describes vectors of 2147483648 bytes"),
        (("sym", "normal-form", "--kind", "reverse", "--vec", "{dir}/asym.vec"), "not reverse symmetric"),
        (("mps", "from-vector", "{dir}/one.vec", "--tol", "nan", "--out", "{dir}/out.mps"), "tol .* got nan"),
        (("mps", "truncate", "{dir}/one.mps", "--tol", "-1", "--out", "{dir}/out.mps"), "tol .* got -1"),
        (("mps", "truncate", "{dir}/one.mps", "--tol", "inf", "--out", "{dir}/out.mps"), "tol .* got inf"),
        (("sym", "construct", "--kind", "fullbit", "--mat", "{dir}/upper.mat", "--p", "3", "--out", "{dir}/out.mps"),
         "require a Hermitian matrix"),
    ],
)
def test_cli_bad_input_is_a_domain_error(tmp_path, capsys, argv, match):
    ghz = np.zeros(8)
    ghz[0] = ghz[-1] = 1.0
    write_mps(tmp_path / "ghz.mps", from_vector(ghz))
    write_vec(tmp_path / "ghz.vec", ghz)
    write_mat(tmp_path / "eye.mat", np.eye(2))
    (tmp_path / "bytes.mat").write_bytes(b"MAT1 1 1\n\xff 0\n")
    (tmp_path / "nan.mat").write_text("MAT1 1 2\nnan 0\n1 0\n")
    (tmp_path / "nan.vec").write_text("VEC1 1\n1 0\nnan 0\n")
    (tmp_path / "int.mat").write_text("MAT1 x 2\n0 0\n0 0\n")
    (tmp_path / "big.vec").write_text("VEC1 40\n0 0\n")
    write_vec(tmp_path / "asym.vec", np.array([1.0, 2.0, 3.0, 4.0]))
    # one site: no SVD split, which would check the tolerance itself
    write_vec(tmp_path / "one.vec", np.array([1.0, 2.0]))
    write_mps(tmp_path / "one.mps", from_vector(np.array([1.0, 2.0])))
    # not Hermitian, at a scale where ||a - a^H||_F underflows to a subnormal
    write_mat(tmp_path / "upper.mat", scaled(np.array([[1.0, 2.0], [0.0, 1.0]]), -1060))
    assert run_cli(*(a.format(dir=tmp_path) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert re.search(match, err)
