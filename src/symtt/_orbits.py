"""Orbits and orbit counts of bit strings under the three index actions of
``symmetry`` (cyclic shift, global flip, reversal), in pure Python.

``symmetry.orbits`` and ``symmetry.dof_count`` wrap these in their reports,
and ``symtt.cli`` runs ``sym orbits`` and ``sym dof`` from this module, which
imports neither numpy nor ``dataclasses`` (whose ``inspect`` costs a numpy-free
command about 10 ms).
"""

from __future__ import annotations

from .errors import BadParamsError, UnknownNameError, require_bytes, require_site_count


def orbit_sets(bits: str) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """The shift, flip and reverse orbits of ``bits``.  The shift orbit holds
    up to p rotations of p characters, and p^2 must fit in MAX_DENSE_BYTES
    (p <= 32768)."""
    if not bits or set(bits) - {"0", "1"}:
        raise BadParamsError(f"bits must be a nonempty 0/1 string, got {bits!r}")
    p = len(bits)
    require_bytes(p * p, f"the shift orbit of {p} bits holds up to {p * p} bytes of rotations")
    shift = frozenset(bits[k:] + bits[:k] for k in range(p))
    flip = frozenset({bits, "".join("1" if c == "0" else "0" for c in bits)})
    rev = frozenset({bits, bits[::-1]})
    return shift, flip, rev


def _fixed_strings(p: int, flip: int, mirror: int, k: int) -> int:
    """Strings of p bits fixed by flip^flip reverse^mirror shift^k, which moves position j to j + k
    (mirrored: -1 - k - j) mod p: 2^c for its c cycles, or 0 if the flip meets an odd cycle."""
    seen = [False] * p
    cycles = 0
    for start in range(p):
        j, length = start, 0
        while not seen[j]:
            seen[j] = True
            j = (-1 - k - j if mirror else j + k) % p
            length += 1
        if flip and length % 2:
            return 0
        cycles += length > 0
    return 2**cycles


def dof_counts(p: int, kinds) -> tuple[dict[str, int], dict[str, float]]:
    """Exact orbit counts of bit strings under the chosen symmetries, and the
    reduction factors 2^p / count.

    The counts map each single kind to its class count and, when several
    kinds are given, "combined" to the count under the jointly generated
    group.  The flip commutes with shift and reversal, so the words flip^b
    reverse^a shift^k cover the group, each element equally often; by
    Burnside's lemma a count is the mean of ``_fixed_strings`` over the
    words, with no 2^p array.  The counts describe 2^p-entry complex
    vectors, whose 16 * 2^p bytes must fit in MAX_DENSE_BYTES (p <= 26).
    """
    require_site_count(p)
    nbytes = 16 * 2**p
    require_bytes(nbytes, f"orbit counting at p = {p} describes vectors of {nbytes} bytes")
    kinds = sorted(set(kinds))
    unknown = set(kinds) - {"bitshift", "bitflip", "reverse"}
    if unknown:
        raise UnknownNameError(f"unknown symmetry kinds for counting: {sorted(unknown)}")
    if not kinds:
        raise BadParamsError("need at least one symmetry kind")

    def count(group_kinds) -> int:
        flips = (0, 1) if "bitflip" in group_kinds else (0,)
        mirrors = (0, 1) if "reverse" in group_kinds else (0,)
        shifts = range(p if "bitshift" in group_kinds else 1)
        fixed = [_fixed_strings(p, b, a, k) for b in flips for a in mirrors for k in shifts]
        return sum(fixed) // len(fixed)

    counts = {k: count([k]) for k in kinds}
    if len(kinds) > 1:
        counts["combined"] = count(kinds)
    return counts, {k: 2**p / c for k, c in counts.items()}
