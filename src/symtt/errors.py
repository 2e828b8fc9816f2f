"""Domain exceptions raised by the public operations, and the guards that
raise them for every module.

Every precondition violation maps to one of these classes so the CLI can
distinguish domain errors (exit code 1) from usage errors (exit code 2).
They subclass ``ValueError``, so code that catches ``ValueError`` still
catches them.  The byte guard (``MAX_DENSE_BYTES``, ``require_bytes``) and
the site-count check live here, free of numpy, so the numpy-free orbit
counting shares them with the numpy modules.
"""

import numbers

#: the one size limit: bytes of each guarded dense allocation, and of the
#: entries an MPS1 file holds; compared only in ``require_bytes``
MAX_DENSE_BYTES = 2**30


class SymttError(ValueError):
    """Base class for all domain errors of this package."""


class NotHermitianError(SymttError):
    pass


class NotSymmetricError(SymttError):
    pass


class NotSymPersymError(SymttError):
    pass


class OddSizeError(SymttError):
    pass


class NotOmegaCirculantError(SymttError):
    pass


class UnknownNameError(SymttError):
    pass


class UnknownModelError(SymttError):
    pass


class BadParamsError(SymttError):
    pass


class TooLargeError(SymttError):
    pass


class ResidualError(SymttError):
    pass


class ShapeMismatchError(SymttError):
    pass


class ZeroVectorError(SymttError):
    pass


class ZeroSiteError(SymttError):
    pass


class NotNormalizedError(SymttError):
    pass


class GaugeViolationError(SymttError):
    pass


class SymmetryMismatchError(SymttError):
    pass


class WitnessViolationError(SymttError):
    pass


class NotDiagonalizableError(SymttError):
    pass


class FormatError(SymttError):
    pass


def require_site_count(p) -> None:
    """Reject a site count that is not an int >= 1 (bools included); numpy's
    integers count, as numpy registers them as ``numbers.Integral``."""
    if isinstance(p, bool) or not isinstance(p, numbers.Integral) or p < 1:
        raise BadParamsError(f"site count p must be an int >= 1, got {p!r}")


def require_bytes(nbytes: int, allocation: str) -> None:
    """Raise TooLargeError if ``nbytes`` is over MAX_DENSE_BYTES (read at call
    time); ``allocation`` names the allocation and its size."""
    if nbytes > MAX_DENSE_BYTES:
        raise TooLargeError(f"{allocation}, over the MAX_DENSE_BYTES guard of {MAX_DENSE_BYTES} bytes")
