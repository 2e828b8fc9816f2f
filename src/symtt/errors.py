"""Domain exceptions raised by the public operations.

Every precondition violation maps to one of these classes so the CLI can
distinguish domain errors (exit code 1) from usage errors (exit code 2).
They subclass ``ValueError``, so code that catches ``ValueError`` still
catches them.
"""


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
