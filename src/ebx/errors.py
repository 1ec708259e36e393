"""Exception types raised across the toolkit.

Everything derives from :class:`EbxError` so callers (and the CLI) can
distinguish toolkit failures from programming errors with one except clause.
"""

__all__ = [
    "EbxError",
    "NotHermitian",
    "NotPSD",
    "DimensionMismatch",
    "NotCP",
    "NotUnital",
    "NotUnitalTP",
    "NotEB",
    "DegenerateDraw",
    "NotExtreme",
    "PreconditionDomination",
    "NotDominated",
    "StructureViolation",
    "NotInvertible",
    "VerificationFailed",
    "InternalInconsistency",
    "CoefficientsNotNormalized",
    "NoCertificate",
    "ParseError",
]


class EbxError(Exception):
    """Base class for all toolkit errors."""


class NotHermitian(EbxError):
    """A matrix expected to be hermitian is not, beyond tolerance."""


class NotPSD(EbxError):
    """A matrix expected to be positive semidefinite is not."""


class DimensionMismatch(EbxError):
    """Operands have incompatible shapes or channel dimensions."""


class NotCP(EbxError):
    """A channel expected to be completely positive is not."""


class NotUnital(EbxError):
    """A channel expected to be unital is not."""


class NotUnitalTP(EbxError):
    """An operation requiring a unital trace-preserving channel got something else."""


class NotEB(EbxError):
    """A channel expected to be entanglement breaking is certified not to be."""


class DegenerateDraw(EbxError):
    """A random generator repeatedly produced numerically degenerate data."""


class NotExtreme(EbxError):
    """Canonical-form extraction failed; the channel is not C*-extreme (or not
    recognizably so at the working tolerance)."""


class PreconditionDomination(EbxError):
    """A derivative/witness operation was called on a pair that fails the
    required domination precondition."""


class NotDominated(EbxError):
    """A rank-one map is not dominated by the reference channel."""


class StructureViolation(EbxError):
    """Data passed structural preconditions but violates the structure the
    theory guarantees; usually a sign of tolerance miscalibration."""


class NotInvertible(EbxError):
    """A matrix required to be invertible is numerically singular."""


class VerificationFailed(EbxError):
    """A computed object failed its defining identity check."""


class InternalInconsistency(EbxError):
    """Two independent criteria that must agree did not. Indicates a bug or a
    tolerance failure, never a property of valid input."""


class CoefficientsNotNormalized(EbxError):
    """C*-convex coefficients do not sum (as T_i* T_i) to the identity."""


class NoCertificate(EbxError):
    """An operation requiring a Holevo certificate got a channel without one."""


class ParseError(EbxError):
    """A channel file or payload is malformed."""
