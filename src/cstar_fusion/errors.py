"""Exception types shared across the package."""


class CstarFusionError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(CstarFusionError):
    """Operands have incompatible fiber counts, dimensions or scalar kinds."""


class LengthMismatch(CstarFusionError):
    """Sequences that must be index-aligned have different lengths."""


class NotPositive(CstarFusionError):
    """An operation required a positive algebra element and got something else."""


class NotInvertible(CstarFusionError):
    """An algebra element has a fiber too close to zero to invert."""


class InvalidWeight(CstarFusionError):
    """A weight is not finite, not self-adjoint or not strictly positive."""


class NotAFrame(CstarFusionError):
    """A weighted submodule family failed frame verification."""


class QuaternionUnsupported(CstarFusionError):
    """The requested construction only exists for complex fibers."""


class IndexOutOfRange(CstarFusionError):
    """A fiber index lies outside 1..N."""


class NotFinite(CstarFusionError, ValueError):
    """Input data holds a NaN or an infinite entry."""


class NotHermitian(CstarFusionError):
    """A dense operator expected to be Hermitian is not."""


class ParseError(CstarFusionError):
    """A scenario file could not be parsed; the message carries the location."""


class ValidationError(CstarFusionError):
    """A parsed scenario is inconsistent; the message names the offending key."""
