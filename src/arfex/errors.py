"""Exception types shared across the package."""


class ArfexError(Exception):
    """Base class for all package-specific errors."""


class ImageTooSmall(ArfexError):
    """Image is below the 9x9 minimum required by the smallest filter."""


class ParseError(ArfexError):
    """Input bytes could not be decoded (image file or database document)."""


class PointAtInfinity(ArfexError):
    """Projective mapping denominator underflowed."""


class DegenerateConfiguration(ArfexError):
    """Point configuration cannot constrain the model (collinear/duplicated)."""


class SingularSystem(ArfexError):
    """Linear system for the model estimate is singular or rank deficient."""


class DuplicateId(ArfexError):
    """Object id already present in the database."""


class NoFeatures(ArfexError):
    """Image produced no interest points (too flat)."""


class VersionMismatch(ArfexError):
    """Database document has an unsupported format version."""
