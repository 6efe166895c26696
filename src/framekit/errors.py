"""Exception taxonomy for the toolkit.

Everything raised deliberately by this package derives from
:class:`ToolkitError`, so callers can catch a single type at API boundaries.
Validation failures double as :class:`ValueError` to stay idiomatic.
"""

__all__ = [
    "ToolkitError",
    "InvalidParametersError",
    "DimensionMismatchError",
    "ParseError",
    "NotHermitianError",
    "NonHermitianComparisonError",
    "NotPositiveDefiniteError",
    "IndefiniteOperatorError",
    "NotOrthonormalError",
    "RangeDeficiencyError",
    "PreconditionFailedError",
    "CommutationError",
    "NonRealFormError",
]


class ToolkitError(Exception):
    """Base class for all deliberate failures in this package."""


class InvalidParametersError(ToolkitError, ValueError):
    """Inputs are malformed: bad shapes, non-finite entries, bad options."""


class DimensionMismatchError(InvalidParametersError):
    """Two objects that must share a dimension do not."""


class ParseError(ToolkitError, ValueError):
    """A JSON input could not be parsed or violates the documented schema.

    ``path`` is the offending file (when known) and ``where`` a human-readable
    position, e.g. ``"line 3 column 7"`` or ``"vectors[2][0]"``.
    """

    def __init__(self, message, path=None, where=None):
        self.path = path
        self.where = where
        parts = [p for p in (path, where) if p]
        prefix = ": ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class NotHermitianError(ToolkitError):
    """An operator required to be Hermitian is not, within tolerance."""


class NonHermitianComparisonError(NotHermitianError):
    """A Loewner-order comparison was attempted with a non-Hermitian side."""


class NotPositiveDefiniteError(ToolkitError):
    """An operator required to be positive definite has spectrum at or below zero."""


class IndefiniteOperatorError(ToolkitError):
    """An operator required to be positive semi-definite has a genuinely negative eigenvalue."""


class NotOrthonormalError(ToolkitError):
    """A family required to be an orthonormal basis is not one."""


class PreconditionFailedError(ToolkitError):
    """A documented precondition of an operation does not hold for the inputs.

    ``witness`` carries a direction exhibiting the failure when one exists.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class RangeDeficiencyError(PreconditionFailedError):
    """range(K) is not contained in the span of the family: a failed
    precondition that always carries a witness.

    ``witness`` is a unit vector ``x`` for which ``K x`` cannot be synthesized
    from the family.
    """


class CommutationError(ToolkitError):
    """Two operators required to commute do not, within tolerance."""


class NonRealFormError(ToolkitError):
    """A quadratic form required to be real-valued has a material imaginary part."""
