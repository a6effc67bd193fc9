"""Error taxonomy shared across the package.

Every failure mode that callers are expected to branch on gets its own
exception class.  Anything not listed here escaping a public function is a
plain bug.
"""


class GeometryError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(GeometryError):
    """Input is dimension-deficient, empty, or dimensions disagree."""


class UnboundedError(GeometryError):
    """A halfspace intersection turned out to be unbounded."""


class PolarityDomainError(GeometryError):
    """Polarity was requested for a body without 0 in its interior."""


class PreconditionError(GeometryError):
    """A documented precondition (unconditionality, range bound, ...) failed."""


class InvalidSumError(GeometryError):
    """A summand of a direct sum (l1 or l-infinity) lacks the origin in its interior."""


class ConsistencyError(GeometryError):
    """Data that must agree does not (glued graphs, file cross-checks, ...)."""


class FalsificationError(GeometryError):
    """An exact computation contradicted a proved statement.

    This is the loud halt: it means either the implementation is wrong or a
    theorem is false, and no downstream result can be trusted.
    """


class ResourceError(GeometryError):
    """The request is outside the supported desk-scale range."""


class FormatError(GeometryError):
    """A serialized polytope/graph/tree file fails to parse or cross-check."""
