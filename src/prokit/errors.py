"""Exception types shared across the package."""


class ProkitError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(ProkitError):
    pass


class InfiniteCokernel(ProkitError):
    """Raised when a quotient that must be finite has free rank."""


class InvalidSpec(ProkitError):
    pass


class AxiomViolation(ProkitError):
    pass


class DecompositionBoundExceeded(ProkitError):
    """Idempotent splitting stalled before all factors became local, or
    its idempotents broke the idempotent laws; indicates an internal bug."""


class IdentificationFailure(ProkitError):
    """Two routes to the same answer disagree (the colon/Koszul
    identification, or the two forms of the proregularity condition);
    indicates an internal bug."""


class NotCovering(ProkitError):
    pass


class InsufficientBound(ProkitError):
    """A search budget or enumeration limit was reached before the answer
    was decided (a bound-transfer check needed profile entries beyond the
    search budget, or a ring was too large to enumerate)."""


class ParseError(ProkitError):
    pass


class UnknownReference(ParseError):
    pass


class BoundViolation(ParseError):
    pass
