"""Exception types shared across the package."""


class MultigradedError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MultigradedError):
    """Operands live in ambient spaces of different dimension."""


class RankMismatch(MultigradedError):
    """Index vectors or cones of incompatible rank."""


class ZeroIdeal(MultigradedError):
    """Operation undefined on the zero ideal."""


class ZeroDivisorIdeal(MultigradedError):
    """Colon by the zero ideal."""


class NotCofinite(MultigradedError):
    """Colength/multiplicity requested for an ideal of infinite colength."""


class UnsupportedDimension(MultigradedError):
    """Exact polyhedral geometry is only implemented for dimensions <= 3."""


class UnboundedComplement(MultigradedError):
    """Covolume requested but the complement of the region is unbounded."""


class NonpositiveScale(MultigradedError):
    """Region dilation factor must be positive."""


class EmptyRegion(MultigradedError):
    """A region expected to contain points is empty."""


class ZeroDirection(MultigradedError):
    """Direction restriction requires a nonzero index vector."""


class ZeroIdealInDirection(MultigradedError):
    """The system is zero along the sampled direction."""


class EvaluationOutOfDomain(MultigradedError):
    """A scanned function was evaluated outside its domain."""


class MonotonicityError(MultigradedError):
    """A schedule sample sequence failed to be monotone nonincreasing."""


class WorkLimitExceeded(MultigradedError):
    """Work past a stated limit: each ``MAX_*`` constant of the package is
    one, and its refusal names it."""
